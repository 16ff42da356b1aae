// Command upibench regenerates the tables and figures of the UPI
// paper's evaluation section (see README.md for the experiment index).
//
// Usage:
//
//	upibench [-experiment all|fig3|...|table8] [-scale 1.0] [-seed 1]
//	         [-json out.json] [-compare baseline.json]
//
// Runtimes are modeled seconds on the paper's simulated disk (10 ms
// seek, 20 ms/MB read, 50 ms/MB write, 100 ms per file open), measured
// cold-cache, so output is deterministic for a given scale and seed.
//
// With -compare, the regenerated experiments are checked against a
// previously written -json baseline: any modeled-cost cell that grew
// more than 10% fails the run (exit 1) — the CI bench-regression gate.
// Lower values never fail.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"upidb/internal/bench"
)

// report is the JSON document -json writes and -compare reads.
type report struct {
	Scale       float64             `json:"scale"`
	Seed        int64               `json:"seed"`
	Experiments []*bench.Experiment `json:"experiments"`
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "comma-separated experiment IDs (fig3..fig12, table7, table8, streaming-latency, ablation-pointers, ablation-size) or 'all'")
		scale      = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = 70k authors, 130k publications, 150k observations)")
		seed       = flag.Int64("seed", 1, "dataset generation seed")
		jsonOut    = flag.String("json", "", "also write the regenerated experiments as JSON to this file (CI perf trajectory)")
		compare    = flag.String("compare", "", "baseline JSON (a previous -json output) to compare against; exit 1 if any modeled cost regressed >10%")
	)
	flag.Parse()

	ctx := context.Background()
	env := bench.NewEnv(bench.Config{Scale: *scale, Seed: *seed})
	ids := make([]string, 0)
	if *experiment == "all" {
		for _, r := range bench.Registered() {
			ids = append(ids, r.ID)
		}
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}

	fmt.Printf("upibench: scale=%.3g seed=%d experiments=%v\n\n", *scale, *seed, ids)
	rep := report{Scale: *scale, Seed: *seed}
	for _, id := range ids {
		start := time.Now()
		exp, err := bench.Run(ctx, env, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "upibench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(exp)
		fmt.Printf("   (regenerated in %v wall-clock)\n\n", time.Since(start).Round(time.Millisecond))
		rep.Experiments = append(rep.Experiments, exp)
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "upibench: marshal: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "upibench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if *compare != "" {
		regressions, err := compareBaseline(rep, *compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "upibench: compare: %v\n", err)
			os.Exit(1)
		}
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "upibench: %d modeled-cost regression(s) vs %s:\n", len(regressions), *compare)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("compare: no modeled-cost regression >%.0f%% vs %s\n", regressionTolerance*100, *compare)
	}
}

// regressionTolerance is the relative growth a modeled-cost cell may
// show against the baseline before the compare gate fails.
const regressionTolerance = 0.10

// compareBaseline checks every current experiment cell against the
// baseline report. Cells are matched by experiment ID, row label (or
// x value) and column name; anything the baseline lacks — a new
// experiment or row — is noted and skipped, never failed.
func compareBaseline(cur report, path string) ([]string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base report
	if err := json.Unmarshal(buf, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if base.Scale != cur.Scale || base.Seed != cur.Seed {
		return nil, fmt.Errorf("baseline %s was generated at scale=%g seed=%d, this run is scale=%g seed=%d — regenerate the baseline",
			path, base.Scale, base.Seed, cur.Scale, cur.Seed)
	}
	byID := make(map[string]*bench.Experiment, len(base.Experiments))
	for _, e := range base.Experiments {
		byID[e.ID] = e
	}
	var regressions []string
	for _, e := range cur.Experiments {
		b, ok := byID[e.ID]
		if !ok {
			fmt.Printf("compare: %s not in baseline, skipped\n", e.ID)
			continue
		}
		baseRows := make(map[string]bench.Row, len(b.Rows))
		for _, r := range b.Rows {
			baseRows[rowKey(r)] = r
		}
		for _, r := range e.Rows {
			br, ok := baseRows[rowKey(r)]
			if !ok {
				fmt.Printf("compare: %s row %q not in baseline, skipped\n", e.ID, rowKey(r))
				continue
			}
			for ci, col := range e.Columns {
				// Gate only modeled-seconds columns ("... [s]" or
				// "... [s/query]"): counts and percentages are not
				// modeled costs.
				if !strings.Contains(col, "[s") {
					continue
				}
				bi := columnIndex(b.Columns, col)
				if bi < 0 || bi >= len(br.Values) || ci >= len(r.Values) {
					continue
				}
				got, want := r.Values[ci], br.Values[bi]
				if got > want*(1+regressionTolerance)+1e-9 {
					regressions = append(regressions, fmt.Sprintf(
						"%s / %s / %s: %.4f vs baseline %.4f (+%.1f%%)",
						e.ID, rowKey(r), col, got, want, 100*(got/want-1)))
				}
			}
		}
	}
	return regressions, nil
}

func rowKey(r bench.Row) string {
	if r.Label != "" {
		return r.Label
	}
	return fmt.Sprintf("x=%g", r.X)
}

func columnIndex(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	return -1
}
