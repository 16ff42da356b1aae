// Command benchmark is the repository's wall-clock benchmark: four
// workloads, end-to-end metrics measured with tracing off, per-layer
// metrics from a separate traced run, and output checks on every op.
// See README.md; BENCHMARK.json at the repository root is its contract.
//
//	go run ./benchmark -workload serve-hot-read -seed 1 -trace 0
//	go run ./benchmark -workload all -seed 1 -out benchmark/out/a.json
//	go run ./benchmark -compare benchmark/out/a.json benchmark/out/b.json
//	go run ./benchmark -list
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload name, or all")
		seed     = fs.Int64("seed", 1, "seed of the op sequence: which queries, in which order, which tuples are written")
		seconds  = fs.Float64("seconds", runSeconds, "nominal length of the timed phase, which ends on a whole deck")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out      = fs.String("out", "", "also append the full reports to this JSON file, which -compare reads")
		dir      = fs.String("dir", filepath.Join("benchmark", "out"), "directory for data, traces and reports")
		list     = fs.Bool("list", false, "print the contract (the content of BENCHMARK.json) and exit")
		compare  = fs.Bool("compare", false, "compare two report files given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		os.Stdout.Write(specJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}

	var names []string
	for _, w := range workloadSpecs {
		if *workload == w.Name || *workload == "all" {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (see -list)\n", *workload)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	code := 0
	var reports []*report
	for _, name := range names {
		cfg := runConfig{workload: name, seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, dir: *dir}
		rep, err := run(ctx, cfg)
		if err != nil {
			// No result line: the run measured nothing usable.
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		reports = append(reports, rep)
		printReport(rep)
		if rep.Failed > 0 {
			code = 1
		}
	}
	if *out != "" {
		if err := appendReports(*out, reports); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// appendReports adds reports to the JSON array in path, so that a shell
// loop over -seed collects one set of runs for -compare.
func appendReports(path string, reports []*report) error {
	all, err := readReports(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	b, err := json.MarshalIndent(append(all, reports...), "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReports(path string) ([]*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []*report
	if err := json.Unmarshal(b, &reps); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reps, nil
}

func tracePath(cfg runConfig) string {
	return filepath.Join(cfg.dir, "trace-"+cfg.workload+".json")
}

// resultLine is the one JSON object the driver reads, last on stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders the report as the driver's result: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one.
func (r *report) line() resultLine {
	l := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	if r.Traced {
		for _, m := range perLayerSpecs {
			l.Metrics[m.Name] = metricValue{r.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEndSpecs {
			l.Metrics[m.Name] = metricValue{r.EndToEnd[m.Name], m.Unit}
		}
	}
	return l
}

// printReport prints every metric by name and unit, then the result
// line.
func printReport(r *report) {
	h := r.Host
	fmt.Printf("# %s seed=%d seconds=%g trace=%v clients=%d (closed loop, whole decks)\n", r.Workload, r.Seed, r.Seconds, r.Traced, r.Clients)
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d %s %s fs=%s; latencies are this sandbox's, not a device's\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.OSArch, h.FSType)
	fmt.Printf("# flush policy: %s\n", r.Policy)
	fmt.Print("# timed samples:")
	for _, k := range slices.Sorted(maps.Keys(r.Samples)) {
		fmt.Printf(" %s=%d", k, r.Samples[k])
	}
	fmt.Println()
	if n := r.Samples[knownTopKShort]; n > 0 {
		fmt.Printf("# known issue: %d top-k answers lacked rows that deleted tuples among a partition's first k entries hide until the next merge (engine defect, see README.md); accepted within that defect's reach, not counted as failed\n", n)
	}
	l := r.line()
	if r.Traced {
		for _, m := range perLayerSpecs {
			fmt.Printf("%-36s %14.4f %s\n", m.Name, l.Metrics[m.Name].Value, m.Unit)
		}
		for _, name := range slices.Sorted(maps.Keys(r.Ladder)) {
			fmt.Printf("# ladder %-24s %12.1f us (median over the probe set)\n", name, r.Ladder[name])
		}
		for _, name := range slices.Sorted(maps.Keys(r.Spans)) {
			s := r.Spans[name]
			fmt.Printf("# span %-24s n=%-8d total=%.4fs self=%.4fs\n", name, s.Count, s.TotalS, s.SelfS)
		}
	} else {
		for _, m := range endToEndSpecs {
			fmt.Printf("%-36s %14.4f %s\n", m.Name, l.Metrics[m.Name].Value, m.Unit)
		}
	}
	fmt.Printf("%-36s %14.6f ratio (%d of %d)\n", "failed_ops_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	for _, e := range r.Errors {
		fmt.Printf("# FAILED: %s\n", e)
	}
	b, err := json.Marshal(l)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Printf("%s\n", b)
}
