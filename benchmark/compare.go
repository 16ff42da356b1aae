package main

import (
	"fmt"
	"io"
	"os"
	"slices"
)

// side is one file's runs of one workload, for one metric.
type side struct {
	values []float64
	median float64
	spread float64 // (Q3 - Q1) / median; 0 for fewer than two runs
}

func newSide(values []float64) side {
	s := side{values: values, median: medianFloat(values)}
	if len(values) >= 2 && s.median != 0 {
		q1, q3 := quartiles(values)
		s.spread = (q3 - q1) / s.median
	}
	return s
}

// quartiles follows Python's statistics.quantiles(values, n=4), the
// exclusive method, which is what the driver computes.
func quartiles(values []float64) (q1, q3 float64) {
	xs := slices.Clone(values)
	slices.Sort(xs)
	at := func(p float64) float64 {
		pos := p * float64(len(xs)+1)
		j := min(max(int(pos), 1), len(xs)-1)
		frac := pos - float64(j)
		return xs[j-1] + frac*(xs[j]-xs[j-1])
	}
	return at(0.25), at(0.75)
}

// loadReports groups a report file's untraced runs by workload.
func loadReports(path string) (map[string][]*report, error) {
	reps, err := readReports(path)
	if err != nil {
		return nil, err
	}
	by := make(map[string][]*report)
	for _, r := range reps {
		if !r.Traced {
			by[r.Workload] = append(by[r.Workload], r)
		}
	}
	return by, nil
}

// comparable reports why the runs of one workload cannot be set side by
// side: numbers taken at another run length, table size or host say
// nothing about the code.
func comparable(rs []*report) error {
	for _, r := range rs[1:] {
		if r.Seconds != rs[0].Seconds || r.Scale != rs[0].Scale || r.Host != rs[0].Host {
			return fmt.Errorf("seed %d ran %gs at scale %g on %+v, seed %d %gs at scale %g on %+v",
				rs[0].Seed, rs[0].Seconds, rs[0].Scale, rs[0].Host, r.Seed, r.Seconds, r.Scale, r.Host)
		}
	}
	return nil
}

// verdict applies the benchmark's own rule to one metric: B regressed
// when its median is worse than A's by more than the bound; when
// either side's own spread is wider than the bound the comparison is
// unresolved, unless every run of B reads better than every run of A.
func verdict(m e2eSpec, a, b side) (worse float64, v string) {
	worse = (b.median - a.median) / a.median
	if m.Better == "higher" {
		worse = -worse
	}
	if max(a.spread, b.spread) > m.Bound {
		allBetter := slices.Min(b.values) > slices.Max(a.values)
		if m.Better == "lower" {
			allBetter = slices.Max(b.values) < slices.Min(a.values)
		}
		if !allBetter {
			return worse, "unresolved"
		}
	}
	if worse > m.Bound {
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, B's ratio to A (A is the base), both spreads, the bound and
// the verdict. It returns 1 when any metric regressed, a run failed, a
// workload is missing on one side, or the two sides were not run alike.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadReports(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadReports(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "A = %s (base)\nB = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-22s %-18s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "spreadA", "spreadB", "bound", "verdict")
	for _, wl := range workloadSpecs {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-22s %d runs in A, %d in B: nothing to compare\n", wl.Name, len(ra), len(rb))
			code = 1
			continue
		}
		both := append(slices.Clone(ra), rb...)
		if err := comparable(both); err != nil {
			fmt.Fprintf(w, "%-22s not comparable: %v\n", wl.Name, err)
			code = 1
			continue
		}
		for _, r := range both {
			if r.Failed > 0 {
				fmt.Fprintf(w, "%-22s seed %d: %d of %d ops failed\n", wl.Name, r.Seed, r.Failed, r.Attempted)
				code = 1
			}
		}
		for _, m := range endToEndSpecs {
			pick := func(rs []*report) side {
				var vs []float64
				for _, r := range rs {
					vs = append(vs, r.EndToEnd[m.Name])
				}
				return newSide(vs)
			}
			sa, sb := pick(ra), pick(rb)
			_, v := verdict(m, sa, sb)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-22s %-18s %12.4f %12.4f %8.4f %8.4f %8.4f %6.2f  %s (n=%d,%d %s)\n",
				wl.Name, m.Name, sa.median, sb.median, sb.median/sa.median, sa.spread, sb.spread, m.Bound, v, len(sa.values), len(sb.values), m.Unit)
		}
	}
	return code
}
