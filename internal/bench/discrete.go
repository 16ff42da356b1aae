package bench

import (
	"context"
	"fmt"
	"time"

	"upidb/internal/costmodel"
	"upidb/internal/dataset"
	"upidb/internal/histogram"
	"upidb/internal/pii"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// defaultCutoff is the cutoff threshold the headline experiments use
// (the paper runs Figures 4-6 with C = 10%).
const defaultCutoff = 0.10

func newDisk() (*sim.Disk, *storage.FS) {
	d := sim.NewDisk(sim.DefaultParams())
	return d, storage.NewFS(d)
}

func buildAuthorUPI(tuples []*tuple.Tuple, cutoff float64) (*upi.Table, *sim.Disk, error) {
	disk, fs := newDisk()
	tab, err := upi.BulkBuild(fs, "author", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, upi.Options{Cutoff: cutoff}, tuples)
	return tab, disk, err
}

func buildAuthorPII(tuples []*tuple.Tuple) (*pii.Table, *sim.Disk, error) {
	disk, fs := newDisk()
	tab, err := pii.BulkBuild(fs, "author",
		[]string{dataset.AttrInstitution, dataset.AttrCountry}, pii.Options{}, tuples)
	return tab, disk, err
}

// pickSelectiveValue returns the institution whose alternative count is
// closest to 1/100th of MIT's (at least 3) — the "selective query" of
// Figure 3 (300 vs 37,000 authors in the paper). Ties go to the name
// that sorts first, so the pick does not depend on map order.
func pickSelectiveValue(tuples []*tuple.Tuple) string {
	counts := make(map[string]int)
	mit := 0
	for _, t := range tuples {
		dist, _ := t.Uncertain(dataset.AttrInstitution)
		for _, a := range dist {
			counts[a.Value]++
			if a.Value == dataset.MITInstitution {
				mit++
			}
		}
	}
	target := mit / 100
	if target < 3 {
		target = 3
	}
	best, bestDiff := "", 1<<31
	for v, n := range counts {
		if v == dataset.MITInstitution {
			continue
		}
		diff := n - target
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff || diff == bestDiff && v < best {
			best, bestDiff = v, diff
		}
	}
	return best
}

// cutoffSweepQTs are the query thresholds of Figures 3 and 12.
var cutoffSweepQTs = []float64{0.05, 0.15, 0.25}

// cutoffSweepCs are the cutoff thresholds of Figures 3 and 12.
var cutoffSweepCs = []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}

// Fig3CutoffRuntime regenerates Figure 3: real query runtime against
// the cutoff threshold C for several query thresholds QT, for a
// non-selective query (Institution = MIT) and a selective one.
func Fig3CutoffRuntime(ctx context.Context, e *Env) (*Experiment, error) {
	d, err := e.DBLP()
	if err != nil {
		return nil, err
	}
	selective := pickSelectiveValue(d.Authors)
	exp := &Experiment{
		ID:     "fig3",
		Title:  "Cutoff Index Real Runtime (Query 1), non-selective and selective",
		XLabel: "C",
		Notes:  fmt.Sprintf("runtimes in modeled seconds; selective value = %s", selective),
	}
	for _, qt := range cutoffSweepQTs {
		exp.Columns = append(exp.Columns, fmt.Sprintf("nonsel QT=%.2f", qt))
	}
	for _, qt := range cutoffSweepQTs {
		exp.Columns = append(exp.Columns, fmt.Sprintf("sel QT=%.2f", qt))
	}
	for _, c := range cutoffSweepCs {
		tab, disk, err := buildAuthorUPI(d.Authors, c)
		if err != nil {
			return nil, err
		}
		row := Row{X: c}
		for _, value := range []string{dataset.MITInstitution, selective} {
			for _, qt := range cutoffSweepQTs {
				dur, err := coldRun(disk, tab.DropCaches, func() error {
					_, _, qerr := tab.Query(ctx, value, qt)
					return qerr
				})
				if err != nil {
					return nil, err
				}
				row.Values = append(row.Values, seconds(dur))
			}
		}
		exp.Rows = append(exp.Rows, row)
	}
	return exp, nil
}

// Fig4Query1 regenerates Figure 4: Query 1 (Author, Institution=MIT)
// runtime against QT, PII versus UPI (C = 10%).
func Fig4Query1(ctx context.Context, e *Env) (*Experiment, error) {
	d, err := e.DBLP()
	if err != nil {
		return nil, err
	}
	upiTab, upiDisk, err := buildAuthorUPI(d.Authors, defaultCutoff)
	if err != nil {
		return nil, err
	}
	piiTab, piiDisk, err := buildAuthorPII(d.Authors)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		ID:      "fig4",
		Title:   "Query 1 Runtime (Author WHERE Institution=MIT)",
		XLabel:  "QT",
		Columns: []string{"PII", "UPI"},
		Notes:   "modeled seconds; UPI cutoff C=0.10",
	}
	for qt := 0.1; qt <= 0.91; qt += 0.1 {
		qt := qt
		piiDur, err := coldRun(piiDisk, piiTab.DropCaches, func() error {
			_, qerr := piiTab.Query(ctx, dataset.AttrInstitution, dataset.MITInstitution, qt)
			return qerr
		})
		if err != nil {
			return nil, err
		}
		upiDur, err := coldRun(upiDisk, upiTab.DropCaches, func() error {
			_, _, qerr := upiTab.Query(ctx, dataset.MITInstitution, qt)
			return qerr
		})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{X: qt, Values: []float64{seconds(piiDur), seconds(upiDur)}})
	}
	return exp, nil
}

// groupCountJournal evaluates the GROUP BY Journal COUNT(*) of
// Queries 2 and 3 over a result set (pure CPU; the measured cost is
// the retrieval).
func groupCountJournal(results []upi.Result) map[string]int {
	counts := make(map[string]int)
	for _, r := range results {
		if j, ok := r.Tuple.DetValue(dataset.DetJournal); ok {
			counts[j]++
		}
	}
	return counts
}

// Fig5Query2 regenerates Figure 5: Query 2 (Publication aggregate on
// Institution=MIT GROUP BY Journal) runtime against QT, PII vs UPI.
func Fig5Query2(ctx context.Context, e *Env) (*Experiment, error) {
	d, err := e.DBLP()
	if err != nil {
		return nil, err
	}
	upiDisk, upiFS := newDisk()
	upiTab, err := upi.BulkBuild(upiFS, "pub", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, upi.Options{Cutoff: defaultCutoff}, d.Publications)
	if err != nil {
		return nil, err
	}
	piiDisk, piiFS := newDisk()
	piiTab, err := pii.BulkBuild(piiFS, "pub",
		[]string{dataset.AttrInstitution, dataset.AttrCountry}, pii.Options{}, d.Publications)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		ID:      "fig5",
		Title:   "Query 2 Runtime (Publication aggregate on Institution=MIT)",
		XLabel:  "QT",
		Columns: []string{"PII", "UPI"},
		Notes:   "modeled seconds; GROUP BY Journal computed over retrieved tuples",
	}
	for qt := 0.1; qt <= 0.91; qt += 0.1 {
		qt := qt
		piiDur, err := coldRun(piiDisk, piiTab.DropCaches, func() error {
			rs, qerr := piiTab.Query(ctx, dataset.AttrInstitution, dataset.MITInstitution, qt)
			groupCountJournal(rs)
			return qerr
		})
		if err != nil {
			return nil, err
		}
		upiDur, err := coldRun(upiDisk, upiTab.DropCaches, func() error {
			rs, _, qerr := upiTab.Query(ctx, dataset.MITInstitution, qt)
			groupCountJournal(rs)
			return qerr
		})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{X: qt, Values: []float64{seconds(piiDur), seconds(upiDur)}})
	}
	return exp, nil
}

// Fig6Query3 regenerates Figure 6: Query 3 (Publication aggregate on
// Country=Japan via a secondary index) against QT, comparing PII on an
// unclustered heap, the UPI secondary index without tailored access,
// and with tailored access.
func Fig6Query3(ctx context.Context, e *Env) (*Experiment, error) {
	d, err := e.DBLP()
	if err != nil {
		return nil, err
	}
	upiDisk, upiFS := newDisk()
	upiTab, err := upi.BulkBuild(upiFS, "pub", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, upi.Options{Cutoff: defaultCutoff}, d.Publications)
	if err != nil {
		return nil, err
	}
	piiDisk, piiFS := newDisk()
	piiTab, err := pii.BulkBuild(piiFS, "pub",
		[]string{dataset.AttrCountry}, pii.Options{}, d.Publications)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		ID:      "fig6",
		Title:   "Query 3 Runtime (Publication aggregate on Country=Japan, secondary index)",
		XLabel:  "QT",
		Columns: []string{"PII on unclustered heap", "PII on UPI", "PII on UPI w/ Tailored Access"},
		Notes:   "modeled seconds",
	}
	for qt := 0.1; qt <= 0.91; qt += 0.1 {
		qt := qt
		piiDur, err := coldRun(piiDisk, piiTab.DropCaches, func() error {
			rs, qerr := piiTab.Query(ctx, dataset.AttrCountry, dataset.JapanCountry, qt)
			groupCountJournal(rs)
			return qerr
		})
		if err != nil {
			return nil, err
		}
		plainDur, err := coldRun(upiDisk, upiTab.DropCaches, func() error {
			rs, _, qerr := upiTab.QuerySecondary(ctx, dataset.AttrCountry, dataset.JapanCountry, qt, false)
			groupCountJournal(rs)
			return qerr
		})
		if err != nil {
			return nil, err
		}
		tailoredDur, err := coldRun(upiDisk, upiTab.DropCaches, func() error {
			rs, _, qerr := upiTab.QuerySecondary(ctx, dataset.AttrCountry, dataset.JapanCountry, qt, true)
			groupCountJournal(rs)
			return qerr
		})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{X: qt, Values: []float64{
			seconds(piiDur), seconds(plainDur), seconds(tailoredDur),
		}})
	}
	return exp, nil
}

// Fig11PointerEstimate regenerates Figure 11: the number of cutoff
// pointers a Query 1 retrieves, real versus estimated from the
// histograms, across (QT, C) combinations with QT < C.
func Fig11PointerEstimate(ctx context.Context, e *Env) (*Experiment, error) {
	d, err := e.DBLP()
	if err != nil {
		return nil, err
	}
	hist, err := histogram.Build(dataset.AttrInstitution, d.Authors)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		ID:      "fig11",
		Title:   "#Cutoff-Pointers, Real vs Estimated (Query 1, Institution=MIT)",
		XLabel:  "combo",
		Columns: []string{"Real", "Estimated"},
	}
	for _, c := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		tab, _, err := buildAuthorUPI(d.Authors, c)
		if err != nil {
			return nil, err
		}
		for _, qt := range cutoffSweepQTs {
			if qt >= c {
				continue
			}
			_, stats, err := tab.Query(ctx, dataset.MITInstitution, qt)
			if err != nil {
				return nil, err
			}
			est := hist.EstimateCutoffPointers(dataset.MITInstitution, qt, c)
			exp.Rows = append(exp.Rows, Row{
				Label:  fmt.Sprintf("C=%.2f QT=%.2f", c, qt),
				Values: []float64{float64(stats.CutoffPointers), est},
			})
		}
	}
	return exp, nil
}

// Fig12CutoffModel regenerates Figure 12: the cost model's estimated
// runtimes on the exact axes of Figure 3.
func Fig12CutoffModel(ctx context.Context, e *Env) (*Experiment, error) {
	d, err := e.DBLP()
	if err != nil {
		return nil, err
	}
	hist, err := histogram.Build(dataset.AttrInstitution, d.Authors)
	if err != nil {
		return nil, err
	}
	selective := pickSelectiveValue(d.Authors)
	exp := &Experiment{
		ID:     "fig12",
		Title:  "Cutoff Index Cost Model (estimated runtimes, same axes as fig3)",
		XLabel: "C",
		Notes:  fmt.Sprintf("modeled seconds from Section 6.3 cost model; selective value = %s", selective),
	}
	for _, qt := range cutoffSweepQTs {
		exp.Columns = append(exp.Columns, fmt.Sprintf("nonsel QT=%.2f", qt))
	}
	for _, qt := range cutoffSweepQTs {
		exp.Columns = append(exp.Columns, fmt.Sprintf("sel QT=%.2f", qt))
	}
	// One representative build to take H from; table size and leaves
	// per C come from the histogram estimates.
	refTab, _, err := buildAuthorUPI(d.Authors, defaultCutoff)
	if err != nil {
		return nil, err
	}
	for _, c := range cutoffSweepCs {
		row := Row{X: c}
		tableBytes := hist.EstimateTableBytes(c)
		params := costmodel.Params{
			Disk:       sim.DefaultParams(),
			Height:     refTab.Heap().Height(),
			TableBytes: int64(tableBytes),
			Leaves:     int64(tableBytes / float64(storage.DefaultPageSize) / 0.9),
		}
		for _, value := range []string{dataset.MITInstitution, selective} {
			for _, qt := range cutoffSweepQTs {
				// The heap scan covers entries above max(qt, C).
				scanQT := qt
				if c > scanQT {
					scanQT = c
				}
				sel := hist.EstimateEntries(value, scanQT) / hist.EstimateHeapEntriesTotal(c)
				var est time.Duration
				if qt < c {
					ptrs := hist.EstimateCutoffPointers(value, qt, c)
					est = params.CostCutoff(sel, ptrs)
				} else {
					est = params.CostSingle(sel)
				}
				row.Values = append(row.Values, seconds(est))
			}
		}
		exp.Rows = append(exp.Rows, row)
	}
	return exp, nil
}
