package histogram

import (
	"math"
	"testing"

	"upidb/internal/dataset"
	"upidb/internal/prob"
	"upidb/internal/tuple"
)

func mkTuple(t *testing.T, id uint64, exist float64, alts ...prob.Alternative) *tuple.Tuple {
	t.Helper()
	d, err := prob.NewDiscrete(alts)
	if err != nil {
		t.Fatal(err)
	}
	return &tuple.Tuple{ID: id, Existence: exist, Unc: []tuple.UncField{{Name: "X", Dist: d}}}
}

func TestBuildBasics(t *testing.T) {
	tuples := []*tuple.Tuple{
		mkTuple(t, 1, 1.0, prob.Alternative{Value: "A", Prob: 0.8}, prob.Alternative{Value: "B", Prob: 0.2}),
		mkTuple(t, 2, 0.5, prob.Alternative{Value: "A", Prob: 1.0}),
	}
	h, err := Build("X", tuples)
	if err != nil {
		t.Fatal(err)
	}
	if h.TotalTuples() != 2 || h.TotalEntries() != 3 || h.DistinctValues() != 2 {
		t.Fatalf("tuples=%d entries=%d distinct=%d", h.TotalTuples(), h.TotalEntries(), h.DistinctValues())
	}
	if h.Attr() != "X" {
		t.Fatal("attr wrong")
	}
	// A has entries at conf 0.8 and 0.5.
	if got := h.EstimateEntries("A", 0.0); math.Abs(got-2) > 0.01 {
		t.Fatalf("A above 0: %v", got)
	}
	if got := h.EstimateEntries("A", 0.6); math.Abs(got-1) > 0.05 {
		t.Fatalf("A above 0.6: %v", got)
	}
	if got := h.EstimateEntries("Z", 0.1); got != 0 {
		t.Fatalf("unknown value: %v", got)
	}
	if err := errOnMissing(t); err == nil {
		t.Fatal("missing attribute accepted")
	}
}

func errOnMissing(t *testing.T) error {
	t.Helper()
	_, err := Build("Y", []*tuple.Tuple{mkTuple(t, 1, 1, prob.Alternative{Value: "A", Prob: 1})})
	return err
}

func TestEstimateCutoffPointers(t *testing.T) {
	// Non-first alternatives of value A at conf 0.05, 0.15, ..., 0.45
	// (first alternatives never produce cutoff pointers).
	var tuples []*tuple.Tuple
	for i := 0; i < 5; i++ {
		conf := 0.05 + float64(i)*0.1
		tuples = append(tuples, mkTuple(t, uint64(i+1), 1.0,
			prob.Alternative{Value: "B", Prob: 0.5},
			prob.Alternative{Value: "A", Prob: conf}))
	}
	h, err := Build("X", tuples)
	if err != nil {
		t.Fatal(err)
	}
	// Pointers with conf in [0.1, 0.4): entries at 0.15, 0.25, 0.35 = 3.
	got := h.EstimateCutoffPointers("A", 0.1, 0.4)
	if math.Abs(got-3) > 0.3 {
		t.Fatalf("pointers = %v, want ~3", got)
	}
	if h.EstimateCutoffPointers("A", 0.5, 0.4) != 0 {
		t.Fatal("qt >= cutoff should be 0")
	}
	if h.EstimateCutoffPointers("Z", 0.1, 0.4) != 0 {
		t.Fatal("unknown value should be 0")
	}
}

func TestSelectivityBounds(t *testing.T) {
	cfg := dataset.DefaultDBLPConfig()
	cfg.Authors, cfg.Publications, cfg.Institutions = 3000, 100, 300
	d, err := dataset.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(dataset.AttrInstitution, d.Authors)
	if err != nil {
		t.Fatal(err)
	}
	for _, qt := range []float64{0, 0.2, 0.5, 0.9} {
		s := h.EstimateSelectivity(dataset.MITInstitution, qt)
		if s < 0 || s > 1 {
			t.Fatalf("selectivity out of range: %v", s)
		}
	}
	// Monotone in qt.
	if h.EstimateSelectivity(dataset.MITInstitution, 0.1) < h.EstimateSelectivity(dataset.MITInstitution, 0.5) {
		t.Fatal("selectivity not monotone")
	}
}

// TestEstimateAccuracyAgainstTruth reproduces the Fig. 11 property: the
// estimated cutoff-pointer counts track the true counts closely.
func TestEstimateAccuracyAgainstTruth(t *testing.T) {
	cfg := dataset.DefaultDBLPConfig()
	cfg.Authors, cfg.Publications, cfg.Institutions = 8000, 100, 500
	d, err := dataset.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(dataset.AttrInstitution, d.Authors)
	if err != nil {
		t.Fatal(err)
	}
	for _, combo := range []struct{ qt, c float64 }{
		{0.05, 0.2}, {0.05, 0.4}, {0.15, 0.3}, {0.25, 0.45},
	} {
		truth := 0
		for _, a := range d.Authors {
			dist, _ := a.Uncertain(dataset.AttrInstitution)
			for i, alt := range dist {
				conf := a.Existence * alt.Prob
				// Cutoff entries: non-first alternatives below C...
				if i > 0 && conf < combo.c && conf >= combo.qt && alt.Value == dataset.MITInstitution {
					truth++
				}
			}
		}
		est := h.EstimateCutoffPointers(dataset.MITInstitution, combo.qt, combo.c)
		// Bucket-boundary interpolation introduces small errors; the
		// estimate must track the truth within ~15% plus slack.
		diff := math.Abs(est - float64(truth))
		if diff > 0.15*float64(truth)+5 {
			t.Fatalf("qt=%v C=%v: est %v vs truth %d", combo.qt, combo.c, est, truth)
		}
	}
}

func TestEstimateTableBytesMonotone(t *testing.T) {
	cfg := dataset.DefaultDBLPConfig()
	cfg.Authors, cfg.Publications, cfg.Institutions = 3000, 100, 300
	d, _ := dataset.GenerateDBLP(cfg)
	h, err := Build(dataset.AttrInstitution, d.Authors)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, c := range []float64{0, 0.1, 0.2, 0.3, 0.5} {
		size := h.EstimateTableBytes(c)
		if size <= 0 {
			t.Fatalf("size at C=%v is %v", c, size)
		}
		if size > prev+1 {
			t.Fatalf("size not non-increasing at C=%v: %v > %v", c, size, prev)
		}
		prev = size
	}
	// Size at C=0 should count all entries.
	all := h.EstimateTableBytes(0)
	if math.Abs(all-float64(h.totalBytes)) > 1 {
		t.Fatalf("C=0 size mismatch: %v", all)
	}
}

// histogramsAgree fails unless a and b produce identical totals and
// identical estimates for every probed value and threshold.
func histogramsAgree(t *testing.T, a, b *Histogram, values []string) {
	t.Helper()
	if a.TotalEntries() != b.TotalEntries() || a.TotalTuples() != b.TotalTuples() ||
		a.DistinctValues() != b.DistinctValues() {
		t.Fatalf("totals diverged: entries %d/%d tuples %d/%d distinct %d/%d",
			a.TotalEntries(), b.TotalEntries(), a.TotalTuples(), b.TotalTuples(),
			a.DistinctValues(), b.DistinctValues())
	}
	if a.totalBytes != b.totalBytes {
		t.Fatalf("entry bytes diverged: %d vs %d", a.totalBytes, b.totalBytes)
	}
	for _, v := range values {
		for _, qt := range []float64{0, 0.1, 0.3, 0.5, 0.8} {
			if ae, be := a.EstimateEntries(v, qt), b.EstimateEntries(v, qt); math.Abs(ae-be) > 1e-9 {
				t.Fatalf("EstimateEntries(%q, %v): %v vs %v", v, qt, ae, be)
			}
			if ap, bp := a.EstimateCutoffPointers(v, qt, 0.4), b.EstimateCutoffPointers(v, qt, 0.4); math.Abs(ap-bp) > 1e-9 {
				t.Fatalf("EstimateCutoffPointers(%q, %v): %v vs %v", v, qt, ap, bp)
			}
		}
	}
}

// TestIncrementalAddMatchesBuild: feeding tuples one by one through Add
// yields exactly the histogram Build produces from the batch.
func TestIncrementalAddMatchesBuild(t *testing.T) {
	cfg := dataset.DefaultDBLPConfig()
	cfg.Authors, cfg.Publications, cfg.Institutions = 2000, 100, 200
	d, err := dataset.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Build(dataset.AttrInstitution, d.Authors)
	if err != nil {
		t.Fatal(err)
	}
	inc := New(dataset.AttrInstitution)
	for _, a := range d.Authors {
		if !inc.Add(a) {
			t.Fatalf("tuple %d rejected", a.ID)
		}
	}
	histogramsAgree(t, batch, inc, []string{dataset.MITInstitution})
}

// TestRemoveInvertsAdd: Remove is the exact inverse of Add, so deltas
// can cancel a buffered insert without drift.
func TestRemoveInvertsAdd(t *testing.T) {
	base := []*tuple.Tuple{
		mkTuple(t, 1, 1.0, prob.Alternative{Value: "A", Prob: 0.8}, prob.Alternative{Value: "B", Prob: 0.2}),
		mkTuple(t, 2, 0.5, prob.Alternative{Value: "A", Prob: 1.0}),
	}
	want, err := Build("X", base)
	if err != nil {
		t.Fatal(err)
	}
	h := New("X")
	extra := mkTuple(t, 3, 0.7, prob.Alternative{Value: "C", Prob: 0.9}, prob.Alternative{Value: "A", Prob: 0.1})
	for _, tup := range base {
		h.Add(tup)
	}
	h.Add(extra)
	h.Remove(extra)
	histogramsAgree(t, want, h, []string{"A", "B", "C"})
	// A tuple lacking the attribute is refused without mutation.
	h2 := New("Y")
	if h2.Add(base[0]) {
		t.Fatal("Add accepted a tuple lacking the attribute")
	}
	if h2.TotalEntries() != 0 || h2.TotalTuples() != 0 {
		t.Fatal("rejected Add mutated the histogram")
	}
}

// TestConcurrentAddAndEstimate: mutations and reads race cleanly (the
// planner reads live histograms while the maintenance path mutates
// them); run with -race.
func TestConcurrentAddAndEstimate(t *testing.T) {
	h := New("X")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			h.Add(mkTuple(t, uint64(i+1), 0.9,
				prob.Alternative{Value: "A", Prob: 0.6}, prob.Alternative{Value: "B", Prob: 0.3}))
		}
	}()
	for i := 0; i < 500; i++ {
		_ = h.EstimateEntries("A", 0.2)
		_ = h.EstimateSelectivity("B", 0.1)
		_ = h.EstimateHeapEntriesTotal(0.1)
		_ = h.EstimateTableBytes(0.1)
	}
	<-done
	if h.TotalTuples() != 500 {
		t.Fatalf("tuples: %d", h.TotalTuples())
	}
}
