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
