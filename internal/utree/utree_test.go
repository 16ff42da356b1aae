package utree

import (
	"fmt"
	"math"
	"testing"

	"upidb/internal/dataset"
	"upidb/internal/prob"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
)

func newFS() *storage.FS { return storage.NewFS(sim.NewDisk(sim.DefaultParams())) }

func smallCartel(t *testing.T, n int) *dataset.Cartel {
	t.Helper()
	cfg := dataset.DefaultCartelConfig()
	cfg.Observations = n
	cfg.GridN = 8
	c, err := dataset.GenerateCartel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// bruteQuery is the oracle: exact integration on every observation.
func bruteQuery(obs []*tuple.Observation, q prob.Point, radius, threshold float64) map[uint64]float64 {
	out := make(map[uint64]float64)
	for _, o := range obs {
		if p := o.Loc.ProbInCircle(q, radius); p >= threshold {
			out[o.ID] = p
		}
	}
	return out
}

func TestPCRAux(t *testing.T) {
	g := prob.ConstrainedGaussian{Center: prob.Point{X: 0, Y: 0}, Sigma: 20, Bound: 100}
	aux := PCRAux(g)
	for i := 1; i < len(aux); i++ {
		if aux[i] <= aux[i-1] {
			t.Fatalf("quantile radii not increasing: %v", aux)
		}
	}
	if aux[len(aux)-1] > g.Bound {
		t.Fatalf("quantile radius exceeds bound: %v", aux)
	}
}

func TestCheckPCRSoundness(t *testing.T) {
	g := prob.ConstrainedGaussian{Center: prob.Point{X: 0, Y: 0}, Sigma: 20, Bound: 100}
	aux := PCRAux(g)
	// Sweep query geometries; whenever PCR decides, the exact
	// integration must agree.
	for _, qx := range []float64{0, 30, 60, 90, 120, 160, 250} {
		for _, radius := range []float64{20, 60, 120, 200} {
			for _, th := range []float64{0.2, 0.5, 0.8} {
				q := prob.Point{X: qx, Y: 0}
				exact := g.ProbInCircle(q, radius)
				switch CheckPCR(g.Center, aux, q, radius, th) {
				case PCRAccept:
					if exact < th-0.02 {
						t.Fatalf("accept unsound: q=%v r=%v th=%v exact=%v", qx, radius, th, exact)
					}
				case PCRReject:
					if exact >= th+0.02 {
						t.Fatalf("reject unsound: q=%v r=%v th=%v exact=%v", qx, radius, th, exact)
					}
				}
			}
		}
	}
}

func TestQueryCircleMatchesBrute(t *testing.T) {
	c := smallCartel(t, 1500)
	u, err := BulkBuild(newFS(), "u", c.Observations, Options{})
	if err != nil {
		t.Fatal(err)
	}
	centers := []prob.Point{{X: 0, Y: 0}, {X: 300, Y: -200}, {X: -500, Y: 500}}
	for _, q := range centers {
		for _, radius := range []float64{150, 400} {
			for _, th := range []float64{0.3, 0.6} {
				want := bruteQuery(c.Observations, q, radius, th)
				got, stats, err := u.QueryCircle(q, radius, th)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("q=%+v r=%v th=%v: got %d want %d (stats %+v)", q, radius, th, len(got), len(want), stats)
				}
				for _, r := range got {
					wantConf, ok := want[r.Obs.ID]
					if !ok {
						t.Fatalf("unexpected result %d", r.Obs.ID)
					}
					if math.Abs(wantConf-r.Confidence) > 1e-9 {
						t.Fatalf("conf mismatch for %d", r.Obs.ID)
					}
				}
			}
		}
	}
}

func TestPCRPruningDoesWork(t *testing.T) {
	c := smallCartel(t, 2000)
	u, err := BulkBuild(newFS(), "u", c.Observations, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := u.QueryCircle(prob.Point{X: 0, Y: 0}, 300, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Candidates == 0 {
		t.Fatal("no candidates")
	}
	decided := stats.PCRAccepted + stats.PCRRejected
	if decided*3 < stats.Candidates {
		t.Fatalf("PCR decided only %d of %d candidates", decided, stats.Candidates)
	}
	if stats.Integrations >= stats.Candidates {
		t.Fatal("integration count should be reduced by PCR")
	}
}

func TestQuerySegmentMatchesBrute(t *testing.T) {
	c := smallCartel(t, 1200)
	u, err := BulkBuild(newFS(), "u", c.Observations, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Find a segment with decent traffic.
	counts := make(map[string]int)
	for _, o := range c.Observations {
		counts[o.Segment.First().Value]++
	}
	var seg string
	best := 0
	for s, n := range counts {
		if n > best {
			seg, best = s, n
		}
	}
	for _, qt := range []float64{0.1, 0.5, 0.8} {
		want := 0
		for _, o := range c.Observations {
			if o.Segment.P(seg) >= qt {
				want++
			}
		}
		got, err := u.QuerySegment(seg, qt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != want {
			t.Fatalf("segment %s qt=%v: got %d want %d", seg, qt, len(got), want)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Confidence < got[i].Confidence {
				t.Fatal("segment results not sorted by confidence desc")
			}
		}
	}
}

func TestInsertThenQuery(t *testing.T) {
	c := smallCartel(t, 300)
	u, err := BulkBuild(newFS(), "u", c.Observations[:200], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range c.Observations[200:] {
		if err := u.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	want := bruteQuery(c.Observations, prob.Point{X: 0, Y: 0}, 500, 0.4)
	got, _, err := u.QueryCircle(prob.Point{X: 0, Y: 0}, 500, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d want %d", len(got), len(want))
	}
}

func TestSizeAndCaches(t *testing.T) {
	c := smallCartel(t, 400)
	u, err := BulkBuild(newFS(), "u", c.Observations, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if u.SizeBytes() == 0 {
		t.Fatal("SizeBytes = 0")
	}
	if err := u.DropCaches(); err != nil {
		t.Fatal(err)
	}
	// Query still works from cold caches.
	if _, _, err := u.QueryCircle(prob.Point{}, 300, 0.5); err != nil {
		t.Fatal(err)
	}
}

// TestRejectsNonFiniteLocation: Insert and BulkBuild refuse an
// observation whose centre, sigma or bound is not a finite number, and
// the index answers as before.
func TestRejectsNonFiniteLocation(t *testing.T) {
	c := smallCartel(t, 300)
	fs := newFS()
	u, err := BulkBuild(fs, "u", c.Observations, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := prob.Point{X: 0, Y: 0}
	want := bruteQuery(c.Observations, q, 500, 0.4)
	n := 0
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field, set := range map[string]func(*tuple.Observation){
			"centre x": func(o *tuple.Observation) { o.Loc.Center.X = v },
			"centre y": func(o *tuple.Observation) { o.Loc.Center.Y = v },
			"sigma":    func(o *tuple.Observation) { o.Loc.Sigma = v },
			"bound":    func(o *tuple.Observation) { o.Loc.Bound = v },
		} {
			bad := *c.Observations[0]
			bad.ID = uint64(len(c.Observations) + 1000 + n)
			set(&bad)
			if err := u.Insert(&bad); err == nil {
				t.Errorf("Insert with %s = %v accepted", field, v)
			}
			n++
			obs := append(append([]*tuple.Observation(nil), c.Observations[:10]...), &bad)
			if _, err := BulkBuild(fs, fmt.Sprintf("bad%d", n), obs, Options{}); err == nil {
				t.Errorf("BulkBuild with %s = %v accepted", field, v)
			}
		}
	}
	got, _, err := u.QueryCircle(q, 500, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for _, r := range got {
		if w, ok := want[r.Obs.ID]; !ok || math.Abs(w-r.Confidence) > 1e-9 {
			t.Fatalf("result %d with confidence %v, want %v (present %v)", r.Obs.ID, r.Confidence, w, ok)
		}
	}
}
