package upidb

// Facade tests for spatial Run parity: golden equivalence of the
// planner-routed Run(ctx, Circle/Segment) against the default fixed
// routing, PlanSource reporting,
// streamed-vs-collected parity, deadline admission with zero modeled
// I/O, and the DB.Close contract on spatial tables.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"upidb/internal/dataset"
	"upidb/internal/utree"
)

func spatialFixture(t testing.TB, n int) (*DB, *SpatialTable, *dataset.Cartel) {
	t.Helper()
	cfg := dataset.DefaultCartelConfig()
	cfg.Observations = n
	cfg.GridN = 12
	c, err := dataset.GenerateCartel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := mustCreate(t)
	tab, err := db.BulkLoadSpatial("cars", c.Observations)
	if err != nil {
		t.Fatal(err)
	}
	return db, tab, c
}

// busySegment returns the most frequent first-choice segment value.
func busySegment(c *dataset.Cartel) string {
	counts := make(map[string]int)
	for _, o := range c.Observations {
		counts[o.Segment.First().Value]++
	}
	seg, best := "", 0
	for s, n := range counts {
		if n > best {
			seg, best = s, n
		}
	}
	return seg
}

func sameSpatialResults(t *testing.T, what string, got, want []SpatialResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results vs %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Obs.ID != want[i].Obs.ID || math.Abs(got[i].Confidence-want[i].Confidence) > 1e-12 {
			t.Fatalf("%s: result %d differs: (%d, %v) vs (%d, %v)", what, i,
				got[i].Obs.ID, got[i].Confidence, want[i].Obs.ID, want[i].Confidence)
		}
	}
}

// TestSpatialRunGolden: Run(ctx, Circle/Segment) WithPlanner must
// return results identical to the default fixed routing on a golden
// workload, each reporting its own PlanSource.
func TestSpatialRunGolden(t *testing.T) {
	_, tab, c := spatialFixture(t, 4000)
	ctx := context.Background()
	if si := tab.StatsInfo(); !si.Seeded || si.Observations != int64(len(c.Observations)) {
		t.Fatalf("stats info %+v", si)
	}

	center := c.Extent.Center()
	for _, radius := range []float64{120, 400, 900} {
		for _, th := range []float64{0.3, 0.6} {
			hres, err := tab.Run(ctx, Circle(center, radius, th))
			if err != nil {
				t.Fatal(err)
			}
			legacy := hres.Collect()
			if info := hres.Info(); info.PlanSource != PlanSourceHeuristic || info.Plan != "" {
				t.Fatalf("default circle r=%v: source %q plan %q", radius, info.PlanSource, info.Plan)
			}
			res, err := tab.Run(ctx, Circle(center, radius, th).WithPlanner())
			if err != nil {
				t.Fatal(err)
			}
			sameSpatialResults(t, "circle", res.Collect(), legacy)
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
			if src := res.Info().PlanSource; src != PlanSourceForced {
				t.Fatalf("circle r=%v PlanSource %q, want %q", radius, src, PlanSourceForced)
			}
			if res.Info().Plan == "" {
				t.Fatalf("planner-routed run reported no plan")
			}
		}
	}

	seg := busySegment(c)
	for _, qt := range []float64{0.2, 0.5, 0.8} {
		hres, err := tab.Run(ctx, Segment(seg, qt))
		if err != nil {
			t.Fatal(err)
		}
		legacy := hres.Collect()
		if src := hres.Info().PlanSource; src != PlanSourceHeuristic {
			t.Fatalf("default segment qt=%v PlanSource %q", qt, src)
		}
		res, err := tab.Run(ctx, Segment(seg, qt).WithPlanner())
		if err != nil {
			t.Fatal(err)
		}
		sameSpatialResults(t, "segment", res.Collect(), legacy)
		if src := res.Info().PlanSource; src != PlanSourceForced {
			t.Fatalf("segment qt=%v PlanSource %q, want %q", qt, src, PlanSourceForced)
		}
		if len(legacy) > 0 && res.Info().HeapEntries == 0 {
			t.Fatalf("segment qt=%v reported zero heap entries for %d results", qt, len(legacy))
		}
	}
}

// TestSpatialStreamParity: the streamed and materialized consumptions
// must agree — exactly (order included) for segment-index streams,
// and as canonical sets for refinement-ordered circle streams.
func TestSpatialStreamParity(t *testing.T) {
	_, tab, c := spatialFixture(t, 3000)
	ctx := context.Background()
	center := c.Extent.Center()

	drain := func(r *SpatialResults) []SpatialResult {
		t.Helper()
		var out []SpatialResult
		for res, err := range r.All() {
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}

	// Segment on the index plan (the default route — the planner may
	// legitimately route an unselective segment query to a full scan,
	// whose stream is heap-ordered): exact order parity, because the
	// index streams in the canonical confidence order.
	seg := busySegment(c)
	sq := Segment(seg, 0.3)
	collected, err := tab.Run(ctx, sq)
	if err != nil {
		t.Fatal(err)
	}
	want := collected.Collect()
	streamedRes, err := tab.Run(ctx, sq)
	if err != nil {
		t.Fatal(err)
	}
	streamed := drain(streamedRes)
	sameSpatialResults(t, "segment stream order", streamed, want)
	// The planner's route must produce the same canonical set.
	planned, err := tab.Run(ctx, sq.WithPlanner())
	if err != nil {
		t.Fatal(err)
	}
	sameSpatialResults(t, "segment planned vs default", planned.Collect(), want)
	// A fully drained handle is spent: Collect returns nil, Len reports
	// the drain.
	if got := streamedRes.Collect(); got != nil {
		t.Fatalf("Collect after a full drain = %d results, want nil", len(got))
	}
	if streamedRes.Len() != len(want) {
		t.Fatalf("Len %d want %d", streamedRes.Len(), len(want))
	}

	// Circle: the stream yields in refinement order; canonical
	// re-sorting must equal the materialized drain exactly.
	cq := Circle(center, 500, 0.4)
	cRes, err := tab.Run(ctx, cq)
	if err != nil {
		t.Fatal(err)
	}
	cWant := cRes.Collect()
	cStreamRes, err := tab.Run(ctx, cq)
	if err != nil {
		t.Fatal(err)
	}
	cStreamed := drain(cStreamRes)
	utree.SortResults(cStreamed)
	sameSpatialResults(t, "circle canonical parity", cStreamed, cWant)
	if len(cWant) < 5 {
		t.Fatalf("workload too selective (%d results) to exercise streaming", len(cWant))
	}

	// Partial drain spends the handle.
	pRes, err := tab.Run(ctx, cq)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range pRes.All() {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 2 {
			break
		}
	}
	for _, err := range pRes.All() {
		if !errors.Is(err, ErrStreamConsumed) {
			t.Fatalf("second All after partial drain: %v", err)
		}
	}
	if pRes.Collect() != nil || pRes.Len() != 0 || !errors.Is(pRes.Err(), ErrStreamConsumed) {
		t.Fatalf("partial drain not spent: len=%d err=%v", pRes.Len(), pRes.Err())
	}
}

// TestSpatialAdmission: under WithPlanner a deadline below the cheapest
// plan's modeled cost must be refused with ErrCanceled before any
// modeled I/O; the default route is not priced and runs.
func TestSpatialAdmission(t *testing.T) {
	db, tab, c := spatialFixture(t, 2500)
	if err := tab.tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	before := db.DiskStats()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	// Every plan costs at least Costinit = 100 ms modeled, far above
	// the 5 ms deadline.
	_, err := tab.Run(ctx, Circle(c.Extent.Center(), 300, 0.5).WithPlanner())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("admission: %v", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("refusal must not claim the deadline already expired: %v", err)
	}
	_, err = tab.Run(ctx, Segment(busySegment(c), 0.5).WithPlanner())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("segment admission: %v", err)
	}
	after := db.DiskStats()
	if d := after.Sub(before); d.BytesRead != 0 || d.Seeks != 0 || d.Elapsed != 0 {
		t.Fatalf("admission refusal charged I/O: %+v", d)
	}
	// The same deadline on the default route bounds real time only.
	long, cancelLong := context.WithTimeout(context.Background(), 90*time.Millisecond)
	defer cancelLong()
	res, err := tab.Run(long, Segment(busySegment(c), 0.5))
	if err != nil || res.Err() != nil || res.Len() == 0 {
		t.Fatalf("unpriced segment under a deadline below its modeled cost: %v / %v, %d rows", err, res.Err(), res.Len())
	}
}

// TestSpatialExplainAndStats: WithExplain costs plans without
// executing; WithStats reports a positive modeled time for a real run.
func TestSpatialExplainAndStats(t *testing.T) {
	db, tab, c := spatialFixture(t, 2500)
	ctx := context.Background()
	center := c.Extent.Center()

	before := db.DiskStats()
	res, err := tab.Run(ctx, Circle(center, 300, 0.5).WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Info().Explain
	if !strings.HasPrefix(ex, "routing: fixed rule, RTreeProbe") || res.Info().Plan != "RTreeProbe" ||
		!strings.Contains(ex, "RTreeProbe") || !strings.Contains(ex, "SpatialFullScan") {
		t.Fatalf("explain output:\n%s", ex)
	}
	if res.Len() != 0 {
		t.Fatalf("explain executed the query")
	}
	if d := db.DiskStats().Sub(before); d.BytesRead != 0 {
		t.Fatalf("explain charged I/O: %+v", d)
	}

	if err := tab.tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	run, err := tab.Run(ctx, Circle(center, 300, 0.5).WithStats())
	if err != nil {
		t.Fatal(err)
	}
	run.Collect()
	if run.Info().ModeledTime <= 0 {
		t.Fatalf("WithStats modeled time %v", run.Info().ModeledTime)
	}
	if run.Info().Partitions != 1 {
		t.Fatalf("partitions %d", run.Info().Partitions)
	}
}

// TestSpatialClose: after DB.Close, every spatial entry point fails
// with ErrClosed — the PR-3 contract extended to spatial tables.
func TestSpatialClose(t *testing.T) {
	db, tab, c := spatialFixture(t, 500)
	ctx := context.Background()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(c.Observations[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: %v", err)
	}
	if _, err := tab.Run(ctx, Circle(Point{}, 100, 0.5)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: %v", err)
	}
	if _, err := tab.Run(ctx, Segment("s", 0.5)); !errors.Is(err, ErrClosed) {
		t.Fatalf("segment Run after Close: %v", err)
	}
	if _, err := db.BulkLoadSpatial("more", c.Observations); !errors.Is(err, ErrClosed) {
		t.Fatalf("BulkLoadSpatial after Close: %v", err)
	}
}

// TestSpatialKindRouting: spatial descriptors are rejected by
// Table.Run and discrete descriptors by SpatialTable.Run.
func TestSpatialKindRouting(t *testing.T) {
	db, stab, _ := spatialFixture(t, 300)
	ctx := context.Background()
	dtab, err := db.CreateTable("d", "X", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dtab.Run(ctx, Circle(Point{}, 10, 0.5)); err == nil || !strings.Contains(err.Error(), "spatial") {
		t.Fatalf("discrete Run accepted a Circle query: %v", err)
	}
	if _, err := stab.Run(ctx, PTQ("", "v", 0.5)); err == nil || !strings.Contains(err.Error(), "not a spatial") {
		t.Fatalf("spatial Run accepted a PTQ: %v", err)
	}
}

// TestSpatialRejectsNonFiniteLocation: an observation whose centre,
// sigma or bound is NaN or infinite is refused by Insert and by
// BulkLoadSpatial, and leaves the table answering as before (a NaN
// bound used to reach the R-Tree and panic in its insert).
func TestSpatialRejectsNonFiniteLocation(t *testing.T) {
	db, tab, c := spatialFixture(t, 2000)
	ctx := context.Background()
	circle := func() []SpatialResult {
		t.Helper()
		res, err := tab.Run(ctx, Circle(c.Extent.Center(), 400, 0.3))
		if err != nil {
			t.Fatal(err)
		}
		out := res.Collect()
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	before, info := circle(), tab.StatsInfo()
	if len(before) == 0 {
		t.Fatal("the circle query finds nothing")
	}
	n := 0
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field, set := range map[string]func(*Observation){
			"centre x": func(o *Observation) { o.Loc.Center.X = v },
			"centre y": func(o *Observation) { o.Loc.Center.Y = v },
			"sigma":    func(o *Observation) { o.Loc.Sigma = v },
			"bound":    func(o *Observation) { o.Loc.Bound = v },
		} {
			bad := *c.Observations[0]
			bad.ID = uint64(len(c.Observations) + 1000 + n)
			set(&bad)
			if err := tab.Insert(&bad); err == nil {
				t.Errorf("Insert with %s = %v accepted", field, v)
			}
			obs := append(append([]*Observation(nil), c.Observations[:10]...), &bad)
			n++
			if _, err := db.BulkLoadSpatial(fmt.Sprintf("bad%d", n), obs); err == nil {
				t.Errorf("BulkLoadSpatial with %s = %v accepted", field, v)
			}
		}
	}
	sameSpatialResults(t, "circle after refused inserts", circle(), before)
	if got := tab.StatsInfo(); got != info {
		t.Fatalf("statistics moved: %+v, was %+v", got, info)
	}
}
