package upidb

// Facade tests for spatial Run: golden equivalence of Run(ctx,
// Circle/Segment) with a brute force over the loaded observations,
// streamed-vs-collected parity, deadlines that bound real time only,
// and the DB.Close contract on spatial tables.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"upidb/internal/cupi"
	"upidb/internal/dataset"
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

// TestSpatialRunGolden: Run(ctx, Circle/Segment) returns exactly the
// brute force over the loaded observations — ProbInCircle and
// Segment.P of each, filtered at the threshold, in the canonical order
// — and reports no plan.
func TestSpatialRunGolden(t *testing.T) {
	_, tab, c := spatialFixture(t, 4000)
	ctx := context.Background()
	brute := func(p func(*Observation) float64, th float64) []SpatialResult {
		var out []SpatialResult
		for _, o := range c.Observations {
			if conf := p(o); conf > 0 && conf >= th {
				out = append(out, SpatialResult{Obs: o, Confidence: conf})
			}
		}
		cupi.SortResults(out)
		return out
	}
	check := func(what string, q Query, want []SpatialResult) {
		t.Helper()
		res, err := tab.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameSpatialResults(t, what, res.Collect(), want)
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		if info := res.Info(); info.Plan != "" || (len(want) > 0 && info.HeapEntries == 0) {
			t.Fatalf("%s: implausible info %+v for %d results", what, info, len(want))
		}
	}

	center := c.Extent.Center()
	total := 0
	for _, radius := range []float64{120, 400, 900} {
		for _, th := range []float64{0.3, 0.6} {
			want := brute(func(o *Observation) float64 { return o.Loc.ProbInCircle(center, radius) }, th)
			check(fmt.Sprintf("circle r=%v qt=%v", radius, th), Circle(center, radius, th), want)
			total += len(want)
		}
	}
	seg := busySegment(c)
	for _, qt := range []float64{0.2, 0.5, 0.8} {
		want := brute(func(o *Observation) float64 { return o.Segment.P(seg) }, qt)
		check(fmt.Sprintf("segment qt=%v", qt), Segment(seg, qt), want)
		total += len(want)
	}
	if total == 0 {
		t.Fatal("no query has an answer; the golden check is vacuous")
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

	// Segment: exact order parity, because the segment index streams in
	// the canonical confidence order.
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
	cupi.SortResults(cStreamed)
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

// TestSpatialAdmission: nothing is priced. A deadline below a
// query's modeled cost (every spatial query models at least a 100 ms
// file open) bounds real time only: the circle and the segment query
// answer in full. A deadline already past is refused with ErrCanceled
// before any modeled I/O.
func TestSpatialAdmission(t *testing.T) {
	db, tab, c := spatialFixture(t, 2500)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Millisecond)
	defer cancel()
	for _, q := range []Query{Circle(c.Extent.Center(), 300, 0.5), Segment(busySegment(c), 0.5)} {
		if err := tab.tab.DropCaches(); err != nil {
			t.Fatal(err)
		}
		res, err := tab.Run(ctx, q)
		if err != nil || res.Len() == 0 || res.Err() != nil {
			t.Fatalf("%v under a deadline below its modeled cost: %v / %v, %d rows", q.kind, err, res.Err(), res.Len())
		}
		if m := res.Info().ModeledTime; m <= 90*time.Millisecond {
			t.Fatalf("%v: modeled cost %v; the deadline was meant to be below it", q.kind, m)
		}
	}

	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	if err := tab.tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	before := db.DiskStats()
	for _, q := range []Query{Circle(c.Extent.Center(), 300, 0.5), Segment(busySegment(c), 0.5)} {
		if _, err := tab.Run(expired, q); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v under an expired deadline: %v", q.kind, err)
		}
	}
	if d := db.DiskStats().Sub(before); d.BytesRead != 0 || d.Seeks != 0 || d.Elapsed != 0 {
		t.Fatalf("refused queries charged I/O: %+v", d)
	}
}

// TestSpatialExplainAndStats: WithExplain names the route without
// executing; a real run reports a positive modeled time.
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
		strings.Contains(ex, "FullScan") {
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
	run, err := tab.Run(ctx, Circle(center, 300, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	run.Collect()
	if run.Info().ModeledTime <= 0 {
		t.Fatalf("modeled time %v", run.Info().ModeledTime)
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
	before := circle()
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
}
