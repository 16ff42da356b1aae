package cupi

// A circle query integrates a fetched row before decoding it and reads
// R-Tree pages in place. These tests hold every circle route to a brute
// force over the committed observations, and a corrupt heap record to
// failing the query even when the row would have been rejected.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"upidb/internal/prob"
	"upidb/internal/storage"
	"upidb/internal/tuple"
)

func TestCircleRoutesMatchBruteForce(t *testing.T) {
	c := smallCartel(t, 1200)
	tab, err := BulkBuild(newFS(), "c", c.Observations[:1000], Options{})
	if err != nil {
		t.Fatal(err)
	}
	committed := append([]*tuple.Observation(nil), c.Observations[:1000]...)
	for _, o := range c.Observations[1000:] {
		if err := tab.Insert(o); err != nil {
			t.Fatal(err)
		}
		committed = append(committed, o)
	}
	// A stale-MBR row: its first insert fails after the R-Tree stage and
	// leaves an entry at staleAt; the retry commits it 45 m away. Around
	// staleAt the leftover entry is a PCR accept, while the committed
	// location holds roughly half its mass in the circle, so only the
	// exact integration may decide it.
	staleAt := prob.Point{X: 3000, Y: 3000}
	injected := errors.New("injected")
	moved := testObs(555_555)
	moved.Loc = prob.ConstrainedGaussian{Center: staleAt, Sigma: 2, Bound: 6}
	tab.insertFail = func(stage string) error {
		if stage == "seg:0" {
			return injected
		}
		return nil
	}
	if err := tab.Insert(moved); !errors.Is(err, injected) {
		t.Fatalf("Insert: %v", err)
	}
	tab.insertFail = nil
	retry := testObs(555_555)
	retry.Loc = prob.ConstrainedGaussian{Center: prob.Point{X: 3045, Y: 3000}, Sigma: 20, Bound: 60}
	if err := tab.Insert(retry); err != nil {
		t.Fatal(err)
	}
	committed = append(committed, retry)
	// And a row every PCR accepts outright, beside it.
	inside := testObs(555_556)
	inside.Loc = prob.ConstrainedGaussian{Center: prob.Point{X: 3010, Y: 3010}, Sigma: 2, Bound: 6}
	if err := tab.Insert(inside); err != nil {
		t.Fatal(err)
	}
	committed = append(committed, inside)
	byID := make(map[uint64]*tuple.Observation, len(committed))
	for _, o := range committed {
		byID[o.ID] = o
	}

	ctx := context.Background()
	type query struct {
		q         prob.Point
		radius    float64
		threshold float64
	}
	queries := []query{
		{staleAt, 50, 0.3},  // the relocated row qualifies on integration
		{staleAt, 50, 0.75}, // and here it must not, whatever its stale entry says
		{prob.Point{X: 0, Y: 0}, 150, 0.3},
		{prob.Point{X: 400, Y: 300}, 400, 0.6},
		{prob.Point{X: -250, Y: 120}, 90, 0.05},
		{prob.Point{X: 200, Y: -100}, 2500, 0.95}, // most of the extent
	}
	accepted := 0
	for _, qu := range queries {
		want := bruteQuery(committed, qu.q, qu.radius, qu.threshold)
		mat, matStats, err := tab.QueryCircle(ctx, qu.q, qu.radius, qu.threshold)
		if err != nil {
			t.Fatal(err)
		}
		accepted += matStats.PCRAccepted
		// drainCursor puts the stream's refinement order into canonical order.
		streamed, curStats, err := drainCursor(tab.CircleCursor(ctx, qu.q, qu.radius, qu.threshold))
		if err != nil {
			t.Fatal(err)
		}
		if curStats != matStats {
			t.Errorf("%+v: CircleCursor stats %+v, QueryCircle stats %+v", qu, curStats, matStats)
		}
		for route, got := range map[string][]Result{"QueryCircle": mat, "CircleCursor": streamed} {
			if len(got) != len(want) {
				t.Fatalf("%+v: %s returned %d results, brute force %d", qu, route, len(got), len(want))
			}
			for i, r := range got {
				conf, ok := want[r.Obs.ID]
				if !ok || conf != r.Confidence {
					t.Fatalf("%+v: %s result %d has confidence %v, brute force %v (present %v)", qu, route, r.Obs.ID, r.Confidence, conf, ok)
				}
				if !reflect.DeepEqual(r.Obs, byID[r.Obs.ID]) {
					t.Fatalf("%+v: %s decoded observation %d as %+v, stored %+v", qu, route, r.Obs.ID, r.Obs, byID[r.Obs.ID])
				}
				if !reflect.DeepEqual(r, mat[i]) {
					t.Fatalf("%+v: %s differs from QueryCircle at position %d of the canonical order", qu, route, i)
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no query had a PCR-accepted candidate; the accept path went untested")
	}
	// The two queries around the stale entry disagree about the row,
	// which is the point of them.
	if _, ok := bruteQuery(committed, staleAt, 50, 0.3)[retry.ID]; !ok {
		t.Fatal("the relocated row does not qualify at threshold 0.3")
	}
	if _, ok := bruteQuery(committed, staleAt, 50, 0.75)[retry.ID]; ok {
		t.Fatal("the relocated row qualifies at threshold 0.75")
	}
}

// TestCircleRoutesMatchBruteForceAtEveryThreshold runs both routes on
// both layouts at thresholds from 1e-9 to 1 against the brute force,
// over the cartel and over hand-placed rows around a far, wide query
// disk. Each placed row's half-plane bound lands within 1e-6 of one of
// the thresholds, on both sides of prob.CircleTolerance below it, so the
// margin decides whether the row is integrated. Results must equal the
// brute force bit for bit, and on the far query the bound must refuse
// exactly the undecided rows whose bound lies more than the margin
// below the threshold.
func TestCircleRoutesMatchBruteForceAtEveryThreshold(t *testing.T) {
	const sigma, bound, radius = 20.0, 100.0, 5000.0
	far := prob.Point{X: 20000, Y: 0}
	thresholds := []float64{1e-9, 0.05, 0.3, 0.5, 0.7, 0.95, 1}
	tol := prob.CircleTolerance
	var (
		placed []*tuple.Observation
		bounds []float64 // each placed row's half-plane bound on the far query
	)
	for _, th := range thresholds {
		for _, off := range []float64{-1e-6, -1.5 * tol, -0.5 * tol, 0.5 * tol, 1e-6} {
			b := th + off
			if b <= 0 || b >= 0.5 { // a half-plane bound lies in (0, ½)
				continue
			}
			// ½·erfc(gap/σ√2) = b, with the row gap beyond the disk's edge.
			gap := sigma * math.Sqrt2 * math.Erfcinv(2*b)
			angle := 0.01 * float64(len(placed)) // on the side away from the cartel
			o := testObs(900_000 + uint64(len(placed)))
			o.Loc = prob.ConstrainedGaussian{
				Center: prob.Point{X: far.X + (radius+gap)*math.Cos(angle), Y: far.Y + (radius+gap)*math.Sin(angle)},
				Sigma:  sigma,
				Bound:  bound,
			}
			if _, ok := o.Loc.ProbInCircleAtLeast(far, radius, th); ok != (b >= th-tol) {
				t.Fatalf("row placed for bound %v at threshold %v: ProbInCircleAtLeast ok = %v", b, th, ok)
			}
			placed, bounds = append(placed, o), append(bounds, b)
		}
	}
	obs := append(smallCartel(t, 1200).Observations, placed...)
	byID := make(map[uint64]*tuple.Observation, len(obs))
	for _, o := range obs {
		byID[o.ID] = o
	}
	type query struct {
		q      prob.Point
		radius float64
	}
	queries := []query{{far, radius}, {prob.Point{X: 0, Y: 0}, 400}, {prob.Point{X: 300, Y: -200}, 150}}
	ctx := context.Background()
	eachLayout(t, func(t *testing.T, opts Options) {
		tab, err := BulkBuild(newFS(), "c", obs, opts)
		if err != nil {
			t.Fatal(err)
		}
		bounded := 0
		for _, th := range thresholds {
			for _, qu := range queries {
				want := bruteQuery(obs, qu.q, qu.radius, th)
				mat, matStats, err := tab.QueryCircle(ctx, qu.q, qu.radius, th)
				if err != nil {
					t.Fatal(err)
				}
				streamed, curStats, err := drainCursor(tab.CircleCursor(ctx, qu.q, qu.radius, th))
				if err != nil {
					t.Fatal(err)
				}
				if curStats != matStats {
					t.Errorf("%+v at %v: CircleCursor stats %+v, QueryCircle stats %+v", qu, th, curStats, matStats)
				}
				if matStats.Integrations+matStats.Bounded != matStats.Fetched {
					t.Errorf("%+v at %v: stats %+v: integrations and bound rejections do not add up to the fetches", qu, th, matStats)
				}
				for route, got := range map[string][]Result{"QueryCircle": mat, "CircleCursor": streamed} {
					if len(got) != len(want) {
						t.Fatalf("%+v at %v: %s returned %d results, brute force %d", qu, th, route, len(got), len(want))
					}
					for i, r := range got {
						if conf, ok := want[r.Obs.ID]; !ok || conf != r.Confidence {
							t.Fatalf("%+v at %v: %s result %d has confidence %v, brute force %v (present %v)", qu, th, route, r.Obs.ID, r.Confidence, conf, ok)
						}
						if !reflect.DeepEqual(r.Obs, byID[r.Obs.ID]) || !reflect.DeepEqual(r, mat[i]) {
							t.Fatalf("%+v at %v: %s result %d differs from the stored row or from QueryCircle", qu, th, route, i)
						}
					}
				}
				if qu.q != far {
					continue
				}
				// On the far query only placed rows are candidates.
				refused := 0
				for i, o := range placed {
					undecided := o.Loc.MBR().Intersects(queryRect(far, radius)) &&
						checkPCR(o.Loc.MBR().Center(), pcrAux(o.Loc), far, radius, th) == pcrUndecided
					if undecided && bounds[i] < th-tol {
						refused++
					}
				}
				if matStats.Bounded != refused {
					t.Errorf("far query at %v: the bound refused %d rows, want %d", th, matStats.Bounded, refused)
				}
				bounded += refused
			}
		}
		if bounded == 0 {
			t.Fatal("the bound refused no placed row; the margin went untested")
		}
	})
}

// TestTruncatedRecordFailsRejectingQuery truncates one heap record in
// place and runs a circle query whose candidates include that row but
// whose threshold it would not have met: the query must fail on every
// route rather than skip the row it can no longer read.
func TestTruncatedRecordFailsRejectingQuery(t *testing.T) {
	var obs []*tuple.Observation
	for id := uint64(1); id <= 60; id++ {
		obs = append(obs, testObs(id))
	}
	tab, err := BulkBuild(newFS(), "t", obs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	victim := obs[30]
	// The circle's edge runs through the victim's centre: about half its
	// mass inside, no PCR decides it, and 0.9 rejects it.
	q := prob.Point{X: victim.Loc.Center.X + 12, Y: victim.Loc.Center.Y}
	const radius, threshold = 12, 0.9
	ctx := context.Background()
	routes := map[string]func() ([]Result, error){
		"QueryCircle": func() ([]Result, error) {
			rs, _, err := tab.QueryCircle(ctx, q, radius, threshold)
			return rs, err
		},
		"CircleCursor": func() ([]Result, error) {
			rs, _, err := drainCursor(tab.CircleCursor(ctx, q, radius, threshold))
			return rs, err
		},
	}
	for name, run := range routes {
		rs, err := run()
		if err != nil {
			t.Fatalf("%s on the intact table: %v", name, err)
		}
		for _, r := range rs {
			if r.Obs.ID == victim.ID {
				t.Fatalf("%s: the victim qualifies (confidence %v); the query was meant to reject it", name, r.Confidence)
			}
		}
	}
	_, stats, err := tab.QueryCircle(ctx, q, radius, threshold)
	if err != nil || stats.Integrations == 0 {
		t.Fatalf("intact query integrated %d candidates (err %v); the victim was never fetched", stats.Integrations, err)
	}

	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	rid := rowOf(t, tab, victim.ID)
	pager := tab.heap.Pager()
	cached, err := pager.Read(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Clone(cached)
	lenOff := 4 + int(rid.Slot)*4 + 2 // heap page header, slot table, the slot's length
	length := binary.BigEndian.Uint16(page[lenOff:])
	binary.BigEndian.PutUint16(page[lenOff:], length-5)
	if err := pager.Write(rid.Page, page); err != nil {
		t.Fatal(err)
	}
	for name, run := range routes {
		if _, err := run(); err == nil || !strings.Contains(err.Error(), "tuple: decode observation: short buffer") {
			t.Errorf("%s over the truncated record: error %v, want the decode error", name, err)
		}
	}
}

func BenchmarkCircleCursor(b *testing.B) {
	c := smallCartel(b, 5000)
	tab, err := BulkBuild(newFS(), "c", c.Observations, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	q := prob.Point{X: 100, Y: -50}
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, _, err := drainCursor(tab.CircleCursor(ctx, q, 200, 0.5))
		if err != nil {
			b.Fatal(err)
		}
		rows += len(rs)
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

// BenchmarkCircleFarCandidates drains a circle whose edge runs between
// the road grid's lines: of 124 fetched candidates the PCRs decide none
// and 11 qualify, so nearly every fetch is a rejection, most of them by
// the half-plane bound rather than the kernel.
func BenchmarkCircleFarCandidates(b *testing.B) {
	c := smallCartel(b, 5000)
	tab, err := BulkBuild(newFS(), "c", c.Observations, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var rows, bounded, integrated int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, st, err := drainCursor(tab.CircleCursor(ctx, prob.Point{}, 100, 0.5))
		if err != nil {
			b.Fatal(err)
		}
		rows, bounded, integrated = rows+len(rs), bounded+st.Bounded, integrated+st.Integrations
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
	b.ReportMetric(float64(bounded)/float64(b.N), "bounded/op")
	b.ReportMetric(float64(integrated)/float64(b.N), "integrated/op")
}

// BenchmarkCircleCursorParallel drains BenchmarkCircleCursor's query
// from every GOMAXPROCS goroutine at once over one table whose files
// share one buffer pool, where heap fetches meet on the pool's lock.
func BenchmarkCircleCursorParallel(b *testing.B) {
	c := smallCartel(b, 5000)
	fs := newFS()
	fs.SetPool(storage.NewPool(32 << 20))
	tab, err := BulkBuild(fs, "c", c.Observations, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	q := prob.Point{X: 100, Y: -50}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := drainCursor(tab.CircleCursor(ctx, q, 200, 0.5)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkSegmentCursor drains a segment PTQ on the busiest segment:
// an index entry, then a heap fetch, per row.
func BenchmarkSegmentCursor(b *testing.B) {
	c := smallCartel(b, 5000)
	tab, err := BulkBuild(newFS(), "c", c.Observations, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	seg := busiestSegment(c.Observations)
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, _, err := drainCursor(tab.SegmentCursor(ctx, seg, 0.1))
		if err != nil {
			b.Fatal(err)
		}
		rows += len(rs)
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

// drainCursor exhausts a cursor into a canonically sorted slice — the
// bridge from the pull-based executors back to the materialized call
// shape (same results, stats and I/O as consuming the cursor).
func drainCursor(c *Cursor) ([]Result, Stats, error) {
	defer c.Close()
	var out []Result
	for {
		r, ok, err := c.Next()
		if err != nil {
			return nil, c.stats, err
		}
		if !ok {
			break
		}
		out = append(out, r)
	}
	SortResults(out)
	return out, c.stats, nil
}
