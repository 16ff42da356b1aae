package cupi

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"sync"
	"testing"

	"upidb/internal/prob"
	"upidb/internal/rtree"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// testObs builds a deterministic observation with two segment
// alternatives (so the segment-index stage of Insert has a mid-point
// to fail at).
func testObs(id uint64) *tuple.Observation {
	x := float64(id%100) * 10
	y := float64((id/100)%100) * 10
	seg, err := prob.NewDiscrete([]prob.Alternative{
		{Value: fmt.Sprintf("s%02d", id%7), Prob: 0.7},
		{Value: fmt.Sprintf("s%02d", (id+1)%7), Prob: 0.3},
	})
	if err != nil {
		panic(err)
	}
	return &tuple.Observation{
		ID:      id,
		Loc:     prob.ConstrainedGaussian{Center: prob.Point{X: x, Y: y}, Sigma: 5, Bound: 15},
		Segment: seg,
	}
}

// queryAll returns every committed observation of the table via a
// saturating circle query.
func queryAll(t *testing.T, tab *Table) map[uint64]float64 {
	t.Helper()
	rs, _, err := tab.QueryCircle(context.Background(), prob.Point{X: 500, Y: 500}, 1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]float64, len(rs))
	for _, r := range rs {
		if _, dup := out[r.Obs.ID]; dup {
			t.Fatalf("duplicate result for observation %d", r.Obs.ID)
		}
		out[r.Obs.ID] = r.Confidence
	}
	return out
}

// TestInsertAllOrNothing drives the Insert error path at every stage
// and checks the failed insert is invisible to both query paths,
// retryable, and leaves no phantom or duplicate results behind.
func TestInsertAllOrNothing(t *testing.T) {
	injected := errors.New("injected")
	for _, stage := range []string{"heap", "rtree", "seg:0", "seg:1"} {
		t.Run(stage, func(t *testing.T) {
			var base []*tuple.Observation
			for id := uint64(1); id <= 40; id++ {
				base = append(base, testObs(id))
			}
			tab, err := BulkBuild(newFS(), "a", base, Options{})
			if err != nil {
				t.Fatal(err)
			}
			o := testObs(1000)
			tab.insertFail = func(s string) error {
				if s == stage {
					return injected
				}
				return nil
			}
			if err := tab.Insert(o); !errors.Is(err, injected) {
				t.Fatalf("Insert: got %v, want injected failure", err)
			}
			// The failed insert must be invisible on both paths.
			if all := queryAll(t, tab); len(all) != 40 {
				t.Fatalf("after failed insert: %d visible observations, want 40", len(all))
			}
			for _, a := range o.Segment {
				rs, _, err := tab.QuerySegment(context.Background(), a.Value, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					if r.Obs.ID == o.ID {
						t.Fatalf("stage %s: phantom segment result for failed insert", stage)
					}
				}
			}
			// Retry without the failpoint must succeed and become
			// visible exactly once everywhere.
			tab.insertFail = nil
			if err := tab.Insert(o); err != nil {
				t.Fatalf("retry: %v", err)
			}
			all := queryAll(t, tab)
			if len(all) != 41 {
				t.Fatalf("after retry: %d visible observations, want 41", len(all))
			}
			if _, ok := all[o.ID]; !ok {
				t.Fatalf("retried insert not visible")
			}
			found := 0
			rs, _, err := tab.QuerySegment(context.Background(), o.Segment.First().Value, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				if r.Obs.ID == o.ID {
					found++
				}
			}
			if found != 1 {
				t.Fatalf("retried insert appears %d times in segment results, want 1", found)
			}
			// The circle route agrees with a brute force over the
			// observations this test committed: the failed insert's
			// leftovers change no confidence.
			if want := bruteQuery(append(base, o), prob.Point{X: 500, Y: 500}, 1e6, 0); !maps.Equal(all, want) {
				t.Fatalf("after retry: circle results differ from the brute force over the committed observations")
			}
		})
	}
}

// TestRetriedInsertStreamsOnce fails an insert after its R-Tree entry
// is written, retries it at the same location, and drains a
// CircleCursor over the whole extent: the observation must stream
// exactly once, though the R-Tree now holds it twice. Without a failed
// insert the R-Tree holds every ID once. Either way the drained cursor
// returns exactly QueryCircle's rows.
func TestRetriedInsertStreamsOnce(t *testing.T) {
	ctx := context.Background()
	center := prob.Point{X: 500, Y: 500}
	everywhere := prob.Rect{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}
	const radius = 1e6
	injected := errors.New("injected")
	for _, stage := range []string{"none", "rtree", "seg:0"} {
		t.Run(stage, func(t *testing.T) {
			var base []*tuple.Observation
			for id := uint64(1); id <= 40; id++ {
				base = append(base, testObs(id))
			}
			tab, err := BulkBuild(newFS(), "a", base, Options{})
			if err != nil {
				t.Fatal(err)
			}
			o := testObs(1000)
			if stage != "none" {
				tab.insertFail = func(s string) error {
					if s == stage {
						return injected
					}
					return nil
				}
				if err := tab.Insert(o); !errors.Is(err, injected) {
					t.Fatalf("Insert: got %v, want injected failure", err)
				}
				tab.insertFail = nil
			}
			if err := tab.Insert(o); err != nil {
				t.Fatal(err)
			}
			entries := 0
			if err := tab.RTree().Search(everywhere, func(e rtree.Entry) bool {
				if obsIDAt(t, tab, e.Data) == o.ID {
					entries++
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if want := map[bool]int{true: 1, false: 2}[stage == "none"]; entries != want {
				t.Fatalf("the R-Tree holds observation %d %d times, want %d", o.ID, entries, want)
			}

			streamed, _, err := drainCursor(tab.CircleCursor(ctx, center, radius, 0))
			if err != nil {
				t.Fatal(err)
			}
			found := 0
			for _, r := range streamed {
				if r.Obs.ID == o.ID {
					found++
				}
			}
			if found != 1 || len(streamed) != len(base)+1 {
				t.Fatalf("drained cursor: %d rows, observation %d among them %d times; want %d rows, it once", len(streamed), o.ID, found, len(base)+1)
			}
			want, _, err := tab.QueryCircle(ctx, center, radius, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(streamed) != len(want) {
				t.Fatalf("drained cursor: %d rows, QueryCircle %d", len(streamed), len(want))
			}
			for i := range want {
				if streamed[i].Obs.ID != want[i].Obs.ID || streamed[i].Confidence != want[i].Confidence {
					t.Fatalf("row %d: cursor (%d, %v), QueryCircle (%d, %v)", i, streamed[i].Obs.ID, streamed[i].Confidence, want[i].Obs.ID, want[i].Confidence)
				}
			}
		})
	}
}

// TestCursorsMatchMaterialized checks every cursor against its
// materialized counterpart: same result set, and for the segment
// cursor the exact same order.
func TestCursorsMatchMaterialized(t *testing.T) {
	c := smallCartel(t, 1200)
	tab, err := BulkBuild(newFS(), "c", c.Observations[:1000], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range c.Observations[1000:] {
		if err := tab.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	q := prob.Point{X: 200, Y: -100}
	const radius, th = 400, 0.4

	drain := func(cur *Cursor) []Result {
		t.Helper()
		var out []Result
		for {
			r, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			out = append(out, r)
		}
	}
	asSet := func(rs []Result) map[uint64]float64 {
		m := make(map[uint64]float64, len(rs))
		for _, r := range rs {
			m[r.Obs.ID] = r.Confidence
		}
		return m
	}
	sameSet := func(what string, a, b []Result) {
		t.Helper()
		sa, sb := asSet(a), asSet(b)
		if len(a) != len(b) || len(sa) != len(sb) {
			t.Fatalf("%s: %d results vs %d", what, len(a), len(b))
		}
		for id, conf := range sa {
			if bc, ok := sb[id]; !ok || math.Abs(bc-conf) > 1e-12 {
				t.Fatalf("%s: observation %d mismatch", what, id)
			}
		}
	}

	want, _, err := tab.QueryCircle(ctx, q, radius, th)
	if err != nil {
		t.Fatal(err)
	}
	sameSet("CircleCursor", drain(tab.CircleCursor(ctx, q, radius, th)), want)
	// The reference is a brute force over the observations loaded.
	loaded := c.Observations[:1200]
	sameBrute := func(what string, got []Result, brute map[uint64]float64) {
		t.Helper()
		if len(got) == 0 {
			t.Fatalf("%s: no results; the check is vacuous", what)
		}
		if gs := asSet(got); len(got) != len(brute) || len(gs) != len(brute) {
			t.Fatalf("%s: %d results, brute force %d", what, len(got), len(brute))
		}
		for _, r := range got {
			if bc, ok := brute[r.Obs.ID]; !ok || math.Abs(bc-r.Confidence) > 1e-12 {
				t.Fatalf("%s: observation %d confidence %v, brute force %v (present %v)", what, r.Obs.ID, r.Confidence, bc, ok)
			}
		}
	}
	sameBrute("QueryCircle vs brute force", want, bruteQuery(loaded, q, radius, th))

	seg := c.Observations[0].Segment.First().Value
	const qt = 0.25
	segWant, _, err := tab.QuerySegment(ctx, seg, qt)
	if err != nil {
		t.Fatal(err)
	}
	segGot := drain(tab.SegmentCursor(ctx, seg, qt))
	if len(segGot) != len(segWant) {
		t.Fatalf("SegmentCursor: %d results vs %d", len(segGot), len(segWant))
	}
	for i := range segGot {
		if segGot[i].Obs.ID != segWant[i].Obs.ID || segGot[i].Confidence != segWant[i].Confidence {
			t.Fatalf("SegmentCursor order parity broken at %d: %d vs %d",
				i, segGot[i].Obs.ID, segWant[i].Obs.ID)
		}
	}
	segBrute := make(map[uint64]float64)
	for _, o := range loaded {
		if p := o.Segment.P(seg); p > 0 && p >= qt {
			segBrute[o.ID] = p
		}
	}
	sameBrute("QuerySegment vs brute force", segWant, segBrute)

	// Abandoning a cursor mid-drain must release the read lock so a
	// writer can proceed.
	cur := tab.CircleCursor(ctx, q, radius, th)
	if _, ok, err := cur.Next(); err != nil || !ok {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}
	cur.Close()
	if err := tab.Insert(testObs(999_999)); err != nil {
		t.Fatalf("insert after abandoned cursor: %v", err)
	}
}

// TestCloseSemantics: a closed table fails every operation with
// upi.ErrClosed, including a cursor's first pull.
func TestCloseSemantics(t *testing.T) {
	c := smallCartel(t, 200)
	tab, err := BulkBuild(newFS(), "c", c.Observations, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	ctx := context.Background()
	if err := tab.Insert(testObs(1_000_000)); !errors.Is(err, upi.ErrClosed) {
		t.Fatalf("Insert after Close: %v", err)
	}
	if _, _, err := tab.QueryCircle(ctx, prob.Point{}, 100, 0.5); !errors.Is(err, upi.ErrClosed) {
		t.Fatalf("QueryCircle after Close: %v", err)
	}
	if _, _, err := tab.QuerySegment(ctx, "s", 0.5); !errors.Is(err, upi.ErrClosed) {
		t.Fatalf("QuerySegment after Close: %v", err)
	}
	cur := tab.CircleCursor(ctx, prob.Point{}, 100, 0.5)
	if _, _, err := cur.Next(); !errors.Is(err, upi.ErrClosed) {
		t.Fatalf("cursor pull after Close: %v", err)
	}
}

// TestConcurrentInsertAndQuery is the package-level race net: inserts
// race circle and segment queries. Run with -race; against the
// pre-lock Table this fails immediately with a data-race report.
func TestConcurrentInsertAndQuery(t *testing.T) {
	var base []*tuple.Observation
	for id := uint64(1); id <= 300; id++ {
		base = append(base, testObs(id))
	}
	tab, err := BulkBuild(newFS(), "c", base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				if err := tab.Insert(testObs(uint64(10_000 + w*1000 + i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if _, _, err := tab.QueryCircle(ctx, prob.Point{X: 300, Y: 300}, 500, 0.3); err != nil {
					errs <- err
					return
				}
				if _, _, err := tab.QuerySegment(ctx, "s03", 0.2); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if all := queryAll(t, tab); len(all) != 300+2*150 {
		t.Fatalf("final count %d, want %d", len(all), 300+2*150)
	}
}

// TestFailedInsertRetryWithNewLocation: an insert that fails after the
// R-Tree stage leaves a stale entry for the old location; a retry of
// the same ID with a *different* location must not let the stale
// entry's PCR decision (or its dedup slot) leak wrong results into
// circle queries around either location.
func TestFailedInsertRetryWithNewLocation(t *testing.T) {
	var base []*tuple.Observation
	for id := uint64(1); id <= 30; id++ {
		base = append(base, testObs(id))
	}
	tab, err := BulkBuild(newFS(), "a", base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected")
	oldLoc := prob.ConstrainedGaussian{Center: prob.Point{X: 5000, Y: 5000}, Sigma: 2, Bound: 6}
	o := testObs(777)
	o.Loc = oldLoc
	tab.insertFail = func(s string) error {
		if s == "seg:0" {
			return injected
		}
		return nil
	}
	if err := tab.Insert(o); !errors.Is(err, injected) {
		t.Fatalf("Insert: %v", err)
	}
	tab.insertFail = nil
	// Retry far away from the stale entry's location.
	o2 := testObs(777)
	o2.Loc = prob.ConstrainedGaussian{Center: prob.Point{X: 8000, Y: 8000}, Sigma: 2, Bound: 6}
	if err := tab.Insert(o2); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// A tight query around the OLD location: the stale R-Tree entry is
	// a PCR-accept there, but the committed observation is far away and
	// must not appear.
	rs, _, err := tab.QueryCircle(ctx, prob.Point{X: 5000, Y: 5000}, 50, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Obs.ID == 777 {
			t.Fatalf("relocated observation leaked into a query around its failed insert's location (conf %v)", r.Confidence)
		}
	}
	// Around the NEW location it must appear exactly once.
	rs, _, err = tab.QueryCircle(ctx, prob.Point{X: 8000, Y: 8000}, 50, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, r := range rs {
		if r.Obs.ID == 777 {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("relocated observation found %d times around its committed location, want 1", found)
	}
	// The streaming path applies the same stale-entry discipline.
	cur := tab.CircleCursor(ctx, prob.Point{X: 5000, Y: 5000}, 50, 0.5)
	for {
		r, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if r.Obs.ID == 777 {
			t.Fatalf("relocated observation leaked into the streamed query")
		}
	}
}

// TestCursorStopsOnCancel: a cursor whose context is cancelled after its
// first row fails with upi.ErrCanceled wrapping context.Canceled, having
// fetched at most ctxCheckEvery more rows, on the circle and the
// segment route.
func TestCursorStopsOnCancel(t *testing.T) {
	c := smallCartel(t, 5000)
	tab, err := BulkBuild(newFS(), "c", c.Observations, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := tab.rt.MaxEntries(); n > ctxCheckEvery {
		t.Fatalf("an R-Tree leaf holds %d entries, more than the %d fetches the circle cursor may make between two context checks", n, ctxCheckEvery)
	}
	seg := busiestSegment(c.Observations)
	for name, open := range map[string]func(context.Context) *Cursor{
		"circle":  func(ctx context.Context) *Cursor { return tab.CircleCursor(ctx, prob.Point{X: 100, Y: -50}, 400, 0.01) },
		"segment": func(ctx context.Context) *Cursor { return tab.SegmentCursor(ctx, seg, 0.01) },
	} {
		t.Run(name, func(t *testing.T) {
			_, all, err := drainCursor(open(context.Background()))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cur := open(ctx)
			defer cur.Close()
			if _, ok, err := cur.Next(); !ok || err != nil {
				t.Fatalf("first pull: ok=%v err=%v", ok, err)
			}
			first := cur.Stats().Fetched
			if all.Fetched-first <= ctxCheckEvery {
				t.Fatalf("the query fetches %d rows after its first, want more than %d", all.Fetched-first, ctxCheckEvery)
			}
			cancel()
			for ok := true; ok; {
				_, ok, err = cur.Next()
			}
			if !errors.Is(err, upi.ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled cursor ended with %v, want upi.ErrCanceled and context.Canceled", err)
			}
			if more := cur.Stats().Fetched - first; more > ctxCheckEvery {
				t.Fatalf("%d rows fetched after the cancel, want at most %d", more, ctxCheckEvery)
			}
		})
	}
}
