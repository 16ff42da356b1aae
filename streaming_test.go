package upidb

// Tests for the facade's one executor, consumed through All or drained
// by Collect/Info: rows and order against the brute-force oracle at
// every parallelism, top-k early termination savings, partial-drain
// semantics, and mid-stream cancellation.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// hotTable builds a table engineered for top-k early termination: the
// main partition holds 60 high-confidence "hot" tuples, and each of 6
// fractures holds 4 mid-confidence "hot" tuples plus 20 tuples whose
// "hot" alternative sits below the cutoff (so it lives in the
// fracture's cutoff index). A full drain of "hot" must chase every
// fracture's cutoff pointers; a top-k fills k from the main partition
// and never pulls any fracture past its first head.
func hotTable(t *testing.T, db *DB) *Table {
	t.Helper()
	setProcs(t, 1)
	hot := func(id uint64, conf float64) *Tuple {
		x, err := NewDiscrete([]Alternative{{Value: "hot", Prob: conf}})
		if err != nil {
			t.Fatal(err)
		}
		return &Tuple{ID: id, Existence: 1, Unc: []UncField{{Name: "X", Dist: x}}}
	}
	coldHot := func(id uint64) *Tuple {
		x, err := NewDiscrete([]Alternative{{Value: "cold", Prob: 0.8}, {Value: "hot", Prob: 0.1}})
		if err != nil {
			t.Fatal(err)
		}
		return &Tuple{ID: id, Existence: 1, Unc: []UncField{{Name: "X", Dist: x}}}
	}
	id := uint64(1)
	var base []*Tuple
	for i := 0; i < 60; i++ {
		base = append(base, hot(id, 0.5+float64(i)*0.008))
		id++
	}
	tab, err := db.BulkLoadTable("hottab", "X", nil, base, WithCutoff(0.15))
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 6; f++ {
		for j := 0; j < 4; j++ {
			if err := tab.Insert(hot(id, 0.2+float64(f*4+j)*0.01)); err != nil {
				t.Fatal(err)
			}
			id++
		}
		for j := 0; j < 20; j++ {
			if err := tab.Insert(coldHot(id)); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if err := tab.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// streamAll drains a fresh handle through All only, returning the
// yielded results.
func streamAll(t *testing.T, res *Results) []Result {
	t.Helper()
	var out []Result
	for r, err := range res.All() {
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		out = append(out, r)
	}
	return out
}

// TestRunStreamsGoldenVsCollect: consuming a Run through All alone,
// or through Collect alone, yields exactly the oracle's rows in the
// oracle's order — at serial, narrow and wide parallelism, across
// every query class.
func TestRunStreamsGoldenVsCollect(t *testing.T) {
	queries := []Query{
		PTQ("", "v01", 0.05),
		PTQ("", "v03", 0.4),
		PTQ("Y", "yv02", 0.1),
		PTQ("", "v02", 0.1),
		TopKQuery("v04", 7),
	}
	ctx := context.Background()
	ref := fracturedRef(t)
	for _, par := range []int{1, 2, 0} {
		db := mustCreate(t)
		tab := fracturedTable(t, db, par)
		for qi, q := range queries {
			label := fmt.Sprintf("par=%d q=%d", par, qi)
			colRes, err := tab.Run(ctx, q)
			if err != nil {
				t.Fatalf("%s collected run: %v", label, err)
			}
			checkAgainstRef(t, ref, label+" Collect", q, colRes.Collect())
			strRes, err := tab.Run(ctx, q)
			if err != nil {
				t.Fatalf("%s streaming run: %v", label, err)
			}
			got := streamAll(t, strRes)
			checkAgainstRef(t, ref, label+" All", q, got)
			// A full streamed drain spends the handle: Collect has
			// nothing to replay, and Len reports the drain.
			if again := strRes.Collect(); again != nil || strRes.Len() != len(got) {
				t.Fatalf("%s: after a full stream drain Collect = %d rows, Len = %d; want nil and %d", label, len(again), strRes.Len(), len(got))
			}
		}
	}
}

// TestRunStreamStatsMatchMaterialized: a fully drained PTQ reports the
// same execution statistics — entries scanned, partitions, buffer hits
// and exact modeled time — whether the handle is consumed through All
// or drained by Info alone, and at parallelism 1 and 4. (That the
// modeled time is the serial sum of the partitions' cold drains is
// fracture's TestStreamModeledCostMatchesCollect.)
func TestRunStreamStatsMatchMaterialized(t *testing.T) {
	ctx := context.Background()
	q := PTQ("", "v01", 0.05)
	var want QueryInfo
	for i, par := range []int{1, 4} {
		db := mustCreate(t)
		tab := fracturedTable(t, db, par)
		for _, viaAll := range []bool{false, true} {
			if err := tab.DropCaches(); err != nil {
				t.Fatal(err)
			}
			res, err := tab.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if viaAll {
				streamAll(t, res)
			}
			got := res.Info() // drains a still-pending handle
			if i == 0 && !viaAll {
				want = got
				if want.ModeledTime <= 0 || want.Partitions != 1+tab.NumFractures() {
					t.Fatalf("baseline info %+v", want)
				}
			} else if got != want {
				t.Fatalf("par=%d viaAll=%v: info %+v diverged from %+v", par, viaAll, got, want)
			}
		}
	}
}

// TestRunTopKStreamEarlyTermination: over 7 partitions, a top-k yields
// its first result — and completes, through All or through Collect —
// for strictly less modeled I/O than the full drain of the same
// value's unbounded PTQ on the same cold store, whose first k rows it
// returns.
func TestRunTopKStreamEarlyTermination(t *testing.T) {
	db := mustCreate(t)
	tab := hotTable(t, db)
	ctx := context.Background()
	q := TopKQuery("hot", 20)

	// cold runs consume against dropped caches and returns the modeled
	// disk time the consumption charged.
	cold := func(q Query, consume func(*Results)) time.Duration {
		t.Helper()
		if err := tab.DropCaches(); err != nil {
			t.Fatal(err)
		}
		before := db.DiskStats()
		res, err := tab.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		consume(res)
		return db.DiskStats().Sub(before).Elapsed
	}

	// The unbounded PTQ's default route is the clustered scan the top-k
	// uses.
	var want []Result
	fullCost := cold(PTQ("", "hot", 0), func(res *Results) { want = res.Collect() })
	if len(want) <= q.k || fullCost <= 0 {
		t.Fatalf("unbounded drain: %d rows, cost %v", len(want), fullCost)
	}
	want = want[:q.k]

	// First result costs less than the whole drain: only one head per
	// partition is needed, not any completed scan.
	var first *Result
	firstCost := cold(q, func(res *Results) {
		for r, err := range res.All() {
			if err != nil {
				t.Fatal(err)
			}
			first = &r
			break // partial drain: cancels the remaining scans
		}
	})
	if first == nil || first.Tuple.ID != want[0].Tuple.ID {
		t.Fatalf("first streamed result %+v, want ID %d", first, want[0].Tuple.ID)
	}
	if firstCost >= fullCost {
		t.Fatalf("first-result modeled cost %v not below the full drain's %v", firstCost, fullCost)
	}

	// A complete top-k returns the unbounded drain's first k rows for
	// strictly less modeled I/O — the fractures' cutoff chases never
	// happen — and Collect is charged exactly what All is.
	var streamed, collected []Result
	streamCost := cold(q, func(res *Results) { streamed = streamAll(t, res) })
	collectCost := cold(q, func(res *Results) { collected = res.Collect() })
	if !reflect.DeepEqual(streamed, want) || !reflect.DeepEqual(collected, want) {
		t.Fatalf("top-k diverged from the unbounded drain's prefix: streamed %d rows, collected %d, want %d",
			len(streamed), len(collected), len(want))
	}
	if streamCost >= fullCost || collectCost != streamCost {
		t.Fatalf("top-k cost: streamed %v, collected %v, full drain %v", streamCost, collectCost, fullCost)
	}
}

// TestRunPartialDrainSpendsHandle: breaking out of All cancels the
// remaining scans and spends the handle — a second All yields
// ErrStreamConsumed instead of silently resuming, Collect/Len report
// an empty set, and Err explains why.
func TestRunPartialDrainSpendsHandle(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	res, err := tab.Run(context.Background(), PTQ("", "v01", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 2 {
			break
		}
	}
	var second error
	for _, err := range res.All() {
		second = err
		break
	}
	if !errors.Is(second, ErrStreamConsumed) {
		t.Fatalf("second All after partial drain: %v", second)
	}
	if rs := res.Collect(); rs != nil {
		t.Fatalf("Collect after partial drain returned %d rows", len(rs))
	}
	if res.Len() != 0 {
		t.Fatalf("Len after partial drain: %d", res.Len())
	}
	if !errors.Is(res.Err(), ErrStreamConsumed) {
		t.Fatalf("Err after partial drain: %v", res.Err())
	}
	// The spent handle released its pins: the table merges cleanly and
	// a fresh query still answers.
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	fresh, err := tab.Run(context.Background(), PTQ("", "v01", 0.05))
	if err != nil || fresh.Len() == 0 {
		t.Fatalf("table broken after partial drain + merge: %v (%d rows)", err, fresh.Len())
	}
}

// TestRunMidStreamCancel: cancelling the context after n streamed
// results terminates the iterator with ErrCanceled, stops charging
// modeled I/O, and releases every partition pin (the table merges
// cleanly afterwards).
func TestRunMidStreamCancel(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := tab.Run(ctx, PTQ("", "v01", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	var (
		n         int
		streamErr error
	)
	for _, err := range res.All() {
		if err != nil {
			streamErr = err
			break
		}
		if n++; n == 3 {
			cancel() // checked between pulls: next iteration must fail
		}
	}
	if !errors.Is(streamErr, ErrCanceled) || !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled after %d rows, got %v", n, streamErr)
	}
	if n != 3 {
		t.Fatalf("stream yielded %d rows after cancellation point", n)
	}
	after := db.DiskStats()
	if !errors.Is(res.Err(), ErrCanceled) {
		t.Fatalf("Err after cancelled stream: %v", res.Err())
	}
	if rs := res.Collect(); rs != nil {
		t.Fatalf("Collect after cancelled stream returned %d rows", len(rs))
	}
	if d := db.DiskStats().Sub(after); d.Elapsed != 0 || d.BytesRead != 0 {
		t.Fatalf("cancelled stream kept charging: %v", d)
	}
	// Pins are back: merging reclaims the old generation without a
	// leak, and the table still answers.
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	fresh, err := tab.Run(context.Background(), PTQ("", "v01", 0.05))
	if err != nil || fresh.Len() == 0 {
		t.Fatalf("table broken after cancelled stream + merge: %v (%d rows)", err, fresh.Len())
	}
}

// TestResultsClose: Close on an unconsumed handle releases its pins
// without executing; the handle is spent.
func TestResultsClose(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	before := db.DiskStats()
	res, err := tab.Run(context.Background(), PTQ("", "v01", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	res.Close() // idempotent
	if d := db.DiskStats().Sub(before); d.Elapsed != 0 {
		t.Fatalf("closed-unconsumed handle charged I/O: %v", d)
	}
	if rs := res.Collect(); rs != nil {
		t.Fatalf("Collect after Close returned %d rows", len(rs))
	}
	if !errors.Is(res.Err(), ErrStreamConsumed) {
		t.Fatalf("Err after Close: %v", res.Err())
	}
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAccessorsDuringStream: calling Info/Len/Collect/Err from
// inside an in-progress All loop must not double-consume the query or
// poison the handle — they are inert mid-drain, and the stream still
// finishes cleanly with Err() == nil.
func TestRunAccessorsDuringStream(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	res, err := tab.Run(context.Background(), PTQ("", "v01", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range res.All() {
		if err != nil {
			t.Fatalf("stream failed after mid-drain accessor: %v", err)
		}
		if n++; n == 1 {
			if rs := res.Collect(); rs != nil {
				t.Fatalf("Collect mid-stream returned %d rows", len(rs))
			}
			if res.Len() != 0 {
				t.Fatalf("Len mid-stream: %d", res.Len())
			}
			if err := res.Err(); err != nil {
				t.Fatalf("Err mid-stream: %v", err)
			}
			_ = res.Info() // must not force a second execution
			// A re-entrant All must refuse rather than double-consume.
			for _, err := range res.All() {
				if !errors.Is(err, ErrStreamConsumed) {
					t.Fatalf("re-entrant All: %v", err)
				}
				break
			}
		}
	}
	if n == 0 {
		t.Fatal("stream yielded nothing")
	}
	if res.Err() != nil {
		t.Fatalf("Err after clean drain: %v", res.Err())
	}
	if got := res.Len(); got != n {
		t.Fatalf("Len after drain: %d, streamed %d", got, n)
	}
}

// TestRunStreamsManyValues is a broader golden sweep: every value of
// the fractured table streams identically to its materialized run.
func TestRunStreamsManyValues(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 2)
	ctx := context.Background()
	for v := 0; v < 7; v++ {
		for _, qt := range []float64{0.05, 0.3, 0.6} {
			q := PTQ("", fmt.Sprintf("v%02d", v), qt)
			matRes, err := tab.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			want := matRes.Collect()
			strRes, err := tab.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got := streamAll(t, strRes)
			if len(got) != len(want) {
				t.Fatalf("v%02d qt=%v: %d streamed vs %d collected", v, qt, len(got), len(want))
			}
			for i := range got {
				if got[i].Tuple.ID != want[i].Tuple.ID {
					t.Fatalf("v%02d qt=%v row %d: %d vs %d", v, qt, i, got[i].Tuple.ID, want[i].Tuple.ID)
				}
			}
		}
	}
}
