package upidb

// Tests for the unified Run API: cancellation and deadline semantics,
// typed sentinels, closed tables, streaming-vs-Collect equivalence,
// modeled costs that do not depend on the fan-out width, and deadline
// admission of WithPlanner runs.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// fracturedTuple builds one two-alternative tuple of the fracturedTable
// recipe.
func fracturedTuple(t testing.TB, id uint64, v int, p float64) *Tuple {
	t.Helper()
	val := func(i int) string { return fmt.Sprintf("v%02d", i%7) }
	x, err := NewDiscrete([]Alternative{{Value: val(v), Prob: p}, {Value: val(v + 1), Prob: (1 - p) * 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	y, err := NewDiscrete([]Alternative{{Value: "y" + val(v), Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return &Tuple{ID: id, Existence: 0.9, Unc: []UncField{{Name: "X", Dist: x}, {Name: "Y", Dist: y}}}
}

// fracturedBase is the bulk load of the fracturedTable recipe.
func fracturedBase(t testing.TB) []*Tuple {
	var base []*Tuple
	for i := 0; i < 120; i++ {
		base = append(base, fracturedTuple(t, uint64(i+1), i, 0.3+float64(i%60)/100))
	}
	return base
}

// fracturedMutate applies the rest of the recipe to m — the table, or
// the oracle: four batches of inserts with a delete and a flush each,
// then inserts and a delete left pending in the RAM buffer.
func fracturedMutate(t testing.TB, m interface {
	Insert(*Tuple) error
	Delete(uint64) error
	Flush() error
}) {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	next := uint64(1000)
	for f := 0; f < 4; f++ {
		for i := 0; i < 25; i++ {
			check(m.Insert(fracturedTuple(t, next, int(next), 0.4+float64(int(next)%50)/100)))
			next++
		}
		check(m.Delete(uint64(f*10 + 1)))
		check(m.Flush())
	}
	for i := 0; i < 10; i++ {
		check(m.Insert(fracturedTuple(t, next, int(next), 0.5)))
		next++
	}
	check(m.Delete(55))
}

// hostProcs is the GOMAXPROCS the test binary started with.
var hostProcs = runtime.GOMAXPROCS(0)

// setProcs runs the rest of the test at GOMAXPROCS(n) (0 = the host's)
// — the one thing that sets how many workers a query's first pull
// opens its partition cursors with — and restores the previous value
// when the test ends.
func setProcs(t testing.TB, n int) {
	t.Helper()
	if n <= 0 {
		n = hostProcs
	}
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// fracturedTable builds a table with a bulk-loaded main, several
// fractures, pending deletes and a RAM buffer, so queries cross every
// partition type. The rest of the test queries it at fan-out width par
// (see setProcs).
func fracturedTable(t *testing.T, db *DB, par int) *Table {
	t.Helper()
	setProcs(t, par)
	tab, err := db.BulkLoadTable(fmt.Sprintf("runtest%d", par), "X", []string{"Y"},
		fracturedBase(t), WithCutoff(0.15))
	if err != nil {
		t.Fatal(err)
	}
	fracturedMutate(t, tab)
	return tab
}

// The oracle takes the same mutations a table does.
func (r *refTable) Insert(tup *Tuple) error { r.live[tup.ID] = tup; return nil }
func (r *refTable) Delete(id uint64) error  { delete(r.live, id); return nil }
func (r *refTable) Flush() error            { return nil }

// fracturedRef is the oracle for fracturedTable: the live tuples its
// recipe leaves behind, queried by brute force.
func fracturedRef(t testing.TB) *refTable {
	ref := &refTable{live: make(map[uint64]*Tuple)}
	for _, tup := range fracturedBase(t) {
		ref.live[tup.ID] = tup
	}
	fracturedMutate(t, ref)
	return ref
}

// checkAgainstRef fails unless got is exactly the oracle's answer to q
// on a table whose primary attribute is X: the same IDs in the same
// order, with the oracle's confidences.
func checkAgainstRef(t *testing.T, ref *refTable, label string, q Query, got []Result) {
	t.Helper()
	attr := q.attr
	if attr == "" {
		attr = "X"
	}
	want := ref.query(attr, q.value, q.qt)
	if q.kind == KindTopK {
		if want = ref.query(attr, q.value, 0); len(want) > q.k {
			want = want[:q.k]
		}
	}
	if len(want) == 0 {
		t.Fatalf("%s: oracle is empty; check vacuous", label)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, oracle has %d", label, len(got), len(want))
	}
	for i, r := range got {
		conf := ref.live[want[i]].Confidence(attr, q.value)
		if r.Tuple.ID != want[i] || math.Abs(r.Confidence-conf) > 1e-9 {
			t.Fatalf("%s row %d: got %d/%v, oracle has %d/%v", label, i, r.Tuple.ID, r.Confidence, want[i], conf)
		}
	}
}

// TestRunCanceledContext: a Run launched with an already-cancelled
// context fails with ErrCanceled immediately — no modeled I/O charged,
// no results, and well under a millisecond of wall clock.
func TestRunCanceledContext(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := db.DiskStats()
	start := time.Now()
	_, err := tab.Run(ctx, PTQ("", "v01", 0.1))
	wall := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should wrap context.Canceled: %v", err)
	}
	if d := db.DiskStats().Sub(before); d.Elapsed != 0 || d.BytesRead != 0 || d.FileOpens != 0 {
		t.Fatalf("cancelled query charged modeled I/O: %v", d)
	}
	// The acceptance bound is 1 ms; allow headroom for a loaded CI
	// host — the path is a single atomic context check.
	if wall > 50*time.Millisecond {
		t.Fatalf("cancelled query took %v", wall)
	}
}

// TestRunDeadlineExceeded: an expired deadline behaves like a cancel
// but wraps context.DeadlineExceeded.
func TestRunDeadlineExceeded(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := tab.Run(ctx, TopKQuery("v01", 3))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled wrapping DeadlineExceeded, got %v", err)
	}
}

// TestRunUnknownAttr: querying an unindexed attribute fails with the
// typed sentinel at the facade, before any partition work.
func TestRunUnknownAttr(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	if _, err := tab.Run(context.Background(), PTQ("Nope", "x", 0.1)); !errors.Is(err, ErrUnknownAttr) {
		t.Fatalf("want ErrUnknownAttr, got %v", err)
	}
}

// TestRunClosed: after Close, queries and mutations fail with
// ErrClosed; Close is idempotent.
func TestRunClosed(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Run(context.Background(), PTQ("", "v01", 0.1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: %v", err)
	}
	d, _ := NewDiscrete([]Alternative{{Value: "v01", Prob: 1}})
	if err := tab.Insert(&Tuple{ID: 9999, Existence: 1, Unc: []UncField{{Name: "X", Dist: d}, {Name: "Y", Dist: d}}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: %v", err)
	}
	if err := tab.Delete(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close: %v", err)
	}
	if err := tab.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: %v", err)
	}
	if err := tab.Merge(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Merge after Close: %v", err)
	}
	if err := tab.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestRunStreamingMatchesCollect: at every parallelism setting, All
// yields exactly the tuples Collect returns, in identical order, and
// both match the serial baseline.
func TestRunStreamingMatchesCollect(t *testing.T) {
	queries := []Query{
		PTQ("", "v01", 0.05),
		PTQ("", "v03", 0.4),
		PTQ("Y", "yv02", 0.1),
		TopKQuery("v04", 7),
	}
	type key struct {
		id   uint64
		conf float64
	}
	baseline := make(map[int][]key)
	for _, par := range []int{1, 2, 4, 0} {
		db := mustCreate(t)
		tab := fracturedTable(t, db, par)
		for qi, q := range queries {
			res, err := tab.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("par=%d q=%d: %v", par, qi, err)
			}
			collected := res.Collect()
			res, err = tab.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("par=%d q=%d: %v", par, qi, err)
			}
			var streamed []key
			for r, err := range res.All() {
				if err != nil {
					t.Fatalf("par=%d q=%d stream: %v", par, qi, err)
				}
				streamed = append(streamed, key{r.Tuple.ID, r.Confidence})
			}
			if len(streamed) != len(collected) {
				t.Fatalf("par=%d q=%d: stream %d vs collect %d", par, qi, len(streamed), len(collected))
			}
			for i, k := range streamed {
				if collected[i].Tuple.ID != k.id || collected[i].Confidence != k.conf {
					t.Fatalf("par=%d q=%d row %d: stream %+v vs collect %+v", par, qi, i, k, collected[i])
				}
			}
			if par == 1 {
				baseline[qi] = streamed
			} else if !reflect.DeepEqual(baseline[qi], streamed) {
				t.Fatalf("par=%d q=%d: diverged from serial baseline", par, qi)
			}
		}
	}
}

// TestRunModeledCostParallelismInvariant: WithStats reports the same
// modeled time at every fan-out width (the tape-replay guarantee
// surfaced through the new API).
func TestRunModeledCostParallelismInvariant(t *testing.T) {
	var want time.Duration
	for i, par := range []int{1, 3, 8} {
		db := mustCreate(t)
		tab := fracturedTable(t, db, par)
		if err := tab.DropCaches(); err != nil {
			t.Fatal(err)
		}
		res, err := tab.Run(context.Background(), PTQ("", "v01", 0.05).WithStats())
		if err != nil {
			t.Fatal(err)
		}
		got := res.Info().ModeledTime
		if got <= 0 {
			t.Fatalf("par=%d: no modeled time measured", par)
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("par=%d: modeled %v != serial %v", par, got, want)
		}
	}
}

// TestRunDeadlineAdmission: a WithPlanner Run whose remaining deadline
// is below the cheapest plan's modeled cost is refused up front —
// ErrCanceled, zero modeled I/O, zero pinned partitions — while a
// generous deadline admits the same query, and the default route under
// the short deadline is not priced at all: it runs.
func TestRunDeadlineAdmission(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if si := tab.StatsInfo(); !si.Seeded {
		t.Fatalf("table should have histograms: %+v", si)
	}
	// The table spans 5 partitions; every plan models at least 4 file
	// opens (100 ms each), so 200 ms of wall deadline can never cover
	// the modeled service time.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	before := db.DiskStats()
	_, err := tab.Run(ctx, PTQ("", "v01", 0.05).WithPlanner())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled from admission, got %v", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("admission should refuse before the deadline expires: %v", err)
	}
	if d := db.DiskStats().Sub(before); d.Elapsed != 0 || d.BytesRead != 0 || d.FileOpens != 0 {
		t.Fatalf("refused query charged modeled I/O: %v", d)
	}
	// Zero pinned partitions: a merge right after the refusal must be
	// able to remove the old generation's files immediately.
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	if db.fs.Exists("runtest0.main0.upi.heap") {
		t.Fatal("old main generation survived the merge: the refused query leaked a pin")
	}
	// The default route never asked to be priced in modeled seconds: the
	// same deadline bounds its real time only.
	res, err := tab.Run(ctx, PTQ("", "v01", 0.05))
	if err != nil || res.Err() != nil || res.Len() == 0 {
		t.Fatalf("unpriced query under the short deadline: %v / %v, %d results", err, res.Err(), res.Len())
	}
	// A deadline with headroom admits and completes the same query.
	ctxOK, cancelOK := context.WithTimeout(context.Background(), time.Hour)
	defer cancelOK()
	res, err = tab.Run(ctxOK, PTQ("", "v01", 0.05).WithPlanner())
	if err != nil || res.Len() == 0 {
		t.Fatalf("admitted query: %v, %d results", err, res.Len())
	}
	if res.Info().PlanSource != PlanSourceForced {
		t.Fatalf("admitted query source: %q", res.Info().PlanSource)
	}
}
