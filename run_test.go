package upidb

// Tests for the unified Run API: cancellation and deadline semantics,
// typed sentinels, closed tables, streaming-vs-Collect equivalence,
// modeled costs that do not depend on GOMAXPROCS, and the one
// fixed route every query takes (WithExplain names it).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
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
// and restores the previous value when the test ends. A query opens its
// partitions on the caller's goroutine at any n; the tests that loop
// over n check that nothing they report moves with it.
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
// partition type. The rest of the test queries it at GOMAXPROCS par
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

// TestRunRefusesNaNThreshold: a NaN threshold used to match nothing in
// the RAM buffer and everything below the cutoff on disk, so the same
// PTQ answered 0 rows before a Flush and 5 after. Run refuses it on
// both sides of the flush, and SpatialTable.Run refuses it and a
// circle that is not a finite point and radius.
func TestRunRefusesNaNThreshold(t *testing.T) {
	ctx := context.Background()
	db := mustCreate(t)
	tab, err := db.CreateTable("t", "X", nil, WithCutoff(0.2))
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewDiscrete([]Alternative{{Value: "a", Prob: 0.9}, {Value: "b", Prob: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 5; id++ {
		if err := tab.Insert(&Tuple{ID: id, Existence: 1, Unc: []UncField{{Name: "X", Dist: x}}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, stage := range []string{"buffered", "flushed"} {
		if stage == "flushed" {
			if err := tab.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if res, err := tab.Run(ctx, PTQ("", "b", math.NaN())); err == nil || !strings.Contains(err.Error(), "threshold") {
			n := -1
			if res != nil {
				n = res.Len()
			}
			t.Fatalf("%s: NaN threshold: error %v (%d rows), want one naming the threshold", stage, err, n)
		}
		if keys := collectKeys(t, tab, PTQ("", "b", 0.1)); len(keys) != 5 {
			t.Fatalf("%s: PTQ b >= 0.1 returned %d rows, want 5", stage, len(keys))
		}
	}

	_, sp, c := spatialFixture(t, 200)
	at := c.Extent.Center()
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []struct {
		q     Query
		field string
	}{
		{Circle(at, 100, nan), "threshold"},
		{Segment(busySegment(c), nan), "threshold"},
		{Circle(Point{X: nan, Y: at.Y}, 100, 0.5), "centre"},
		{Circle(Point{X: at.X, Y: -inf}, 100, 0.5), "centre"},
		{Circle(at, nan, 0.5), "radius"},
		{Circle(at, inf, 0.5), "radius"},
		{Circle(at, -1, 0.5), "radius"},
	} {
		if _, err := sp.Run(ctx, bad.q); err == nil || !strings.Contains(err.Error(), bad.field) {
			t.Errorf("%v: error %v, want one naming the %s", bad.q.kind, err, bad.field)
		}
	}
	if _, err := sp.Run(ctx, Circle(at, 0, 0.5)); err != nil {
		t.Fatalf("zero radius refused: %v", err)
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

// TestRunModeledCostParallelismInvariant: Info reports the same
// modeled time at every GOMAXPROCS (the tape-replay guarantee surfaced
// through the new API).
func TestRunModeledCostParallelismInvariant(t *testing.T) {
	var want time.Duration
	for i, par := range []int{1, 3, 8} {
		db := mustCreate(t)
		tab := fracturedTable(t, db, par)
		if err := tab.DropCaches(); err != nil {
			t.Fatal(err)
		}
		res, err := tab.Run(context.Background(), PTQ("", "v01", 0.05))
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

// TestRunDeadlineAdmission: nothing is priced. A deadline below the
// query's modeled cost, and far above its real time, admits the query
// and it answers in full; a deadline already past is refused with
// ErrCanceled before any modeled I/O is charged or any partition
// pinned.
func TestRunDeadlineAdmission(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 0)
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	// The table spans 5 partitions, each a 100 ms modeled file open.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	res, err := tab.Run(ctx, PTQ("", "v01", 0.05))
	if err != nil || res.Len() == 0 || res.Err() != nil {
		t.Fatalf("query under a deadline below its modeled cost: %v / %v, %d results", err, res.Err(), res.Len())
	}
	if m := res.Info().ModeledTime; m <= 200*time.Millisecond {
		t.Fatalf("modeled cost %v; the deadline was meant to be below it", m)
	}

	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	before := db.DiskStats()
	_, err = tab.Run(expired, PTQ("", "v01", 0.05))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v, want ErrCanceled wrapping DeadlineExceeded", err)
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
}

// TestDefaultRunDoesNotPlan: on a bulk-loaded table a default Run
// reports no plan, the database exposes no planner or admission family,
// and Run + Close allocates what the stream set-up allocates; a default
// circle and segment report no plan either.
func TestDefaultRunDoesNotPlan(t *testing.T) {
	db := mustCreate(t)
	var load []*Tuple
	for i := 0; i < 200; i++ {
		load = append(load, shardTestTuple(t, uint64(i+1), i+1))
	}
	tab, err := db.BulkLoadTable("plain", "X", []string{"Y"}, load, WithCutoff(0.15))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range []Query{PTQ("", "v03", 0.2), PTQ("", "v03", 0.05), PTQ("Y", "yv02", 0.5), TopKQuery("v03", 5)} {
		res, err := tab.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Len(); n == 0 {
			t.Fatalf("%v: no rows; check vacuous", q.kind)
		}
		if info := res.Info(); info.Plan != "" || info.Explain != "" {
			t.Fatalf("default %v: plan %q explain %q, want none", q.kind, info.Plan, info.Explain)
		}
	}
	var b strings.Builder
	if err := db.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"upidb_planner_", "upidb_admission_"} {
		if strings.Contains(b.String(), gone) {
			t.Errorf("exposition still carries a %s family", gone)
		}
	}
	// Run + Close is validation, one dispatch count per shard and the
	// snapshot pin: it does not grow with the table.
	q := PTQ("", "v03", 0.2)
	allocs := testing.AllocsPerRun(100, func() {
		res, err := tab.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
	})
	if allocs > 20 {
		t.Errorf("default Run+Close allocates %.0f times, want <= 20", allocs)
	}

	_, cars, c := spatialFixture(t, 400)
	for _, q := range []Query{Circle(c.Extent.Center(), 400, 0.3), Segment(busySegment(c), 0.2)} {
		res, err := cars.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Len(); n == 0 {
			t.Fatalf("%v: no rows; check vacuous", q.kind)
		}
		if info := res.Info(); info.Plan != "" || info.Explain != "" {
			t.Fatalf("default %v: plan %q explain %q, want none", q.kind, info.Plan, info.Explain)
		}
	}
}

// explainQueries are the PTQ and top-k shapes the explain tests list on
// the exampleTuples tables (cutoff 0.1), with the route each takes.
var explainQueries = []struct {
	q      Query
	route  string
	cutoff bool // the listing mentions the cutoff-index chase
}{
	{PTQ("Institution", "MIT", 0.3), "PrimaryScan", false},
	{PTQ("", "MIT", 0.05), "PrimaryScan", true},
	{PTQ("Country", "Japan", 0.3), "SecondaryTailored", false},
	{TopKQuery("MIT", 2), "TopKScan", false},
}

// explainOf returns the Explain listing of q on tab.
func explainOf(t *testing.T, tab *Table, q Query) string {
	t.Helper()
	res, err := tab.Run(context.Background(), q.WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	return res.Info().Explain
}

// explainAll lists every explainQueries shape on tab.
func explainAll(t *testing.T, tab *Table) []string {
	t.Helper()
	var out []string
	for _, c := range explainQueries {
		out = append(out, explainOf(t, tab, c.q))
	}
	return out
}

// TestFacadeExplain: WithExplain names the fixed rule's route for every
// query kind — a primary PTQ above and below the cutoff, a secondary
// PTQ, a top-k, a circle and a segment — and takes it nowhere: nothing
// executes, no modeled I/O is charged and no partition is pinned.
func TestFacadeExplain(t *testing.T) {
	db := mustCreate(t)
	tuples := exampleTuples(t)
	ctx := context.Background()
	authors, err := db.BulkLoadTable("authors", "Institution", []string{"Country"}, tuples, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range explainQueries {
		before := db.DiskStats()
		res, err := authors.Run(ctx, c.q.WithExplain())
		if err != nil {
			t.Fatalf("%v: %v", c.q.kind, err)
		}
		info := res.Info()
		if info.Plan != c.route || !strings.HasPrefix(info.Explain, "routing: fixed rule, "+c.route+"\n") ||
			strings.Contains(info.Explain, "cutoff index") != c.cutoff {
			t.Fatalf("%v: plan %q, explain %q, want route %s", c.q.kind, info.Plan, info.Explain, c.route)
		}
		if d := db.DiskStats().Sub(before); d != (DiskStats{}) {
			t.Fatalf("%v: explain charged modeled I/O: %+v", c.q.kind, d)
		}
		if info.Partitions != 0 || res.Len() != 0 || res.Collect() != nil {
			t.Fatalf("%v: explain executed: %+v", c.q.kind, info)
		}
		for _, err := range res.All() {
			if !errors.Is(err, ErrStreamConsumed) {
				t.Fatalf("%v: All on an explain handle: %v", c.q.kind, err)
			}
		}
	}
	want := explainAll(t, authors)
	if err := authors.Delete(tuples[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := authors.Flush(); err != nil {
		t.Fatal(err)
	}
	// No explain pinned a partition: the merge removes the old main.
	if err := authors.Merge(); err != nil {
		t.Fatal(err)
	}
	if db.fs.Exists("authors.main0.upi.heap") {
		t.Fatal("old main generation survived the merge: an explain leaked a pin")
	}
	if got := explainAll(t, authors); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged table explains differently:\n got %q\nwant %q", got, want)
	}

	_, cars, c := spatialFixture(t, 400)
	for _, sc := range []struct {
		q     Query
		route string
	}{
		{Circle(c.Extent.Center(), 400, 0.3), "RTreeProbe"},
		{Segment(busySegment(c), 0.2), "SegmentIndexScan"},
	} {
		before := cars.db.DiskStats()
		res, err := cars.Run(ctx, sc.q.WithExplain())
		if err != nil {
			t.Fatal(err)
		}
		info := res.Info()
		if info.Plan != sc.route || !strings.HasPrefix(info.Explain, "routing: fixed rule, "+sc.route+"\n") {
			t.Fatalf("%v: plan %q, explain %q, want route %s", sc.q.kind, info.Plan, info.Explain, sc.route)
		}
		if d := cars.db.DiskStats().Sub(before); d != (DiskStats{}) || res.Len() != 0 || res.Collect() != nil {
			t.Fatalf("%v: explain executed or charged I/O: %+v", sc.q.kind, d)
		}
	}
}

// TestExplainFormat: the listing is two lines, the route after
// "routing: fixed rule, " and an indented description naming the
// attribute, value and threshold, plus the cutoff-index chase when the
// threshold is below the table's cutoff.
func TestExplainFormat(t *testing.T) {
	db := mustCreate(t)
	authors, err := db.BulkLoadTable("authors", "Institution", []string{"Country"}, exampleTuples(t), WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q    Query
		want string
	}{
		{PTQ("", "MIT", 0.05), "routing: fixed rule, PrimaryScan\n" +
			"  clustered UPI scan of Institution=\"MIT\" down to confidence 0.05, then the cutoff index below the cutoff 0.1\n"},
		{PTQ("Institution", "MIT", 0.3), "routing: fixed rule, PrimaryScan\n" +
			"  clustered UPI scan of Institution=\"MIT\" down to confidence 0.3\n"},
		{PTQ("Country", "Japan", 0.3), "routing: fixed rule, SecondaryTailored\n" +
			"  secondary index on Country=\"Japan\" down to confidence 0.3, tailored heap access\n"},
		{TopKQuery("MIT", 2), "routing: fixed rule, TopKScan\n" +
			"  clustered UPI scan of Institution=\"MIT\", stopping at the k-th result (k=2)\n"},
	} {
		if got := explainOf(t, authors, c.q); got != c.want {
			t.Fatalf("%v:\n got %q\nwant %q", c.q.kind, got, c.want)
		}
	}
}

// TestExplainUnknownAttribute: an attribute the table does not index
// is ErrUnknownAttr under WithExplain too, so an explain never names a
// route Run would refuse.
func TestExplainUnknownAttribute(t *testing.T) {
	db := mustCreate(t)
	authors, err := db.BulkLoadTable("authors", "Institution", []string{"Country"}, exampleTuples(t), WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range []Query{PTQ("Nope", "x", 0.1), PTQ("Nope", "x", 0.1).WithExplain()} {
		if res, err := authors.Run(ctx, q); !errors.Is(err, ErrUnknownAttr) || res != nil {
			t.Fatalf("unknown attribute: %v %v", res, err)
		}
	}
}

// TestFacadeUnseededCatalog: a created-empty table filled by inserts
// and a reopened table carry no statistics, and none is needed — each
// explains the same routes as the bulk-loaded table and answers Run.
func TestFacadeUnseededCatalog(t *testing.T) {
	db := mustCreate(t)
	tuples := exampleTuples(t)
	ctx := context.Background()
	authors, err := db.BulkLoadTable("authors", "Institution", []string{"Country"}, tuples, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	want := explainAll(t, authors)
	empty, err := db.CreateTable("born-empty", "Institution", []string{"Country"}, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range tuples {
		if err := empty.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := authors.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := db.OpenTable("authors", "Institution", []string{"Country"}, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*Table{empty, re} {
		if got := explainAll(t, tab); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s explains differently:\n got %q\nwant %q", tab.Name(), got, want)
		}
		for _, c := range []struct {
			q    Query
			rows int
		}{
			{PTQ("Institution", "MIT", 0.1), 2},
			{PTQ("Country", "Japan", 0.3), 1},
		} {
			res, err := tab.Run(ctx, c.q)
			if err != nil || res.Len() != c.rows {
				t.Fatalf("%s %v: %v, %d rows, want %d", tab.Name(), c.q.kind, err, res.Len(), c.rows)
			}
		}
	}
}

// TestNothingMaintainsStatistics: on a sharded table, inserts, deletes,
// a fracture per shard and a merge change what a query answers but not
// the route it takes: the Explain listing reads no data-dependent state.
func TestNothingMaintainsStatistics(t *testing.T) {
	db := mustCreate(t)
	var live []*Tuple
	for i := 0; i < 210; i++ {
		live = append(live, shardTestTuple(t, uint64(i+1), i+1))
	}
	tab, err := db.BulkLoadTable("still", "X", []string{"Y"}, live, WithCutoff(0.15), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := []Query{PTQ("", "v03", 0.2), PTQ("Y", "yv03", 0.5)}
	var loaded []string
	var rows []int
	for _, q := range queries {
		loaded = append(loaded, explainOf(t, tab, q))
		res, err := tab.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, res.Len())
	}

	for i := 0; i < len(live); i += 4 {
		if live[i].Confidence("X", "v03") > 0 {
			continue // the value must gain rows, not churn them
		}
		if err := tab.Delete(live[i].ID); err != nil {
			t.Fatal(err)
		}
		live[i] = shardTestTuple(t, live[i].ID, 3)
		if err := tab.Insert(live[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if got := explainOf(t, tab, q); got != loaded[i] {
			t.Fatalf("q=%d: listing moved with a fracture per shard\n loaded %q\n now    %q", i, loaded[i], got)
		}
		res, err := tab.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() <= rows[i] {
			t.Fatalf("q=%d: %d rows after the moves, %d before; the churn did not reach the answer", i, res.Len(), rows[i])
		}
	}
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if got := explainOf(t, tab, q); got != loaded[i] {
			t.Fatalf("q=%d: listing moved with a merge\n loaded %q\n now    %q", i, loaded[i], got)
		}
	}
}
