package upidb

// Tests for late materialization at the facade: Results.Rows is
// Results.All minus the build — the same rows, order, states and
// accounting on every route — an unbuilt row outlives the partition it
// was scanned from, a corrupt tuple body fails every consumer with the
// codec's error, and a drained Rows allocates per query, not per row.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"iter"
	"reflect"
	"strings"
	"sync"
	"testing"

	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
	"upidb/internal/upi/upitest"
)

// rowsMutate is the recipe of the rows tests, applied to a table or to
// the oracle: the fracturedMutate history (four flushed fractures with
// deletes, inserts and a delete pending in the RAM buffer) preceded by
// upserts and a delete of flushed tuples that get flushed themselves,
// and followed by more of them left in the buffer.
func rowsMutate(t testing.TB, m interface {
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
	// Upserts of bulk-loaded tuples (the new version moves to another
	// value and confidence), flushed into the first fracture.
	check(m.Insert(rowsTuple(t, 7, 1, 0.62)))
	check(m.Insert(rowsTuple(t, 22, 4, 0.57)))
	fracturedMutate(t, m)
	// Upserts and deletes of flushed tuples, pending in the RAM buffer.
	check(m.Insert(rowsTuple(t, 1003, 1, 0.71)))
	check(m.Insert(rowsTuple(t, 9, 4, 0.44)))
	check(m.Insert(rowsTuple(t, 64, 1, 0.12)))
	check(m.Delete(1030))
	check(m.Delete(15))
}

// rowsPayload pads the rows tests' tuples so that every partition's
// heap spans many pages.
var rowsPayload = bytes.Repeat([]byte{0xAB}, 512)

func rowsTuple(t testing.TB, id uint64, v int, p float64) *Tuple {
	tup := fracturedTuple(t, id, v, p)
	tup.Payload = rowsPayload
	return tup
}

func rowsBase(t testing.TB) []*Tuple {
	base := fracturedBase(t)
	for _, tup := range base {
		tup.Payload = rowsPayload
	}
	return base
}

func rowsRef(t testing.TB) *refTable {
	ref := &refTable{live: make(map[uint64]*Tuple)}
	for _, tup := range rowsBase(t) {
		ref.live[tup.ID] = tup
	}
	rowsMutate(t, ref)
	return ref
}

func rowsTable(t testing.TB, db *DB, shards int) *Table {
	t.Helper()
	tab, err := db.BulkLoadTable("rows", "X", []string{"Y"}, rowsBase(t), WithCutoff(0.15), WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	rowsMutate(t, tab)
	return tab
}

// sameTuple reports whether two tuples encode to the same bytes.
func sameTuple(a, b *Tuple) bool {
	return a != nil && b != nil && bytes.Equal(tuple.Encode(a), tuple.Encode(b))
}

// drainRows drains a handle through Rows, building nothing, and returns
// the rows as they arrived.
func drainRows(t testing.TB, res *Results) []Row {
	t.Helper()
	var out []Row
	for row, err := range res.Rows() {
		if err != nil {
			t.Fatalf("rows: %v", err)
		}
		out = append(out, row)
	}
	return out
}

// TestRowsMatchAllOnEveryRoute: for PTQs above, at and below the
// cutoff, top-k and secondary PTQs — every fixed route: the clustered
// scan, the cutoff-index chase and tailored secondary access — at shard
// counts 1, 2 and 7 on the memory and the disk backend, over a main partition, fractures and a
// RAM buffer holding deletes and upserts of flushed tuples: Rows yields
// the (ID, confidence) sequence All yields, which is the oracle's;
// Row.Tuple is All's tuple; Info is identical; and a handle drained
// through Rows reports the drain through Len and Err.
func TestRowsMatchAllOnEveryRoute(t *testing.T) {
	queries := []Query{
		PTQ("", "v01", 0.4),
		PTQ("", "v01", 0.15),
		PTQ("", "v01", 0.05),
		PTQ("", "v04", 0.05),
		TopKQuery("v04", 7),
		TopKQuery("v01", 200),
		PTQ("Y", "yv02", 0.1),
		PTQ("Y", "yv01", 0.85),
	}
	ctx := context.Background()
	ref := rowsRef(t)
	for _, backend := range []string{"mem", "disk"} {
		for _, shards := range []int{1, 2, 7} {
			var opts []Option
			if backend == "disk" {
				opts = append(opts, WithDiskBackend(t.TempDir()))
			}
			db := mustCreate(t, opts...)
			tab := rowsTable(t, db, shards)
			if tab.NumFractures() == 0 {
				t.Fatal("table has no fractures; check vacuous")
			}
			run := func(label string, q Query, cold bool) *Results {
				t.Helper()
				if cold {
					// A cold run's first read is a seek or not depending on
					// where the query before it left the disk head, so park
					// the head in one place (by a cold query: a warm one
					// reads nothing) before dropping the caches.
					if err := tab.DropCaches(); err != nil {
						t.Fatal(err)
					}
					park, err := tab.Run(ctx, TopKQuery("v01", 1))
					if err != nil || park.Err() != nil {
						t.Fatalf("%s: parking query: %v / %v", label, err, park.Err())
					}
					if err := tab.DropCaches(); err != nil {
						t.Fatal(err)
					}
				}
				res, err := tab.Run(ctx, q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return res
			}
			for qi, q := range queries {
				// Pass 0 runs both handles cold, every buffer pool
				// dropped; pass 1 runs both warm, on the pages pass 0
				// left behind.
				for pass := 0; pass < 2; pass++ {
					cold := pass == 0
					label := fmt.Sprintf("%s shards=%d q=%d pass=%d", backend, shards, qi, pass)
					allRes := run(label, q, cold)
					all := streamAll(t, allRes)
					checkAgainstRef(t, ref, label+" All", q, all)
					rowsRes := run(label, q, cold)
					rows := drainRows(t, rowsRes)
					if len(rows) != len(all) {
						t.Fatalf("%s: Rows yielded %d rows, All %d", label, len(rows), len(all))
					}
					for i, row := range rows {
						if row.ID != all[i].Tuple.ID || row.Confidence != all[i].Confidence {
							t.Fatalf("%s row %d: Rows %d/%v, All %d/%v", label, i, row.ID, row.Confidence, all[i].Tuple.ID, all[i].Confidence)
						}
						if got := row.Tuple(); !reflect.DeepEqual(got, all[i].Tuple) || !sameTuple(got, ref.live[row.ID]) {
							t.Fatalf("%s row %d: Row.Tuple %+v, All's %+v", label, i, got, all[i].Tuple)
						}
					}
					ai, ri := allRes.Info(), rowsRes.Info()
					if ri != ai {
						t.Fatalf("%s: Info diverged\n Rows %+v\n All  %+v", label, ri, ai)
					}
					if ai.Partitions != shards+tab.NumFractures() || (cold && ai.ModeledTime == 0) {
						t.Fatalf("%s: implausible Info %+v", label, ai)
					}

					if n := rowsRes.Len(); n != len(all) {
						t.Fatalf("%s: Len after Rows = %d, want %d", label, n, len(all))
					}
					if err := rowsRes.Err(); err != nil {
						t.Fatalf("%s: Err after Rows: %v", label, err)
					}
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// handleConsumer is one way of iterating a Results handle, reduced to
// the row's ID so that All and Rows can be driven by the same script.
type handleConsumer struct {
	name string
	iter func(*Results) iter.Seq2[uint64, error]
}

var handleConsumers = []handleConsumer{
	{"All", func(r *Results) iter.Seq2[uint64, error] {
		return func(yield func(uint64, error) bool) {
			for res, err := range r.All() {
				var id uint64
				if err == nil {
					id = res.Tuple.ID
				}
				if !yield(id, err) {
					return
				}
			}
		}
	}},
	{"Rows", func(r *Results) iter.Seq2[uint64, error] {
		return func(yield func(uint64, error) bool) {
			for row, err := range r.Rows() {
				if !yield(row.ID, err) {
					return
				}
			}
		}
	}},
}

// TestRowsStatesMatchAll: the partial-drain, re-entrancy, Close and
// failure states of a handle do not depend on which iterator drives it.
// Each scenario is written once, run through All and through Rows (and,
// where a second iterator is involved, through every pairing), and must
// leave the same transcript.
func TestRowsStatesMatchAll(t *testing.T) {
	db := mustCreate(t)
	tab := rowsTable(t, db, 2)
	q := PTQ("", "v01", 0.05)
	want := len(rowsRef(t).query("X", "v01", 0.05))
	pins := int64(tab.NumShards() + tab.NumFractures())

	// after describes what the accessors of a finished handle report.
	after := func(res *Results) string {
		info := res.Info()
		return fmt.Sprintf("collect=%d len=%d err=%v partitions=%d heap=%d",
			len(res.Collect()), res.Len(), res.Err(), info.Partitions, info.HeapEntries)
	}
	// once iterates res through c and transcribes what it yields.
	once := func(c handleConsumer, res *Results) string {
		var b strings.Builder
		for id, err := range c.iter(res) {
			fmt.Fprintf(&b, "(%d,%v)", id, err)
		}
		return b.String()
	}
	run := func(ctx context.Context) *Results {
		t.Helper()
		res, err := tab.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	scenarios := map[string]func(first, second handleConsumer) string{
		"partial drain": func(first, second handleConsumer) string {
			before := db.Metrics()
			res := run(context.Background())
			n := 0
			for _, err := range first.iter(res) {
				if err != nil {
					t.Fatal(err)
				}
				if n++; n == 3 {
					break
				}
			}
			m := db.Metrics()
			if got := counterDelta(before, m, "upidb_stream_pin_releases_total"); got != pins {
				t.Errorf("partial %s drain released %d pins of %d", first.name, got, pins)
			}
			return fmt.Sprintf("partials=%d again=%s %s",
				counterDelta(before, m, "upidb_stream_partial_drains_total"), once(second, res), after(res))
		},
		"re-entrant iterator": func(first, second handleConsumer) string {
			res := run(context.Background())
			n, inner := 0, ""
			for _, err := range first.iter(res) {
				if err != nil {
					t.Fatal(err)
				}
				if n++; n == 2 {
					inner = once(second, res) + after(res)
				}
			}
			return fmt.Sprintf("rows=%d inner=%s %s", n, inner, after(res))
		},
		"closed before use": func(first, second handleConsumer) string {
			before := db.Metrics()
			res := run(context.Background())
			res.Close()
			res.Close()
			if got := counterDelta(before, db.Metrics(), "upidb_stream_pin_releases_total"); got != pins {
				t.Errorf("Close released %d pins of %d", got, pins)
			}
			return once(first, res) + once(second, res) + after(res)
		},
		"cancelled mid-stream": func(first, second handleConsumer) string {
			before := db.Metrics()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			res := run(ctx)
			n, failure := 0, ""
			for _, err := range first.iter(res) {
				if err != nil {
					if !errors.Is(err, ErrCanceled) {
						t.Fatalf("mid-stream error %v, want ErrCanceled", err)
					}
					failure = err.Error()
					continue
				}
				if n++; n == 2 {
					cancel()
				}
			}
			if got := counterDelta(before, db.Metrics(), "upidb_stream_pin_releases_total"); got != pins {
				t.Errorf("cancelled %s drain released %d pins of %d", first.name, got, pins)
			}
			return fmt.Sprintf("rows=%d failure=%q again=%s %s", n, failure, once(second, res), after(res))
		},
		"full drain": func(first, second handleConsumer) string {
			res := run(context.Background())
			a := once(first, res)
			if strings.Count(a, "(") != want {
				t.Fatalf("full %s drain: %s, want %d rows", first.name, a, want)
			}
			return a + once(second, res) + after(res)
		},
	}
	for name, scenario := range scenarios {
		var ref string
		for i, first := range handleConsumers {
			for j, second := range handleConsumers {
				got := scenario(first, second)
				if i == 0 && j == 0 {
					ref = got
					if !strings.Contains(name, "full") && !strings.Contains(ref, "consumed") && !strings.Contains(ref, "cancel") {
						t.Fatalf("%s: transcript %q never reports the spent handle; check vacuous", name, ref)
					}
					continue
				}
				if got != ref {
					t.Errorf("%s, %s then %s:\n got %s\nwant %s (All then All)", name, first.name, second.name, got, ref)
				}
			}
		}
	}
}

// onePagePools shrinks db's pool to nothing: it keeps only the page it
// has just served, so a page is evicted the moment the next one is
// read, and anything that aliases a page aliases an evicted one.
func onePagePools(db *DB) {
	if err := db.pool.SetCapacity(0); err != nil {
		panic(err)
	}
}

// lifetimeTuple is the deterministic tuple of an ID in the view-lifetime
// tests: every version of an ID is the same tuple, so a row can be
// checked against the model long after the table has moved on.
func lifetimeTuple(t testing.TB, id uint64) *Tuple {
	return rowsTuple(t, id, int(id%7), 0.2+float64(id%70)/100)
}

// heldRow is an unbuilt row and the query that produced it.
type heldRow struct {
	row   Row
	value string
}

// checkHeldRows builds every held row and compares it with the model.
func checkHeldRows(t testing.TB, held []heldRow) {
	t.Helper()
	for _, h := range held {
		want := lifetimeTuple(t, h.row.ID)
		got := h.row.Tuple()
		if !sameTuple(got, want) {
			t.Fatalf("held row %d of %q built %+v, model has %+v", h.row.ID, h.value, got, want)
		}
		if c := got.Confidence("X", h.value); c != h.row.Confidence {
			t.Fatalf("held row %d of %q: confidence %v, its tuple says %v", h.row.ID, h.value, h.row.Confidence, c)
		}
	}
}

// TestRowsOutliveTheirPartitions is the view-lifetime contract: rows
// taken from Rows on a disk-backed two-shard table whose buffer pools
// hold one page are kept unbuilt while every cache is dropped, more
// tuples are inserted and flushed, and merges replace every partition
// the rows came from — unpinned, closed, files removed. Other queries
// run over the new generation. Only then is Row.Tuple called, and every
// tuple is the model's.
func TestRowsOutliveTheirPartitions(t *testing.T) {
	db := mustCreate(t, WithDiskBackend(t.TempDir()))
	defer db.Close()
	onePagePools(db)
	var base []*Tuple
	for id := uint64(1); id <= 300; id++ {
		base = append(base, lifetimeTuple(t, id))
	}
	tab, err := db.BulkLoadTable("life", "X", []string{"Y"}, base, WithCutoff(0.15), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	live := map[uint64]bool{}
	for _, tup := range base {
		live[tup.ID] = true
	}
	next := uint64(1000)
	grow := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := tab.Insert(lifetimeTuple(t, next)); err != nil {
				t.Fatal(err)
			}
			live[next] = true
			next++
		}
		if err := tab.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	grow(60)
	grow(60)
	if err := tab.Delete(5); err != nil {
		t.Fatal(err)
	}
	delete(live, 5)

	ctx := context.Background()
	values := []string{"v00", "v01", "v02", "v03", "v04", "v05", "v06"}
	var held []heldRow
	var handles []*Results // a drained handle keeps unbuilt rows too
	for _, v := range values {
		for _, q := range []Query{PTQ("", v, 0.05), TopKQuery(v, 40)} {
			res, err := tab.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range drainRows(t, res) {
				held = append(held, heldRow{row, v})
			}
			handles = append(handles, res)
		}
	}
	t.Logf("holding %d unbuilt rows and %d drained handles", len(held), len(handles))
	if len(held) < 400 {
		t.Fatalf("holding %d rows; check vacuous", len(held))
	}
	old := db.fs.List()

	// Everything the rows point into goes away.
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		grow(40)
		if err := tab.Merge(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range old {
		if strings.Contains(name, ".upi.") && db.fs.Exists(name) {
			t.Fatalf("%s survived two merges: the rows' partitions are still there", name)
		}
	}
	// The new generation answers, through the same one-page pools.
	for _, v := range values {
		res, err := tab.Run(ctx, PTQ("", v, 0.01))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range streamAll(t, res) {
			if !live[r.Tuple.ID] || !sameTuple(r.Tuple, lifetimeTuple(t, r.Tuple.ID)) {
				t.Fatalf("new generation yields %d", r.Tuple.ID)
			}
			n++
		}
		want := 0
		for id := range live {
			if lifetimeTuple(t, id).Confidence("X", v) >= 0.01 {
				want++
			}
		}
		if n != want {
			t.Fatalf("new generation: %d rows for %q, model has %d", n, v, want)
		}
	}

	checkHeldRows(t, held)
	for _, res := range handles {
		for _, r := range res.Collect() {
			if !sameTuple(r.Tuple, lifetimeTuple(t, r.Tuple.ID)) {
				t.Fatalf("handle drained before the merges builds %+v", r.Tuple)
			}
		}
	}
}

// TestRowsOutliveAutoMerge is the same contract under concurrency (run
// it with -race): a writer inserts, deletes and flushes while the
// background merger folds fractures away, and readers take rows, let
// the table move on, and only then build them.
func TestRowsOutliveAutoMerge(t *testing.T) {
	db := mustCreate(t, WithDiskBackend(t.TempDir()), WithDurability(false))
	defer db.Close()
	onePagePools(db)
	var base []*Tuple
	for id := uint64(1); id <= 200; id++ {
		base = append(base, lifetimeTuple(t, id))
	}
	tab, err := db.BulkLoadTable("auto", "X", nil, base, WithCutoff(0.15), WithShards(2), WithBufferTuples(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.StartAutoMerge(AutoMergeOptions{MaxFractures: 2}); err != nil {
		t.Fatal(err)
	}
	rounds := 60
	if testing.Short() {
		rounds = 20
	}
	ctx := context.Background()
	merges := func() int64 { return counterDelta(MetricsSnapshot{}, db.Metrics(), "upidb_fracture_merges_total") }
	before := merges()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := fmt.Sprintf("v%02d", i%7)
				res, err := tab.Run(ctx, PTQ("", v, 0.05))
				if err != nil {
					t.Error(err)
					return
				}
				var held []heldRow
				for row, err := range res.Rows() {
					if err != nil {
						t.Error(err)
						return
					}
					held = append(held, heldRow{row, v})
				}
				// Let the writer and the merger move on: another query
				// over whatever the table is by now.
				other, err := tab.Run(ctx, TopKQuery(fmt.Sprintf("v%02d", (i+3)%7), 5))
				if err != nil {
					t.Error(err)
					return
				}
				if err := other.Err(); err != nil {
					t.Error(err)
					return
				}
				checkHeldRows(t, held)
			}
		}()
	}
	next := uint64(1000)
	for round := 0; round < rounds; round++ {
		for i := 0; i < 20; i++ {
			if err := tab.Insert(lifetimeTuple(t, next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := tab.Delete(next - 7); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := tab.StopAutoMerge(); err != nil {
		t.Fatal(err)
	}
	if merges() == before {
		t.Fatal("no background merge ran; check vacuous")
	}
}

// TestCorruptBodyFailsEveryConsumer: with a length field inside one
// tuple body of a flushed fracture overwritten, a query that scans the
// entry fails through Rows, All and Collect alike, with the codec's own
// error text, after the rows ranked before the damaged one, and with
// every partition pin released; a query that does not reach the entry
// is unaffected, and restoring the page restores the answers.
func TestCorruptBodyFailsEveryConsumer(t *testing.T) {
	backend := storage.NewMemBackend()
	db := mustCreate(t, WithBackend(backend))
	tab := rowsTable(t, db, 2)
	ref := rowsRef(t)
	if err := tab.DropCaches(); err != nil { // everything on the backend
		t.Fatal(err)
	}
	c, err := upitest.CorruptHeapBody(backend, upitest.FractureHeapFile(backend.List()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	_, codecErr := tuple.Decode(c.Body)
	if codecErr == nil {
		t.Fatal("the damaged body still decodes")
	}
	pins := int64(tab.NumShards() + tab.NumFractures())
	ctx := context.Background()

	// The entry's rank among the value's answers: what precedes it is
	// delivered, the entry itself is the failure.
	ids := ref.query("X", c.Value, 0)
	rank := -1
	for i, id := range ids {
		if id == c.ID {
			rank = i
		}
	}
	if rank < 0 {
		t.Fatalf("damaged tuple %d is not a live answer for %q; pick another entry", c.ID, c.Value)
	}

	for _, q := range []Query{PTQ("", c.Value, 0), TopKQuery(c.Value, len(ids))} {
		for _, consumer := range handleConsumers {
			before := db.Metrics()
			res, err := tab.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			n, failure := 0, error(nil)
			for _, err := range consumer.iter(res) {
				if err != nil {
					failure = err
					continue
				}
				n++
			}
			if failure == nil || failure.Error() != codecErr.Error() {
				t.Fatalf("%s over the damaged entry: error %v, want %v", consumer.name, failure, codecErr)
			}
			if n > rank {
				t.Fatalf("%s delivered %d rows, the damaged one ranks %d", consumer.name, n, rank)
			}
			if got := res.Err(); got == nil || got.Error() != codecErr.Error() {
				t.Fatalf("%s: Err() = %v", consumer.name, got)
			}
			if res.Collect() != nil || res.Len() != 0 {
				t.Fatalf("%s: a failed handle still holds rows", consumer.name)
			}
			if got := counterDelta(before, db.Metrics(), "upidb_stream_pin_releases_total"); got != pins {
				t.Fatalf("%s: %d pins released, %d taken", consumer.name, got, pins)
			}
		}
		before := db.Metrics()
		res, err := tab.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if rs := res.Collect(); rs != nil {
			t.Fatalf("Collect over the damaged entry returned %d rows", len(rs))
		}
		if got := res.Err(); got == nil || got.Error() != codecErr.Error() {
			t.Fatalf("Collect: Err() = %v, want %v", got, codecErr)
		}
		if got := counterDelta(before, db.Metrics(), "upidb_stream_pin_releases_total"); got != pins {
			t.Fatalf("Collect: %d pins released, %d taken", got, pins)
		}
	}

	// A top-k that stops above the damaged entry never validates it.
	if rank > 0 {
		res, err := tab.Run(ctx, TopKQuery(c.Value, rank))
		if err != nil {
			t.Fatal(err)
		}
		if got := drainRows(t, res); len(got) != rank {
			t.Fatalf("top-%d above the damaged entry: %d rows", rank, len(got))
		}
	}

	if err := c.Restore(); err != nil {
		t.Fatal(err)
	}
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	q := PTQ("", c.Value, 0)
	res, err := tab.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstRef(t, ref, "restored", q, res.Collect())
}

// allocsTable is a table with 20 rows of "few" and 500 of "many", all
// above the cutoff, and drain counts the allocations of one query of
// value consumed by consume, which returns the rows it saw.
func allocsTable(t *testing.T) (drain func(value string, want int, consume func(*Results) int) float64) {
	db := mustCreate(t)
	var base []*Tuple
	add := func(value string, n int) {
		for i := 0; i < n; i++ {
			id := uint64(len(base) + 1)
			x, err := NewDiscrete([]Alternative{{Value: value, Prob: 0.3 + float64(i%60)/100}})
			if err != nil {
				t.Fatal(err)
			}
			base = append(base, &Tuple{ID: id, Existence: 1, Unc: []UncField{{Name: "X", Dist: x}}, Payload: rowsPayload[:64]})
		}
	}
	add("few", 20)
	add("many", 500)
	tab, err := db.BulkLoadTable("allocs", "X", nil, base, WithCutoff(0.15))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	return func(value string, want int, consume func(*Results) int) float64 {
		q := PTQ("", value, 0.2)
		return testing.AllocsPerRun(20, func() {
			res, err := tab.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if n := consume(res); n != want {
				t.Fatalf("%q: %d rows, want %d", value, n, want)
			}
		})
	}
}

// TestRowsAllocationsDoNotFollowRows: draining Rows allocates per query
// — cursors, the merge, the kept rows' slice doublings — and nothing per
// row, so a 500-row answer costs what a 20-row one does plus a handful
// of slice growths. (Built row by row, as before late materialization,
// the difference was five allocations a row.)
func TestRowsAllocationsDoNotFollowRows(t *testing.T) {
	drain := allocsTable(t)
	rows := func(res *Results) int {
		n := 0
		for _, err := range res.Rows() {
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		return n
	}
	few, many := drain("few", 20, rows), drain("many", 500, rows)
	// 20 -> 500 kept rows is at most six more doublings of one slice.
	if many > few+8 {
		t.Fatalf("Rows allocated %.0f times for 20 rows and %.0f for 500: it allocates per row", few, many)
	}
	t.Logf("drained Rows: %.0f allocations for 20 rows, %.0f for 500", few, many)
}

// slabAllocs bounds what 480 more built rows may cost: a slab of each
// kind (five for these tuples and for observations alike: the row, its
// fields, their alternatives, the strings and the payload) per
// tuple.SlabRows rows, plus a few slice doublings. Built one allocation
// set per row, as before slabs, it was five allocations a row.
const slabAllocs = 5*(480/tuple.SlabRows+2) + 8

// TestBuiltRowsAllocatePerSlab: All and Collect build the rows they hand
// out into shared slabs, so a 500-row answer costs a 20-row one's
// allocations plus a few per slab of tuple.SlabRows rows, not per row.
func TestBuiltRowsAllocatePerSlab(t *testing.T) {
	drain := allocsTable(t)
	all := func(res *Results) int {
		n := 0
		for r, err := range res.All() {
			if err != nil || r.Tuple == nil {
				t.Fatal(err)
			}
			n++
		}
		return n
	}
	collect := func(res *Results) int { return len(res.Collect()) }
	for _, c := range []struct {
		name    string
		consume func(*Results) int
	}{{"All", all}, {"Collect", collect}} {
		few, many := drain("few", 20, c.consume), drain("many", 500, c.consume)
		if many > few+slabAllocs {
			t.Errorf("%s allocated %.0f times for 20 rows and %.0f for 500, want at most %d more: it allocates per row", c.name, few, many, slabAllocs)
		}
		t.Logf("%s: %.0f allocations for 20 rows, %.0f for 500", c.name, few, many)
	}
}

// TestSpatialRowsAllocatePerSlab is TestBuiltRowsAllocatePerSlab for a
// spatial table: a circle and a segment query of 20 and of 500
// observations, streamed and collected.
func TestSpatialRowsAllocatePerSlab(t *testing.T) {
	db := mustCreate(t)
	var obs []*Observation
	// Each cluster's observations lie on a small grid around its centre,
	// well inside a circle of radius 60 about it.
	centre := map[string]Point{"few": {X: 0, Y: 0}, "many": {X: 5000, Y: 5000}}
	add := func(seg string, n int) {
		for i := 0; i < n; i++ {
			d, err := NewDiscrete([]Alternative{{Value: seg, Prob: 0.9}, {Value: "other", Prob: 0.1}})
			if err != nil {
				t.Fatal(err)
			}
			c := centre[seg]
			obs = append(obs, &Observation{
				ID:      uint64(len(obs) + 1),
				Loc:     ConstrainedGaussian{Center: Point{X: c.X + float64(i%25), Y: c.Y + float64(i/25)}, Sigma: 1, Bound: 3},
				Segment: d,
				Payload: rowsPayload[:64],
			})
		}
	}
	add("few", 20)
	add("many", 500)
	tab, err := db.BulkLoadSpatial("cars", obs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	count := func(q Query, want int, collect bool) float64 {
		return testing.AllocsPerRun(20, func() {
			res, err := tab.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			if collect {
				n = len(res.Collect())
			} else {
				for r, err := range res.All() {
					if err != nil || r.Obs == nil {
						t.Fatal(err)
					}
					n++
				}
			}
			if n != want {
				t.Fatalf("%v: %d rows, want %d", q.kind, n, want)
			}
		})
	}
	for _, c := range []struct {
		name      string
		few, many Query
	}{
		{"circle", Circle(centre["few"], 60, 0.5), Circle(centre["many"], 60, 0.5)},
		{"segment", Segment("few", 0.5), Segment("many", 0.5)},
	} {
		for _, collect := range []bool{false, true} {
			name := c.name + " All"
			if collect {
				name = c.name + " Collect"
			}
			few, many := count(c.few, 20, collect), count(c.many, 500, collect)
			if many > few+slabAllocs {
				t.Errorf("%s allocated %.0f times for 20 rows and %.0f for 500, want at most %d more: it allocates per row", name, few, many, slabAllocs)
			}
			t.Logf("%s: %.0f allocations for 20 rows, %.0f for 500", name, few, many)
		}
	}
}

// TestUnbuiltResultIsOrderedAndFiltered pins what the layers below the
// facade rely on: a result's ID and order are the same built or not.
func TestUnbuiltResultIsOrderedAndFiltered(t *testing.T) {
	tup := rowsTuple(t, 42, 3, 0.5)
	view, err := tuple.Validate(tuple.Encode(tup))
	if err != nil {
		t.Fatal(err)
	}
	unbuilt := upi.Result{Confidence: 0.5, View: view}
	built := unbuilt.Build(new(tuple.Builder))
	if unbuilt.ID() != 42 || built.ID() != 42 || built.Tuple == nil || !sameTuple(built.Tuple, tup) {
		t.Fatalf("unbuilt ID %d, built %+v", unbuilt.ID(), built)
	}
	if !reflect.DeepEqual(built, upi.Result{Tuple: built.Tuple, Confidence: 0.5}) {
		t.Fatal("a built result kept its view")
	}
	if again := built.Build(new(tuple.Builder)); again.Tuple != built.Tuple {
		t.Fatal("Build of a built result built again")
	}
	other := upi.Result{Tuple: rowsTuple(t, 43, 3, 0.5), Confidence: 0.5}
	if !upi.ResultBefore(unbuilt, other) || upi.ResultBefore(other, unbuilt) {
		t.Fatal("an unbuilt result does not order by ID")
	}
}
