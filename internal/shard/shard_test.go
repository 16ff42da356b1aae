package shard

// Parity tests for the sharded table: a sharded table at every
// shard count must return exactly the rows — same set, same global
// confidence order — a brute-force oracle computes for the logical
// workload, with the single-shard case additionally byte-identical in
// statistics and modeled cost to an unsharded store. Plus: top-k early
// termination across shards, pin release, shard-count persistence,
// trace span stamping, and a race-enabled concurrent soak.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"upidb/internal/fracture"
	"upidb/internal/prob"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

const parityValues = 7

func parityVal(v int) string { return fmt.Sprintf("v%02d", v%parityValues) }

// setProcs runs the rest of the test at GOMAXPROCS(n) and restores the
// previous value when the test ends. A stream opens its partitions on
// the caller's goroutine at any n; the tests that loop over n check
// that nothing they report moves with it.
func setProcs(t testing.TB, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func parityTuple(id uint64, v int) *tuple.Tuple {
	p := 0.3 + float64((id*7+uint64(v)*13)%60)/100
	alts := []prob.Alternative{{Value: parityVal(v), Prob: p}}
	if other := (v + 1) % parityValues; other != v {
		alts = append(alts, prob.Alternative{Value: parityVal(other), Prob: (1 - p) * 0.9})
	}
	x, err := prob.NewDiscrete(alts)
	if err != nil {
		panic(err)
	}
	y, err := prob.NewDiscrete([]prob.Alternative{{Value: "y" + parityVal(v), Prob: 1}})
	if err != nil {
		panic(err)
	}
	return &tuple.Tuple{
		ID: id, Existence: 0.9,
		Unc: []tuple.UncField{{Name: "X", Dist: x}, {Name: "Y", Dist: y}},
	}
}

func parityCfg() fracture.Config {
	return fracture.Config{UPI: upi.Options{Cutoff: 0.15}}
}

// mutator is the logical-workload surface Store and Table share.
type mutator interface {
	Insert(*tuple.Tuple) error
	Delete(uint64) error
	Flush() error
}

// liveSet is the oracle's side of the mutator: the live tuples by ID,
// with nothing to flush.
type liveSet map[uint64]*tuple.Tuple

func (l liveSet) Insert(tup *tuple.Tuple) error { l[tup.ID] = tup; return nil }
func (l liveSet) Delete(id uint64) error        { delete(l, id); return nil }
func (l liveSet) Flush() error                  { return nil }

// parityLive is the live set of the parity workload.
func parityLive(t testing.TB) liveSet {
	live := liveSet{}
	for _, tup := range parityBase() {
		live[tup.ID] = tup
	}
	applyWorkload(t, live)
	return live
}

// oracleRows answers req by brute force over the live tuples: filter
// by confidence, sort (confidence DESC, ID ASC), truncate a top-k.
func oracleRows(live liveSet, req fracture.Req) [][2]float64 {
	attr := req.Attr
	if attr == "" {
		attr = "X"
	}
	var rows [][2]float64
	for id, tup := range live {
		conf := tup.Confidence(attr, req.Value)
		if conf > 0 && (req.Kind == fracture.KindTopK || conf >= req.QT) {
			rows = append(rows, [2]float64{float64(id), conf})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i][1] != rows[j][1] {
			return rows[i][1] > rows[j][1]
		}
		return rows[i][0] < rows[j][0]
	})
	if req.Kind == fracture.KindTopK && len(rows) > req.K {
		rows = rows[:req.K]
	}
	return rows
}

// sameRows reports whether got holds want's IDs in want's order, with
// confidences equal up to the heap key's rounding.
func sameRows(got []upi.Result, want [][2]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, r := range got {
		if float64(r.Tuple.ID) != want[i][0] || math.Abs(r.Confidence-want[i][1]) > 1e-9 {
			return false
		}
	}
	return true
}

// applyWorkload layers fractures, deletes and a live RAM buffer (with a
// pending delete) on top of the bulk-loaded base, identically for the
// sharded build, the unsharded build and the oracle.
func applyWorkload(t testing.TB, m mutator) {
	t.Helper()
	id := uint64(1000)
	for f := 0; f < 4; f++ {
		for i := 0; i < 25; i++ {
			if err := m.Insert(parityTuple(id, int(id))); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if err := m.Delete(uint64(f*10 + 1)); err != nil {
			t.Fatal(err)
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := m.Insert(parityTuple(id, int(id))); err != nil {
			t.Fatal(err)
		}
		id++
	}
	if err := m.Delete(55); err != nil {
		t.Fatal(err)
	}
}

func parityBase() []*tuple.Tuple {
	var base []*tuple.Tuple
	for i := 0; i < 120; i++ {
		base = append(base, parityTuple(uint64(i+1), i+1))
	}
	return base
}

// buildUnsharded is the layout reference for one shard: one
// fracture.Store.
func buildUnsharded(t testing.TB) (*fracture.Store, *sim.Disk) {
	t.Helper()
	disk := sim.NewDisk(sim.DefaultParams())
	fs := storage.NewFS(disk)
	s, err := fracture.BulkLoad(fs, "par", "X", []string{"Y"}, parityCfg(), parityBase())
	if err != nil {
		t.Fatal(err)
	}
	applyWorkload(t, s)
	return s, disk
}

func buildSharded(t testing.TB, n int) (*Table, *storage.FS) {
	t.Helper()
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	tab, err := BulkLoad(fs, "par", "X", []string{"Y"}, parityCfg(), n, sim.DefaultParams(), parityBase())
	if err != nil {
		t.Fatal(err)
	}
	applyWorkload(t, tab)
	return tab, fs
}

func parityReqs() []fracture.Req {
	return []fracture.Req{
		{Kind: fracture.KindPTQ, Value: parityVal(3), QT: 0.05},
		{Kind: fracture.KindPTQ, Value: parityVal(3), QT: 0.4},
		{Kind: fracture.KindSecondary, Attr: "Y", Value: "y" + parityVal(2), QT: 0.05},
		{Kind: fracture.KindTopK, Value: parityVal(4), K: 9},
	}
}

func keys(rs []upi.Result) [][2]float64 {
	out := make([][2]float64, len(rs))
	for i, r := range rs {
		out[i] = [2]float64{float64(r.Tuple.ID), r.Confidence}
	}
	return out
}

func drain(t *testing.T, st *Stream) []upi.Result {
	t.Helper()
	out, err := upi.Drain(st.Next)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	return out
}

// TestShardParity: at shard counts 1, 2 and 7 the sharded table's
// merged Stream — pulled row by row, or drained by Collect — returns
// exactly the oracle's rows in the oracle's global confidence order;
// Collect reports the statistics of the stream it drained; and the
// single-shard table reports statistics and modeled cost byte-identical
// to the unsharded store's.
func TestShardParity(t *testing.T) {
	ref, _ := buildUnsharded(t)
	defer ref.Close()
	live := parityLive(t)
	ctx := context.Background()
	for _, n := range []int{1, 2, 7} {
		tab, _ := buildSharded(t, n)
		if got := tab.NumShards(); got != n {
			t.Fatalf("n=%d: NumShards=%d", n, got)
		}
		for qi, req := range parityReqs() {
			want := oracleRows(live, req)
			if len(want) == 0 {
				t.Fatalf("q=%d: oracle is empty; parity vacuous", qi)
			}
			unsharded, wantStats, err := ref.Run(ctx, req)
			if err != nil || !sameRows(unsharded, want) {
				t.Fatalf("q=%d: unsharded store diverged from oracle (err %v)\n got %v\nwant %v", qi, err, keys(unsharded), want)
			}

			prep, err := tab.Prepare(ctx, req)
			if err != nil {
				t.Fatalf("n=%d q=%d prepare stream: %v", n, qi, err)
			}
			stream := prep.Stream(ctx)
			if streamed := drain(t, stream); !sameRows(streamed, want) {
				t.Fatalf("n=%d q=%d: sharded Stream diverged\n got %v\nwant %v", n, qi, keys(streamed), want)
			}

			prep, err = tab.Prepare(ctx, req)
			if err != nil {
				t.Fatalf("n=%d q=%d prepare: %v", n, qi, err)
			}
			got, gotStats, err := prep.Collect(ctx)
			if err != nil {
				t.Fatalf("n=%d q=%d collect: %v", n, qi, err)
			}
			if !sameRows(got, want) {
				t.Fatalf("n=%d q=%d: sharded Collect diverged\n got %v\nwant %v", n, qi, keys(got), want)
			}
			// Collect is the stream's drain: the same execution, so the
			// same statistics and summed modeled cost — top-k included.
			if sc := stream.Stats(); gotStats != sc {
				t.Fatalf("n=%d q=%d: collect stats %+v != stream stats %+v", n, qi, gotStats, sc)
			}
			// One shard is the unsharded layout: identical stats to the
			// reference store, modeled cost included.
			if n == 1 && !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("q=%d: single-shard stats diverged\n got %+v\nwant %+v", qi, gotStats, wantStats)
			}
		}
		if err := tab.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardTopKTermination: the merged top-k stream stops at exactly k
// yields — the first k rows of the same value's unbounded PTQ — charges
// strictly less modeled I/O than draining that PTQ (which scans every
// shard's every partition, cutoff chases included), and leaves no
// partition pinned — after a merge no old-generation fracture file
// survives. The store mirrors the unsharded early-termination test:
// mains rich in high-confidence matches, fractures full of below-cutoff
// alternatives the top-k never has to chase.
func TestShardTopKTermination(t *testing.T) {
	setProcs(t, 1)
	hot := func(id uint64, conf float64) *tuple.Tuple {
		x, err := prob.NewDiscrete([]prob.Alternative{{Value: "hot", Prob: conf}})
		if err != nil {
			t.Fatal(err)
		}
		return &tuple.Tuple{ID: id, Existence: 1, Unc: []tuple.UncField{{Name: "X", Dist: x}}}
	}
	coldHot := func(id uint64) *tuple.Tuple {
		x, err := prob.NewDiscrete([]prob.Alternative{
			{Value: "cold", Prob: 0.8}, {Value: "hot", Prob: 0.1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return &tuple.Tuple{ID: id, Existence: 1, Unc: []tuple.UncField{{Name: "X", Dist: x}}}
	}
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	id := uint64(1)
	var base []*tuple.Tuple
	for i := 0; i < 90; i++ {
		base = append(base, hot(id, 0.5+float64(i)*0.005))
		id++
	}
	tab, err := BulkLoad(fs, "topk", "X", nil, parityCfg(), 3, sim.DefaultParams(), base)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	for f := 0; f < 6; f++ {
		for j := 0; j < 6; j++ {
			if err := tab.Insert(hot(id, 0.2+float64(f*6+j)*0.005)); err != nil {
				t.Fatal(err)
			}
			id++
		}
		for j := 0; j < 30; j++ {
			if err := tab.Insert(coldHot(id)); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if err := tab.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	req := fracture.Req{Kind: fracture.KindTopK, Value: "hot", K: 20}

	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	prep, err := tab.Prepare(ctx, fracture.Req{Kind: fracture.KindPTQ, Value: "hot"})
	if err != nil {
		t.Fatal(err)
	}
	want, fullStats, err := prep.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= req.K || fullStats.ModeledTime <= 0 {
		t.Fatalf("unbounded drain: %d rows, cost %v", len(want), fullStats.ModeledTime)
	}
	want = want[:req.K]

	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	prep, err = tab.Prepare(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	stream := prep.Stream(ctx)
	got := drain(t, stream)
	if !reflect.DeepEqual(keys(got), keys(want)) {
		t.Fatalf("top-k diverged from the unbounded drain's prefix")
	}
	if _, ok, err := stream.Next(); ok || err != nil {
		t.Fatalf("stream resumed after top-k termination: ok=%v err=%v", ok, err)
	}
	if early := stream.Stats().ModeledTime; early >= fullStats.ModeledTime {
		t.Fatalf("top-k stream charged %v, not less than the full drain's %v", early, fullStats.ModeledTime)
	}

	// A released (unconsumed) Prepared and the terminated stream must
	// both have returned their pins: after merging every shard, no
	// fracture file of any generation may remain.
	prep, err = tab.Prepare(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	prep.Release()
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	for _, name := range fs.List() {
		if strings.Contains(name, ".frac") {
			t.Fatalf("leaked pin kept %s alive after merge", name)
		}
	}
	if rs, err := tab.Prepare(ctx, req); err != nil {
		t.Fatal(err)
	} else if res, _, err := rs.Collect(ctx); err != nil || len(res) == 0 {
		t.Fatalf("table broken after top-k + merge: %v (%d rows)", err, len(res))
	}
}

// TestShardPersistence: the shard count survives Close/Open via the
// sideband shards file, opening with a contradicting count is a typed
// refusal, and legacy single-shard layouts (no shards file) reopen
// unchanged.
func TestShardPersistence(t *testing.T) {
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	cfg := parityCfg()
	cfg.Durable = true // Open needs each shard's manifest
	tab, err := New(fs, "persist", "X", []string{"Y"}, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		x, err := prob.NewDiscrete([]prob.Alternative{{Value: "same", Prob: 0.9}})
		if err != nil {
			t.Fatal(err)
		}
		tup := &tuple.Tuple{ID: uint64(i), Existence: 1, Unc: []tuple.UncField{
			{Name: "X", Dist: x},
			{Name: "Y", Dist: x},
		}}
		if err := tab.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}

	// Open without naming a count: the persisted one wins.
	tab, err = Open(fs, "persist", "X", []string{"Y"}, cfg, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.NumShards(); got != 3 {
		t.Fatalf("reopened with %d shards, want 3", got)
	}
	rs, err := tab.Prepare(context.Background(), fracture.Req{Kind: fracture.KindPTQ, Value: "same", QT: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := rs.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 30 {
		t.Fatalf("reopened table has %d tuples, want 30", len(res))
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}

	// Open with a contradicting explicit count: refused, not resharded.
	if _, err := Open(fs, "persist", "X", []string{"Y"}, cfg, 5); err == nil {
		t.Fatal("open with wrong shard count succeeded")
	} else if !strings.Contains(err.Error(), "resharding") {
		t.Fatalf("want resharding refusal, got: %v", err)
	}

	// Legacy layout: a single-shard table writes no shards file and
	// reopens as one shard; demanding more is refused.
	single, err := New(fs, "legacy", "X", nil, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Exists(shardsFile("legacy")) {
		t.Fatal("single-shard table wrote a shards file")
	}
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(fs, "legacy", "X", nil, cfg, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.NumShards(); got != 1 {
		t.Fatalf("legacy table reopened with %d shards", got)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fs, "legacy", "X", nil, cfg, 4); err == nil {
		t.Fatal("open of legacy layout with 4 shards succeeded")
	}
}

// TestShardTrace: span events carry the owning shard index — one
// dispatch per shard, balanced scan start/end pairs from inside each
// shard's engine, and one merge yield per delivered result.
func TestShardTrace(t *testing.T) {
	tab, _ := buildSharded(t, 3)
	defer tab.Close()

	var mu sync.Mutex
	var events []fracture.TraceEvent
	req := fracture.Req{
		Kind: fracture.KindPTQ, Value: parityVal(3), QT: 0.05,
		Trace: func(ev fracture.TraceEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	}
	prep, err := tab.Prepare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, prep.Stream(context.Background()))

	dispatch := map[int]int{}
	starts, ends, yields := 0, 0, 0
	for _, ev := range events {
		if ev.Shard < 0 || ev.Shard >= 3 {
			t.Fatalf("event %+v has shard outside [0,3)", ev)
		}
		switch ev.Kind {
		case fracture.TraceDispatch:
			dispatch[ev.Shard]++
		case fracture.TraceScanStart:
			starts++
		case fracture.TraceScanEnd:
			ends++
		case fracture.TraceYield:
			yields++
		}
	}
	for i := 0; i < 3; i++ {
		if dispatch[i] != 1 {
			t.Fatalf("shard %d dispatched %d times, want 1", i, dispatch[i])
		}
	}
	if starts == 0 || starts != ends {
		t.Fatalf("unbalanced scan spans: %d starts, %d ends", starts, ends)
	}
	if yields != len(got) {
		t.Fatalf("%d yield events for %d results", yields, len(got))
	}
}

// TestShardYieldNamesProducingShard: at shard counts 1, 2 and 7 every
// merge.yield event names the shard that owns the yielded tuple —
// for rows read from a partition's heap and for rows served from a
// shard's RAM buffer alike.
func TestShardYieldNamesProducingShard(t *testing.T) {
	for _, n := range []int{1, 2, 7} {
		tab, _ := buildSharded(t, n)
		heapRows, bufRows := 0, 0
		for v := 0; v < parityValues; v++ {
			var yields []fracture.TraceEvent
			req := fracture.Req{
				Kind: fracture.KindPTQ, Value: parityVal(v), QT: 0.05,
				Trace: func(ev fracture.TraceEvent) {
					if ev.Kind == fracture.TraceYield {
						yields = append(yields, ev) // yields come from the consumer's goroutine
					}
				},
			}
			prep, err := tab.Prepare(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			stream := prep.Stream(context.Background())
			got := drain(t, stream)
			if len(yields) != len(got) {
				t.Fatalf("n=%d v=%d: %d yield events for %d rows", n, v, len(yields), len(got))
			}
			for i, r := range got {
				if want := shardOf(r.Tuple.ID, n); yields[i].Shard != want {
					t.Fatalf("n=%d v=%d: tuple %d yielded as shard %d, owned by shard %d (%s)",
						n, v, r.Tuple.ID, yields[i].Shard, want, yields[i].Detail)
				}
			}
			bufRows += stream.Stats().BufferHits
			heapRows += len(got) - stream.Stats().BufferHits
		}
		if heapRows == 0 || bufRows == 0 {
			t.Fatalf("n=%d: %d heap rows and %d buffer rows yielded; both kinds must be covered", n, heapRows, bufRows)
		}
		tab.Close()
	}
}

// countdownCtx is a context whose Err starts returning
// context.Canceled after budget calls: a cancellation that lands
// mid-execution without racing a timer.
type countdownCtx struct {
	context.Context
	budget atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.budget.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestShardCancelMidPrime: a cancellation that lands while the one
// merge is still opening the cursors of a 3-shard table (5 partitions
// per shard, 8 workers) ends every scan it started exactly once, under
// the same (Shard, Part) it started under, emits nothing for the
// partitions it never reached, and returns every pin.
func TestShardCancelMidPrime(t *testing.T) {
	setProcs(t, 8)
	tab, fs := buildSharded(t, 3)
	defer tab.Close()
	total := 3 + tab.NumFractures()

	var mu sync.Mutex
	starts, ends := map[[2]int]int{}, map[[2]int]int{}
	req := fracture.Req{
		Kind: fracture.KindSecondary, Attr: "Y", Value: "y" + parityVal(2), QT: 0.05,
		Trace: func(ev fracture.TraceEvent) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case fracture.TraceScanStart:
				starts[[2]int{ev.Shard, ev.Part}]++
			case fracture.TraceScanEnd:
				ends[[2]int{ev.Shard, ev.Part}]++
			}
		},
	}
	// Prepare and the first pull's entry gate take one check each; the
	// rest run out while partitions are still being opened.
	ctx := &countdownCtx{Context: context.Background()}
	ctx.budget.Store(6)
	prep, err := tab.Prepare(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prep.Collect(ctx); !errors.Is(err, upi.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if len(starts) == 0 || len(starts) >= total {
		t.Fatalf("%d of %d partitions started; the cancellation must land mid-prime", len(starts), total)
	}
	if !reflect.DeepEqual(starts, ends) {
		t.Fatalf("scan spans do not pair up by (shard, part):\n starts %v\n ends   %v", starts, ends)
	}
	for key, n := range starts {
		if n != 1 {
			t.Fatalf("partition %v started %d times", key, n)
		}
	}
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	for _, name := range fs.List() {
		if strings.Contains(name, ".frac") {
			t.Fatalf("leaked pin after the cancelled prime: %s", name)
		}
	}
}

// TestOnePartitionQueryStartsNoGoroutine: a query over one shard with
// one partition opens its cursor on the caller's goroutine — the scan
// starts with no more goroutines alive than before the query.
func TestOnePartitionQueryStartsNoGoroutine(t *testing.T) {
	setProcs(t, 4)
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	tab, err := BulkLoad(fs, "one", "X", []string{"Y"}, parityCfg(), 1, sim.DefaultParams(), parityBase())
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	before := runtime.NumGoroutine()
	during := -1
	req := fracture.Req{
		Kind: fracture.KindPTQ, Value: parityVal(3), QT: 0.05,
		Trace: func(ev fracture.TraceEvent) {
			if ev.Kind == fracture.TraceScanStart {
				during = runtime.NumGoroutine()
			}
		},
	}
	prep, err := tab.Prepare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	stream := prep.Stream(context.Background())
	defer stream.Close()
	if _, ok, err := stream.Next(); !ok || err != nil {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}
	if during != before {
		t.Fatalf("%d goroutines alive when the one partition's scan started, %d before the query", during, before)
	}
}

// TestShardOfSpread: sequential IDs must spread across shards — the
// mixer, not the raw ID, decides ownership.
func TestShardOfSpread(t *testing.T) {
	const n = 8
	counts := make([]int, n)
	for id := uint64(1); id <= 1000; id++ {
		s := shardOf(id, n)
		if s < 0 || s >= n {
			t.Fatalf("shardOf(%d, %d) = %d out of range", id, n, s)
		}
		counts[s]++
	}
	for i, c := range counts {
		if c < 50 {
			t.Fatalf("shard %d owns only %d of 1000 sequential IDs: %v", i, c, counts)
		}
	}
	if shardOf(42, 1) != 0 {
		t.Fatal("single shard must own everything")
	}
}

// TestShardSoak: concurrent writers, readers on both consumption
// paths, and flush/merge churn across every shard — the -race target.
func TestShardSoak(t *testing.T) {
	tab, _ := buildSharded(t, 4)
	defer tab.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := uint64(10_000 + w*1_000)
			for i := 0; i < 150; i++ {
				if err := tab.Insert(parityTuple(id, int(id))); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 9 {
					if err := tab.Delete(id - 5); err != nil {
						t.Error(err)
						return
					}
				}
				id++
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				req := fracture.Req{Kind: fracture.KindPTQ, Value: parityVal(i), QT: 0.05}
				if i%3 == 0 {
					req = fracture.Req{Kind: fracture.KindTopK, Value: parityVal(i), K: 7}
				}
				prep, err := tab.Prepare(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				if (i+r)%2 == 0 {
					if _, _, err := prep.Collect(ctx); err != nil {
						t.Error(err)
						return
					}
				} else {
					st := prep.Stream(ctx)
					for {
						_, ok, err := st.Next()
						if err != nil {
							t.Error(err)
							return
						}
						if !ok {
							break
						}
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := tab.Flush(); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 1 {
				if err := tab.Merge(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()

	// Converged state: both consumption paths agree exactly.
	req := fracture.Req{Kind: fracture.KindPTQ, Value: parityVal(3), QT: 0.05}
	prep, err := tab.Prepare(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := prep.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	prep, err = tab.Prepare(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, prep.Stream(ctx))
	if !reflect.DeepEqual(keys(got), keys(want)) {
		t.Fatalf("post-soak paths diverged:\n got %v\nwant %v", keys(got), keys(want))
	}
}

// TestNewRefusesFewerThanOneShard: a fresh table needs at least one
// shard; New and BulkLoad refuse 0 and negative counts and create
// nothing.
func TestNewRefusesFewerThanOneShard(t *testing.T) {
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	for _, n := range []int{0, -1} {
		if _, err := New(fs, "t", "X", nil, parityCfg(), n); err == nil {
			t.Fatalf("New with %d shards succeeded", n)
		}
		if _, err := BulkLoad(fs, "t", "X", nil, parityCfg(), n, sim.DefaultParams(), []*tuple.Tuple{parityTuple(1, 0)}); err == nil {
			t.Fatalf("BulkLoad with %d shards succeeded", n)
		}
	}
	if files := fs.List(); len(files) != 0 {
		t.Fatalf("refused tables left files %v", files)
	}
}
