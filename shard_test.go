package upidb

// Facade-level sharding tests: WithShards option validation and
// scoping, golden parity between a sharded and an unsharded table
// through the public Query API, durable sharded recovery through the
// PR 6 WAL machinery (one WAL + manifest per shard), and WithTrace
// span delivery.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestWithShardsValidation: n <= 0 is a typed refusal at both scopes,
// the DB-scope default flows into tables, and a table-scope value
// overrides it.
func TestWithShardsValidation(t *testing.T) {
	if _, err := Create("", WithShards(0)); !errors.Is(err, ErrInvalidShards) {
		t.Fatalf("Create(WithShards(0)): got %v, want ErrInvalidShards", err)
	}
	db := mustCreate(t)
	if _, err := db.CreateTable("bad", "X", nil, WithShards(-3)); !errors.Is(err, ErrInvalidShards) {
		t.Fatalf("CreateTable(WithShards(-3)): got %v, want ErrInvalidShards", err)
	}

	db, err := Create("", WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err := db.CreateTable("inherit", "X", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.NumShards(); got != 3 {
		t.Fatalf("DB-scope WithShards(3): table has %d shards", got)
	}
	tab, err = db.CreateTable("override", "X", nil, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.NumShards(); got != 1 {
		t.Fatalf("table-scope WithShards(1): table has %d shards", got)
	}
}

// shardQueries is the query surface the parity tests compare.
func shardQueries() []Query {
	return []Query{
		PTQ("", "v03", 0.05),
		PTQ("", "v03", 0.4),
		PTQ("Y", "yv02", 0.05),
		TopKQuery("v04", 9),
	}
}

func collectKeys(t *testing.T, tab *Table, q Query) [][2]float64 {
	t.Helper()
	res, err := tab.Run(context.Background(), q)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var out [][2]float64
	for r, err := range res.All() {
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		out = append(out, [2]float64{float64(r.Tuple.ID), r.Confidence})
	}
	return out
}

// TestFacadeShardParity: the same logical workload behind WithShards(1)
// and WithShards(3) answers every query kind with identical result
// sets in identical global order, under both automatic and forced
// routing.
func TestFacadeShardParity(t *testing.T) {
	build := func(n int) *Table {
		db := mustCreate(t)
		var load []*Tuple
		for i := 0; i < 150; i++ {
			load = append(load, shardTestTuple(t, uint64(i+1), i+1))
		}
		tab, err := db.BulkLoadTable(fmt.Sprintf("parity%d", n), "X", []string{"Y"},
			load, WithCutoff(0.15), WithShards(n))
		if err != nil {
			t.Fatal(err)
		}
		id := uint64(1000)
		for f := 0; f < 3; f++ {
			for i := 0; i < 20; i++ {
				if err := tab.Insert(shardTestTuple(t, id, int(id))); err != nil {
					t.Fatal(err)
				}
				id++
			}
			if err := tab.Delete(uint64(f*9 + 1)); err != nil {
				t.Fatal(err)
			}
			if err := tab.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.Insert(shardTestTuple(t, id, int(id))); err != nil {
			t.Fatal(err)
		}
		if err := tab.Delete(77); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	ref := build(1)
	sharded := build(3)
	if got := sharded.NumShards(); got != 3 {
		t.Fatalf("sharded table has %d shards", got)
	}
	for qi, q := range shardQueries() {
		for _, route := range []func(Query) Query{
			func(q Query) Query { return q },
			Query.WithPlanner,
		} {
			want := collectKeys(t, ref, route(q))
			got := collectKeys(t, sharded, route(q))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("q=%d: sharded diverged\n got %v\nwant %v", qi, got, want)
			}
		}
	}
}

func shardTestTuple(t testing.TB, id uint64, v int) *Tuple {
	t.Helper()
	p := 0.3 + float64((id*7+uint64(v)*13)%60)/100
	val := func(i int) string { return fmt.Sprintf("v%02d", i%7) }
	x, err := NewDiscrete([]Alternative{
		{Value: val(v), Prob: p}, {Value: val(v + 1), Prob: (1 - p) * 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	y, err := NewDiscrete([]Alternative{{Value: "y" + val(v), Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return &Tuple{ID: id, Existence: 0.9, Unc: []UncField{{Name: "X", Dist: x}, {Name: "Y", Dist: y}}}
}

// TestShardedDurability: a sharded durable table recovers through the
// per-shard WAL + manifest machinery — acknowledged writes survive
// Close/Open, the shard count is rediscovered from its sideband file,
// and reopening with a contradicting count is refused.
func TestShardedDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("authors", "X", []string{"Y"}, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	live := map[uint64]bool{}
	for id := uint64(1); id <= 40; id++ {
		if err := tab.Insert(durTuple(t, id, durVal(id))); err != nil {
			t.Fatal(err)
		}
		live[id] = true
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	// Acknowledged but unflushed: these must come back from the WALs.
	for id := uint64(41); id <= 50; id++ {
		if err := tab.Insert(durTuple(t, id, durVal(id))); err != nil {
			t.Fatal(err)
		}
		live[id] = true
	}
	if err := tab.Delete(7); err != nil {
		t.Fatal(err)
	}
	delete(live, 7)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err = db.OpenTable("authors", "X", []string{"Y"})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.NumShards(); got != 2 {
		t.Fatalf("reopened with %d shards, want 2", got)
	}
	verifyLive(t, tab, live)

	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.OpenTable("authors", "X", []string{"Y"}, WithShards(5)); err == nil {
		t.Fatal("reopen with wrong shard count succeeded")
	} else if !strings.Contains(err.Error(), "resharding") {
		t.Fatalf("want resharding refusal, got: %v", err)
	}
}

// TestQueryWithTrace: WithTrace delivers admission, per-shard dispatch,
// balanced scan spans and one yield per result through the public API.
func TestQueryWithTrace(t *testing.T) {
	db := mustCreate(t)
	tab, err := db.CreateTable("traced", "X", []string{"Y"}, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 60; id++ {
		if err := tab.Insert(shardTestTuple(t, id, int(id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var events []TraceEvent
	q := PTQ("", "v03", 0.05).WithTrace(func(ev TraceEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	res, err := tab.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("traced query returned nothing")
	}

	counts := map[string]int{}
	dispatchShards := map[int]bool{}
	for _, ev := range events {
		counts[ev.Kind]++
		if ev.Kind == TraceDispatch {
			dispatchShards[ev.Shard] = true
		}
	}
	if counts[TraceAdmission] != 1 {
		t.Fatalf("admission events: %d, want 1 (events: %v)", counts[TraceAdmission], counts)
	}
	if counts[TraceDispatch] != 2 || !dispatchShards[0] || !dispatchShards[1] {
		t.Fatalf("dispatch events %d over shards %v, want one per shard", counts[TraceDispatch], dispatchShards)
	}
	if counts[TraceScanStart] == 0 || counts[TraceScanStart] != counts[TraceScanEnd] {
		t.Fatalf("unbalanced scan spans: %d starts, %d ends", counts[TraceScanStart], counts[TraceScanEnd])
	}
	if counts[TraceYield] != n {
		t.Fatalf("%d yield events for %d results", counts[TraceYield], n)
	}
}

// TestTopKAfterBestDelete: at shard counts 1, 2 and 7, repeatedly
// deleting the best tuple of a value — one whose tuples sit in main,
// one in a flushed fracture, one in the RAM buffer — leaves
// TopKQuery(value, 3) equal to the first three rows of the brute-force
// oracle, while the tombstones are buffered and after they are flushed.
// The k of a top-k counts live rows, after the supersedence filter; a
// partition that stopped at its first k heap entries would come up
// short (or rank a worse row from elsewhere) once its head is deleted.
func TestTopKAfterBestDelete(t *testing.T) {
	// 40 tuples per value with distinct confidences; value v%02d of
	// fracturedTuple's v = 0, 2, 4 (their second alternatives land on
	// the odd values and never interfere).
	batch := func(firstID uint64, v int) []*Tuple {
		var out []*Tuple
		for i := 0; i < 40; i++ {
			out = append(out, fracturedTuple(t, firstID+uint64(i), v, 0.95-float64(i)*0.01))
		}
		return out
	}
	for _, shards := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := mustCreate(t)
			ref := &refTable{live: make(map[uint64]*Tuple)}
			inMain := batch(1, 0)
			tab, err := db.BulkLoadTable("topkdel", "X", []string{"Y"}, inMain, WithCutoff(0.15), WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			for _, tup := range inMain {
				ref.live[tup.ID] = tup
			}
			insert := func(tuples []*Tuple) {
				for _, tup := range tuples {
					if err := tab.Insert(tup); err != nil {
						t.Fatal(err)
					}
					ref.live[tup.ID] = tup
				}
			}
			insert(batch(1000, 2))
			if err := tab.Flush(); err != nil {
				t.Fatal(err)
			}
			insert(batch(2000, 4))

			queries := []Query{TopKQuery("v00", 3), TopKQuery("v02", 3), TopKQuery("v04", 3)}
			check := func(stage string, q Query) {
				t.Helper()
				res, err := tab.Run(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstRef(t, ref, fmt.Sprintf("%s, top-3 of %s", stage, q.value), q, res.Collect())
			}
			for _, q := range queries {
				for round := 0; round < 12; round++ {
					best := ref.query("X", q.value, 0)[0]
					if err := tab.Delete(best); err != nil {
						t.Fatal(err)
					}
					delete(ref.live, best)
					check(fmt.Sprintf("tombstone of %d buffered", best), q)
				}
			}
			if err := tab.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				check("tombstones flushed", q)
			}
		})
	}
}
