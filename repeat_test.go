package upidb

// Query descriptors are values: golden parity between a first and a
// repeated execution of one descriptor at several shard counts;
// option-scope validation; and a race-enabled soak of shared Query
// values against concurrent maintenance.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"upidb/internal/storage"
)

// runCollect drains one execution and returns its ordered (id,
// confidence) pairs plus the final QueryInfo.
func runCollect(t *testing.T, run func(context.Context) (*Results, error)) ([][2]float64, QueryInfo) {
	t.Helper()
	res, err := run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]float64
	for r, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]float64{float64(r.Tuple.ID), r.Confidence})
	}
	return out, res.Info()
}

// TestPreparedAndCachedParity: at shard counts 1, 2 and 7, for every
// query kind, a repeat of one descriptor is byte-identical to its first
// execution — same rows, same order, same statistics, same modeled
// cost: nothing is remembered between runs.
func TestPreparedAndCachedParity(t *testing.T) {
	queries := []Query{
		PTQ("", "v03", 0.05),
		PTQ("", "v03", 0.4),
		PTQ("Y", "yv02", 0.05),
		PTQ("", "v04", 0.1),
		TopKQuery("v04", 9),
	}
	for _, shards := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := mustCreate(t)
			var load []*Tuple
			for i := 0; i < 150; i++ {
				load = append(load, shardTestTuple(t, uint64(i+1), i+1))
			}
			tab, err := db.BulkLoadTable("plain", "X", []string{"Y"}, load, WithCutoff(0.15), WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			id := uint64(1000)
			for f := 0; f < 2; f++ {
				for i := 0; i < 15; i++ {
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
			for qi, q := range queries {
				run := func(ctx context.Context) (*Results, error) { return tab.Run(ctx, q) }
				// Both executions start from dropped buffer pools, so the
				// modeled costs are comparable.
				if err := tab.DropCaches(); err != nil {
					t.Fatal(err)
				}
				firstRes, firstInfo := runCollect(t, run)
				if err := tab.DropCaches(); err != nil {
					t.Fatal(err)
				}
				againRes, againInfo := runCollect(t, run)
				if len(firstRes) == 0 {
					t.Fatalf("q=%d: no rows; the parity is vacuous", qi)
				}
				if !reflect.DeepEqual(againRes, firstRes) {
					t.Fatalf("q=%d: results diverged on the repeat\n got %v\nwant %v", qi, againRes, firstRes)
				}
				if againInfo != firstInfo {
					t.Fatalf("q=%d: info diverged on the repeat\n got %+v\nwant %+v", qi, againInfo, firstInfo)
				}
			}
		})
	}
}

// TestOptionScopeValidation: a database-level option passed to a
// table fails loudly at resolution time.
func TestOptionScopeValidation(t *testing.T) {
	db := mustCreate(t)
	for name, opt := range map[string]Option{
		"WithDiskBackend": WithDiskBackend(t.TempDir()),
		"WithBackend":     WithBackend(storage.NewMemBackend()),
	} {
		if _, err := db.CreateTable("t", "X", nil, opt); err == nil ||
			!strings.Contains(err.Error(), name+" is a database-level option") {
			t.Fatalf("%s at table scope: %v", name, err)
		}
	}
}

// TestSoakPreparedQueries: Query descriptors are values — the same
// ones are Run from many goroutines while inserts, deletes, flushes and
// merges churn the table. Every execution must succeed and yield a
// well-ordered result stream. Run under -race in CI.
func TestSoakPreparedQueries(t *testing.T) {
	db := mustCreate(t)
	var load []*Tuple
	for i := 0; i < 120; i++ {
		load = append(load, shardTestTuple(t, uint64(i+1), i+1))
	}
	tab, err := db.BulkLoadTable("soakprep", "X", []string{"Y"}, load,
		WithCutoff(0.15), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	shared := []Query{
		PTQ("", "v03", 0.2),
		PTQ("Y", "yv02", 0.05),
		TopKQuery("v04", 7),
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := tab.Run(context.Background(), shared[i%len(shared)])
				if err != nil {
					errs <- fmt.Errorf("reader %d iter %d: %w", r, i, err)
					return
				}
				prev := 2.0 // above any confidence
				for rr, err := range res.All() {
					if err != nil {
						errs <- fmt.Errorf("reader %d iter %d stream: %w", r, i, err)
						return
					}
					if rr.Confidence > prev {
						errs <- fmt.Errorf("reader %d iter %d: out-of-order yield", r, i)
						return
					}
					prev = rr.Confidence
				}
			}
		}(r)
	}

	id := uint64(10_000)
	for round := 0; round < 25; round++ {
		for i := 0; i < 10; i++ {
			if err := tab.Insert(shardTestTuple(t, id, int(id))); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if err := tab.Delete(uint64(round*3 + 1)); err != nil {
			t.Fatal(err)
		}
		if err := tab.Flush(); err != nil {
			t.Fatal(err)
		}
		if round%5 == 4 {
			if err := tab.Merge(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The descriptors survive everything above; a final execution still
	// answers.
	res, err := tab.Run(context.Background(), shared[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Len(); n == 0 || res.Err() != nil {
		t.Fatalf("post-soak execution: %d rows, err %v", n, res.Err())
	}
}
