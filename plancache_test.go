package upidb

// Plan-cache tests: golden parity between fresh-plan and cached-plan
// executions at several shard counts; plan-cache invalidation across
// merge rebuilds, flushes and staleness transitions; option-scope
// validation; and a race-enabled soak of shared Query values against
// concurrent maintenance.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
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

// sansSource zeroes the provenance field: cached and fresh executions
// must agree on everything else.
func sansSource(i QueryInfo) QueryInfo {
	i.PlanSource = ""
	return i
}

// TestPreparedAndCachedParity: at shard counts 1, 2 and 7, for every
// query kind and routing, a repeat served from the plan cache is
// byte-identical to the first, freshly costed execution — same rows,
// same order, same statistics, same modeled cost. Only PlanSource
// differs, flipping to cached-plan on the repeat of a planner-routed
// shape.
func TestPreparedAndCachedParity(t *testing.T) {
	queries := []struct {
		q       Query
		planned bool // planner-routed: the repeat must hit the plan cache
	}{
		{PTQ("", "v03", 0.05).WithStats(), true},
		{PTQ("", "v03", 0.4).WithStats(), true},
		{PTQ("Y", "yv02", 0.05).WithStats(), true},
		{PTQ("", "v04", 0.1).WithHeuristic().WithStats(), false},
		{TopKQuery("v04", 9).WithStats(), false},
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
			for qi, qc := range queries {
				run := func(ctx context.Context) (*Results, error) { return tab.Run(ctx, qc.q) }
				freshRes, freshInfo := runCollect(t, run)
				cachedRes, cachedInfo := runCollect(t, run)
				wantFresh, wantCached := PlanSourceHeuristic, PlanSourceHeuristic
				if qc.planned {
					wantFresh, wantCached = PlanSourceStats, PlanSourceCached
				}
				if freshInfo.PlanSource != wantFresh || cachedInfo.PlanSource != wantCached {
					t.Fatalf("q=%d: plan sources %q then %q, want %q then %q",
						qi, freshInfo.PlanSource, cachedInfo.PlanSource, wantFresh, wantCached)
				}
				if !reflect.DeepEqual(cachedRes, freshRes) {
					t.Fatalf("q=%d: results diverged under the plan cache\n got %v\nwant %v", qi, cachedRes, freshRes)
				}
				if got, want := sansSource(cachedInfo), sansSource(freshInfo); !reflect.DeepEqual(got, want) {
					t.Fatalf("q=%d: info diverged under the plan cache\n got %+v\nwant %+v", qi, got, want)
				}
			}
		})
	}
}

// TestPlanCacheInvalidation: a cached plan is served only while the
// catalog generation and partition layout are unchanged — merge
// rebuilds, flushes and staleness-threshold transitions all force a
// fresh costing, and every execution answers ground truth throughout.
func TestPlanCacheInvalidation(t *testing.T) {
	db := mustCreate(t)
	mirror := map[uint64]*Tuple{}
	var load []*Tuple
	for i := 0; i < 120; i++ {
		tup := shardTestTuple(t, uint64(i+1), i+1)
		load = append(load, tup)
		mirror[tup.ID] = tup
	}
	tab, err := db.BulkLoadTable("inv", "X", []string{"Y"}, load, WithCutoff(0.15))
	if err != nil {
		t.Fatal(err)
	}
	q := PTQ("", "v03", 0.2)
	check := func(wantSource string, stage string) {
		t.Helper()
		res, info := runCollect(t, func(ctx context.Context) (*Results, error) {
			return tab.Run(ctx, q)
		})
		if info.PlanSource != wantSource {
			t.Fatalf("%s: plan source %q, want %q", stage, info.PlanSource, wantSource)
		}
		var want int
		for _, tup := range mirror {
			if tup.Confidence("X", "v03") >= 0.2 {
				want++
			}
		}
		if len(res) != want {
			t.Fatalf("%s: %d results, ground truth %d", stage, len(res), want)
		}
	}

	gen0 := tab.StatsInfo().Generation
	check(PlanSourceStats, "first run")
	check(PlanSourceCached, "warm repeat")

	// A merge rebuild replaces the statistics wholesale: the cached
	// plan must not survive it.
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	if g := tab.StatsInfo().Generation; g <= gen0 {
		t.Fatalf("merge did not advance the generation: %d -> %d", gen0, g)
	}
	check(PlanSourceStats, "post-merge")
	check(PlanSourceCached, "post-merge repeat")

	// A flush changes the partition layout (and so the plan's cost
	// inputs) without touching the generation: the fracture count in
	// the cache key forces a re-cost.
	extra := shardTestTuple(t, 5000, 3)
	mirror[extra.ID] = extra
	if err := tab.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	check(PlanSourceStats, "post-flush")
	check(PlanSourceCached, "post-flush repeat")

	// Unabsorbable deletes drive staleness past the threshold: the
	// crossing advances the generation, automatic routing degrades to
	// the heuristic, and a forced-planner repeat must re-cost rather
	// than serve a plan costed from the now-distrusted statistics.
	genFresh := tab.StatsInfo().Generation
	for id := uint64(2); tab.StatsInfo().Staleness <= tab.StatsInfo().Threshold; id++ {
		if err := tab.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(mirror, id)
	}
	if g := tab.StatsInfo().Generation; g <= genFresh {
		t.Fatalf("staleness crossing did not advance the generation: %d -> %d", genFresh, g)
	}
	check(PlanSourceHeuristic, "stale catalog")

	forced := q.WithPlanner()
	res, info := runCollect(t, func(ctx context.Context) (*Results, error) {
		return tab.Run(ctx, forced)
	})
	if info.PlanSource != PlanSourceForced {
		t.Fatalf("forced after crossing: %q (cached plan outlived its statistics)", info.PlanSource)
	}
	res2, info2 := runCollect(t, func(ctx context.Context) (*Results, error) {
		return tab.Run(ctx, forced)
	})
	if info2.PlanSource != PlanSourceCached || !reflect.DeepEqual(res, res2) {
		t.Fatalf("forced repeat: %q, %d vs %d results", info2.PlanSource, len(res2), len(res))
	}
}

// TestDropCachesPurgesPlanCache: DropCaches returns the table to the
// cold state bench runs rely on — the next planner-routed repeat costs
// from scratch.
func TestDropCachesPurgesPlanCache(t *testing.T) {
	db := mustCreate(t)
	var load []*Tuple
	for i := 0; i < 80; i++ {
		load = append(load, shardTestTuple(t, uint64(i+1), i+1))
	}
	tab, err := db.BulkLoadTable("drop", "X", nil, load, WithCutoff(0.15))
	if err != nil {
		t.Fatal(err)
	}
	q := PTQ("", "v02", 0.2)
	run := func() string {
		res, err := tab.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for range res.All() {
		}
		return res.Info().PlanSource
	}
	run()
	if src := run(); src != PlanSourceCached {
		t.Fatalf("warm repeat: %q", src)
	}
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if src := run(); src != PlanSourceStats {
		t.Fatalf("post-DropCaches repeat: %q (plan cache not purged)", src)
	}
}

// TestOptionScopeValidation: every option names its scope, and a
// misplaced option fails loudly at resolution time.
func TestOptionScopeValidation(t *testing.T) {
	if _, err := Create("", WithNodePageSize(4096)); err == nil ||
		!strings.Contains(err.Error(), "spatial-level option") {
		t.Fatalf("spatial option at db scope: %v", err)
	}
	db := mustCreate(t)
	if _, err := db.CreateTable("t", "X", nil, WithHeapPageSize(1024)); err == nil ||
		!strings.Contains(err.Error(), "spatial-level option") {
		t.Fatalf("spatial option at table scope: %v", err)
	}
	if _, err := db.BulkLoadSpatial("s", nil, WithCutoff(0.1)); err == nil ||
		!strings.Contains(err.Error(), "table-level option") {
		t.Fatalf("table option at spatial scope: %v", err)
	}
	if _, err := db.BulkLoadSpatial("s", nil, WithDiskBackend("/tmp/x")); err == nil ||
		!strings.Contains(err.Error(), "database-level option") {
		t.Fatalf("db option at spatial scope: %v", err)
	}

	// The spatial options land at spatial scope.
	seg, err := NewDiscrete([]Alternative{{Value: "seg-1", Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	obs := []*Observation{
		{ID: 1, Loc: ConstrainedGaussian{Center: Point{X: 0, Y: 0}, Sigma: 10, Bound: 50}, Segment: seg},
	}
	if _, err := db.BulkLoadSpatial("fn", obs, WithNodePageSize(2048), WithHeapPageSize(32*1024)); err != nil {
		t.Fatalf("spatial functional options: %v", err)
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
		PTQ("", "v03", 0.2).WithStats(),
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
	// answers and reports a sane provenance.
	res, err := tab.Run(context.Background(), shared[0])
	if err != nil {
		t.Fatal(err)
	}
	for range res.All() {
	}
	switch src := res.Info().PlanSource; src {
	case PlanSourceStats, PlanSourceCached, PlanSourceHeuristic:
	default:
		t.Fatalf("post-soak plan source: %q", src)
	}
}
