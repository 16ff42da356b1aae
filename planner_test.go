package upidb

// The statistics-and-planning contract: a default Run routes by the
// fixed rule and executes no planner code; cost-based selection is
// opt-in (WithPlanner) over histograms that a bulk load builds, that
// BuildStats replaces, and that nothing else maintains.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestDefaultRunDoesNotPlan: on a bulk-loaded table — histograms are
// there for the asking — a default PTQ reports the fixed route and no
// plan, prices nothing, and allocates what the stream set-up allocates;
// a default circle and segment on a spatial table route the same way.
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
	if !tab.StatsInfo().Seeded {
		t.Fatal("a bulk load builds histograms")
	}
	ctx := context.Background()
	for _, q := range []Query{PTQ("", "v03", 0.2), PTQ("Y", "yv02", 0.5), TopKQuery("v03", 5)} {
		before := db.Metrics()
		res, err := tab.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Len(); n == 0 {
			t.Fatalf("%v: no rows; check vacuous", q.kind)
		}
		if info := res.Info(); info.PlanSource != PlanSourceHeuristic || info.Plan != "" {
			t.Fatalf("default %v: source %q plan %q, want %q and none", q.kind, info.PlanSource, info.Plan, PlanSourceHeuristic)
		}
		after := db.Metrics()
		for series, want := range map[string]int64{
			`upidb_planner_route_total{source="forced"}`:    0,
			`upidb_planner_route_total{source="heuristic"}`: 1,
			`upidb_admission_total{verdict="unpriced"}`:     1,
			`upidb_admission_total{verdict="admitted"}`:     0,
		} {
			if got := counterDelta(before, after, series); got != want {
				t.Errorf("default %v: %s moved by %d, want %d", q.kind, series, got, want)
			}
		}
		const priced = "upidb_planner_modeled_cost_seconds"
		if got := after.Histograms[priced].Count - before.Histograms[priced].Count; got != 0 {
			t.Errorf("default %v: %d plans priced, want none", q.kind, got)
		}
	}
	// Run + Close is validation, one dispatch count per shard and the
	// snapshot pin: it does not grow with the table or the histograms.
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
		if info := res.Info(); info.PlanSource != PlanSourceHeuristic || info.Plan != "" {
			t.Fatalf("default %v: source %q plan %q, want %q and none", q.kind, info.PlanSource, info.Plan, PlanSourceHeuristic)
		}
	}
}

func TestFacadeExplain(t *testing.T) {
	db := mustCreate(t)
	tuples := exampleTuples(t)
	authors, err := db.BulkLoadTable("authors", "Institution", []string{"Country"},
		tuples, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := authors.Run(ctx, PTQ("Institution", "MIT", 0.1).WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Info().Explain
	if !strings.Contains(out, "PrimaryScan") || !strings.Contains(out, "FullScan") {
		t.Fatalf("explain output: %q", out)
	}
	// Explain names the route Run would take: the fixed rule here.
	if !strings.HasPrefix(out, "routing: fixed rule, PrimaryScan") {
		t.Fatalf("explain should be headed by the fixed route: %q", out)
	}
	if info := res.Info(); info.PlanSource != PlanSourceHeuristic || info.Plan != "PrimaryScan" {
		t.Fatalf("explain source %q plan %q", info.PlanSource, info.Plan)
	}
	if res.Len() != 0 {
		t.Fatalf("explain-only run returned results: %+v", res.Collect())
	}
	// Under WithPlanner it names the cheapest costed plan.
	res, err = authors.Run(ctx, PTQ("Institution", "MIT", 0.25).WithPlanner().WithExplain())
	if err != nil || !strings.HasPrefix(res.Info().Explain, "routing: planner, forced by WithPlanner") {
		t.Fatalf("forced explain: %v %q", err, res.Info().Explain)
	}
	if info := res.Info(); info.PlanSource != PlanSourceForced || !strings.Contains(info.Explain, "* "+info.Plan) {
		t.Fatalf("forced explain source %q plan %q: %q", info.PlanSource, info.Plan, info.Explain)
	}
	// Secondary explain includes the tailored plan, which is the fixed
	// route there.
	res, err = authors.Run(ctx, PTQ("Country", "Japan", 0.3).WithExplain())
	if err != nil || !strings.Contains(res.Info().Explain, "SecondaryTailored") || res.Info().Plan != "SecondaryTailored" {
		t.Fatalf("secondary explain: %v plan %q %q", err, res.Info().Plan, res.Info().Explain)
	}
	// Explain is PTQ-only: a top-k explain request errors instead of
	// silently executing.
	if _, err := authors.Run(ctx, TopKQuery("MIT", 2).WithExplain()); err == nil {
		t.Fatal("top-k WithExplain accepted")
	}
	// Unknown attribute fails with the typed sentinel.
	if _, err := authors.Run(ctx, PTQ("Nope", "x", 0.1).WithExplain()); !errors.Is(err, ErrUnknownAttr) {
		t.Fatalf("unknown attribute: %v", err)
	}
}

// explainOf returns the costed-plan listing of q.
func explainOf(t *testing.T, tab *Table, q Query) string {
	t.Helper()
	res, err := tab.Run(context.Background(), q.WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	return res.Info().Explain
}

// movedTo returns old with the same ID, probabilities and sizes but its
// alternatives renamed onto value v (and v+1), so replacing old with it
// changes what a histogram would count and nothing about the layout.
func movedTo(t *testing.T, old *Tuple, v int) *Tuple {
	t.Helper()
	fresh := shardTestTuple(t, old.ID, v)
	for f := range fresh.Unc {
		alts := append([]Alternative(nil), fresh.Unc[f].Dist...)
		for i := range alts {
			alts[i].Prob = old.Unc[f].Dist[i].Prob
		}
		d, err := NewDiscrete(alts)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Unc[f].Dist = d
	}
	return fresh
}

// TestNothingMaintainsStatistics: the listing taken right after a bulk
// load is what WithExplain keeps printing, byte for byte, after deletes,
// inserts, a flush and a merge have moved a quarter of the table onto
// one value; BuildStats over the current tuples changes it. (Each
// replacement has its victim's ID, probabilities and size, so the merged
// table has the geometry of the loaded one and only the histograms could
// move the listing.)
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
	queries := []Query{PTQ("", "v03", 0.2), PTQ("Y", "yv03", 0.5).WithPlanner()}
	var loaded []string
	for _, q := range queries {
		loaded = append(loaded, explainOf(t, tab, q))
	}

	for i := 0; i < len(live); i += 4 {
		if live[i].Confidence("X", "v03") > 0 {
			continue // the value must gain rows, not churn them
		}
		if err := tab.Delete(live[i].ID); err != nil {
			t.Fatal(err)
		}
		live[i] = movedTo(t, live[i], 3)
		if err := tab.Insert(live[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if got := explainOf(t, tab, q); got == loaded[i] {
			t.Fatalf("q=%d: a fracture per shard did not move the listing; geometry is not read live", i)
		}
	}
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if got := explainOf(t, tab, q); got != loaded[i] {
			t.Fatalf("q=%d: listing moved without BuildStats\n loaded %q\n now    %q", i, loaded[i], got)
		}
	}
	if err := tab.BuildStats(live); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if got := explainOf(t, tab, q); got == loaded[i] {
			t.Fatalf("q=%d: BuildStats over the current tuples left the listing as loaded: %q", i, got)
		}
	}
}

// TestFacadeUnseededCatalog: a table created empty or reopened has no
// statistics — ErrNoStats on WithPlanner and WithExplain, the fixed
// route by default — until BuildStats, which covers exactly the
// attributes it names.
func TestFacadeUnseededCatalog(t *testing.T) {
	db := mustCreate(t)
	tuples := exampleTuples(t)
	ctx := context.Background()
	empty, err := db.CreateTable("born-empty", "Institution", []string{"Country"}, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range tuples {
		if err := empty.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	authors, err := db.BulkLoadTable("authors", "Institution", []string{"Country"}, tuples, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := authors.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := db.OpenTable("authors", "Institution", []string{"Country"}, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*Table{empty, re} {
		if si := tab.StatsInfo(); si.Seeded {
			t.Fatalf("%s should have no statistics: %+v", tab.Name(), si)
		}
		if _, err := tab.Run(ctx, PTQ("Institution", "MIT", 0.1).WithExplain()); !errors.Is(err, ErrNoStats) {
			t.Fatalf("%s: Explain without stats: %v", tab.Name(), err)
		}
		if _, err := tab.Run(ctx, PTQ("Institution", "MIT", 0.1).WithPlanner()); !errors.Is(err, ErrNoStats) {
			t.Fatalf("%s: planned Run without stats: %v", tab.Name(), err)
		}
		res, err := tab.Run(ctx, PTQ("Institution", "MIT", 0.1))
		if err != nil || res.Len() != 2 || res.Info().PlanSource != PlanSourceHeuristic {
			t.Fatalf("%s: default Run: %v %d %q", tab.Name(), err, res.Len(), res.Info().PlanSource)
		}
	}
	// BuildStats with an explicit attrs subset covers only that subset:
	// a valid attribute without a histogram is ErrNoStats, not
	// ErrUnknownAttr.
	if err := re.BuildStats(tuples, "Institution"); err != nil {
		t.Fatal(err)
	}
	if !re.StatsInfo().Seeded {
		t.Fatal("BuildStats on the primary attribute should report Seeded")
	}
	if _, err := re.Run(ctx, PTQ("Country", "Japan", 0.3).WithExplain()); !errors.Is(err, ErrNoStats) {
		t.Fatalf("country stats should be absent after subset BuildStats: %v", err)
	}
	res, err := re.Run(ctx, PTQ("Institution", "MIT", 0.1).WithPlanner())
	if err != nil || res.Len() != 2 || res.Info().PlanSource != PlanSourceForced {
		t.Fatalf("covered attr should plan: %v %d %q", err, res.Len(), res.Info().PlanSource)
	}
	// A merge builds nothing.
	if err := re.Merge(); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Run(ctx, PTQ("Country", "Japan", 0.3).WithPlanner()); !errors.Is(err, ErrNoStats) {
		t.Fatalf("a merge must not build statistics: %v", err)
	}
	if err := re.BuildStats(tuples); err != nil {
		t.Fatal(err)
	}
	res, err = re.Run(ctx, PTQ("Country", "Japan", 0.3).WithPlanner())
	if err != nil || res.Len() != 1 || res.Info().PlanSource != PlanSourceForced {
		t.Fatalf("full BuildStats should cover Country: %v %d %q", err, res.Len(), res.Info().PlanSource)
	}
	if err := re.BuildStats(tuples, "Nope"); err == nil {
		t.Fatal("BuildStats accepted an attribute the table does not index")
	}
}

// TestBuildStatsRacesPlannerRuns: BuildStats replaces the histograms
// while WithPlanner runs and explains cost from them and a writer
// inserts, flushes and merges. Every run answers in order, none sees a
// half-replaced set (ErrNoStats), and the final answer is the model's.
// Run under -race in CI.
func TestBuildStatsRacesPlannerRuns(t *testing.T) {
	db := mustCreate(t)
	var load []*Tuple
	for i := 0; i < 120; i++ {
		load = append(load, shardTestTuple(t, uint64(i+1), i+1))
	}
	tab, err := db.BulkLoadTable("racy", "X", []string{"Y"}, load, WithCutoff(0.15), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	shapes := []Query{
		PTQ("", "v03", 0.05).WithPlanner(),
		PTQ("Y", "yv02", 0.05).WithPlanner(),
		PTQ("", "v03", 0.4).WithPlanner().WithExplain(),
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := shapes[(r+i)%len(shapes)]
				res, err := tab.Run(ctx, q)
				if err != nil {
					errs <- fmt.Errorf("reader %d iter %d: %w", r, i, err)
					return
				}
				if q.explainOnly {
					// A plan-only handle has no rows to stream.
					if res.Info().Explain == "" {
						errs <- fmt.Errorf("reader %d iter %d: empty explain", r, i)
						return
					}
					continue
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Alternate two different samples so a replacement changes
			// what the readers cost from.
			if err := tab.BuildStats(load[:len(load)/(1+i%2)]); err != nil {
				errs <- fmt.Errorf("BuildStats %d: %w", i, err)
				return
			}
		}
	}()

	want := 0
	for _, tup := range load {
		if tup.Confidence("X", "v03") >= 0.05 {
			want++
		}
	}
	id := uint64(10_000)
	for round := 0; round < 20; round++ {
		for i := 0; i < 10; i++ {
			tup := shardTestTuple(t, id, int(id))
			if err := tab.Insert(tup); err != nil {
				t.Fatal(err)
			}
			if tup.Confidence("X", "v03") >= 0.05 {
				want++
			}
			id++
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
	res, err := tab.Run(ctx, shapes[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Len(); got != want || res.Info().PlanSource != PlanSourceForced {
		t.Fatalf("after the race: %d rows by %q, want %d by %q", got, res.Info().PlanSource, want, PlanSourceForced)
	}
}
