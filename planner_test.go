package upidb

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestFacadePlannerByDefault: a bulk load seeds the statistics catalog,
// so Run with no options routes PTQs through the planner and reports
// it; WithHeuristic restores the fixed routing with identical results.
func TestFacadePlannerByDefault(t *testing.T) {
	db := mustCreate(t)
	tuples := exampleTuples(t)
	authors, err := db.BulkLoadTable("authors", "Institution", []string{"Country"},
		tuples, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	si := authors.StatsInfo()
	if !si.Seeded || si.Staleness != 0 || si.TrackedTuples != int64(len(tuples)) {
		t.Fatalf("bulk load should seed the catalog: %+v", si)
	}
	res, err := authors.Run(ctx, PTQ("Institution", "MIT", 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || res.Info().PlanSource != PlanSourceStats || res.Info().Plan == "" {
		t.Fatalf("default Run should be planner-routed: %d results, source %q plan %q",
			res.Len(), res.Info().PlanSource, res.Info().Plan)
	}
	// The heuristic force-flag bypasses the catalog, same results.
	heur, err := authors.Run(ctx, PTQ("Institution", "MIT", 0.1).WithHeuristic())
	if err != nil {
		t.Fatal(err)
	}
	if heur.Info().PlanSource != PlanSourceHeuristic || heur.Len() != res.Len() {
		t.Fatalf("heuristic run: source %q, %d vs %d results",
			heur.Info().PlanSource, heur.Len(), res.Len())
	}
	// Secondary attribute: planner-routed by default too.
	sec, err := authors.Run(ctx, PTQ("Country", "Japan", 0.3))
	if err != nil || sec.Len() != 1 || sec.Info().PlanSource != PlanSourceStats {
		t.Fatalf("secondary planned: %v %d %q", err, sec.Len(), sec.Info().PlanSource)
	}
	// Forced planner reports its own source on a not-yet-costed shape.
	forced, err := authors.Run(ctx, PTQ("Institution", "MIT", 0.2).WithPlanner())
	if err != nil || forced.Info().PlanSource != PlanSourceForced {
		t.Fatalf("forced planner: %v %q", err, forced.Info().PlanSource)
	}
	// Repeating a shape the planner already costed serves the
	// generation-guarded cached plan — and says so.
	again, err := authors.Run(ctx, PTQ("Institution", "MIT", 0.1))
	if err != nil || again.Info().PlanSource != PlanSourceCached || again.Len() != res.Len() {
		t.Fatalf("cached repeat: %v %q %d results", err, again.Info().PlanSource, again.Len())
	}
	// Top-k ignores the planner and routes heuristically.
	topk, err := authors.Run(ctx, TopKQuery("MIT", 2))
	if err != nil || topk.Info().PlanSource != PlanSourceHeuristic {
		t.Fatalf("topk source: %v %q", err, topk.Info().PlanSource)
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
	// Explain reports the routing Run would use: fresh stats here.
	if !strings.Contains(out, "fresh stats") {
		t.Fatalf("explain should name fresh-stats routing: %q", out)
	}
	if res.Info().PlanSource != PlanSourceStats {
		t.Fatalf("explain source: %q", res.Info().PlanSource)
	}
	if res.Len() != 0 {
		t.Fatalf("explain-only run returned results: %+v", res.Collect())
	}
	// Forced explain names the force flag (fresh shape: a repeat of the
	// costed one would be served — and labeled — from the plan cache).
	res, err = authors.Run(ctx, PTQ("Institution", "MIT", 0.25).WithPlanner().WithExplain())
	if err != nil || !strings.Contains(res.Info().Explain, "forced by WithPlanner") {
		t.Fatalf("forced explain: %v %q", err, res.Info().Explain)
	}
	// Explaining an already-costed shape reports the cached provenance.
	res, err = authors.Run(ctx, PTQ("Institution", "MIT", 0.1).WithExplain())
	if err != nil || !strings.Contains(res.Info().Explain, "cached plan") ||
		res.Info().PlanSource != PlanSourceCached {
		t.Fatalf("cached explain: %v %q %q", err, res.Info().PlanSource, res.Info().Explain)
	}
	// A forced heuristic is reported as the user's choice, not as a
	// stats failure.
	res, err = authors.Run(ctx, PTQ("Institution", "MIT", 0.1).WithHeuristic().WithExplain())
	if err != nil || !strings.Contains(res.Info().Explain, "forced by WithHeuristic") {
		t.Fatalf("heuristic explain: %v %q", err, res.Info().Explain)
	}
	// Secondary explain includes the tailored plan.
	res, err = authors.Run(ctx, PTQ("Country", "Japan", 0.3).WithExplain())
	if err != nil || !strings.Contains(res.Info().Explain, "SecondaryTailored") {
		t.Fatalf("secondary explain: %v %q", err, res.Info().Explain)
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
	// A stale catalog explains the heuristic fallback. Deleting 2 of 3
	// on-disk tuples pushes staleness to 40% > 10%.
	if err := authors.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := authors.Delete(2); err != nil {
		t.Fatal(err)
	}
	res, err = authors.Run(ctx, PTQ("Institution", "MIT", 0.1).WithExplain())
	if err != nil || !strings.Contains(res.Info().Explain, "heuristic fallback") {
		t.Fatalf("stale explain: %v %q", err, res.Info().Explain)
	}
	if res.Info().PlanSource != PlanSourceHeuristic {
		t.Fatalf("stale explain source: %q", res.Info().PlanSource)
	}
}

// TestFacadeStalenessFallback: unabsorbed deletes push the catalog
// past its threshold, Run degrades to heuristic routing, and a merge
// re-derivation restores planner routing.
func TestFacadeStalenessFallback(t *testing.T) {
	db := mustCreate(t)
	tuples := exampleTuples(t)
	authors, err := db.BulkLoadTable("authors", "Institution", []string{"Country"},
		tuples, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := authors.Delete(1); err != nil { // on-disk delete: unabsorbable
		t.Fatal(err)
	}
	si := authors.StatsInfo()
	if si.Unabsorbed != 1 || si.Staleness <= si.Threshold {
		t.Fatalf("1 of 3 deleted should exceed the 10%% threshold: %+v", si)
	}
	res, err := authors.Run(ctx, PTQ("Institution", "MIT", 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Info().PlanSource != PlanSourceHeuristic {
		t.Fatalf("stale catalog should fall back to heuristic: %q", res.Info().PlanSource)
	}
	if res.Len() != 1 { // Bob only; Alice (ID 1) deleted
		t.Fatalf("results under fallback: %+v", res.Collect())
	}
	// Forced planner still works on the stale (but seeded) catalog.
	forced, err := authors.Run(ctx, PTQ("Institution", "MIT", 0.1).WithPlanner())
	if err != nil || forced.Len() != 1 || forced.Info().PlanSource != PlanSourceForced {
		t.Fatalf("forced on stale: %v %d %q", err, forced.Len(), forced.Info().PlanSource)
	}
	// Merge re-derives the histograms from its own scan: staleness
	// drops to zero and planner routing resumes.
	if err := authors.Merge(); err != nil {
		t.Fatal(err)
	}
	si = authors.StatsInfo()
	if si.Staleness != 0 || si.Rebuilds != 1 || si.TrackedTuples != 2 {
		t.Fatalf("post-merge catalog: %+v", si)
	}
	res, err = authors.Run(ctx, PTQ("Institution", "MIT", 0.1))
	if err != nil || res.Info().PlanSource != PlanSourceStats {
		t.Fatalf("post-merge routing: %v %q", err, res.Info().PlanSource)
	}
}

// TestFacadeUnseededCatalog: a reopened table has unknown content — no
// automatic planning, ErrNoStats on forced planning — until BuildStats
// seeds it or a merge re-derives it.
func TestFacadeUnseededCatalog(t *testing.T) {
	db := mustCreate(t)
	tuples := exampleTuples(t)
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
	ctx := context.Background()
	if si := re.StatsInfo(); si.Seeded {
		t.Fatalf("reopened table should start unseeded: %+v", si)
	}
	// Forced planning fails loudly with the typed sentinel.
	if _, err := re.Run(ctx, PTQ("Institution", "MIT", 0.1).WithExplain()); !errors.Is(err, ErrNoStats) {
		t.Fatalf("Explain without stats: %v", err)
	}
	if _, err := re.Run(ctx, PTQ("Institution", "MIT", 0.1).WithPlanner()); !errors.Is(err, ErrNoStats) {
		t.Fatalf("planned Run without stats: %v", err)
	}
	// Default Run degrades to heuristic routing, with correct results.
	res, err := re.Run(ctx, PTQ("Institution", "MIT", 0.1))
	if err != nil || res.Len() != 2 || res.Info().PlanSource != PlanSourceHeuristic {
		t.Fatalf("unseeded default Run: %v %d %q", err, res.Len(), res.Info().PlanSource)
	}
	// BuildStats with an explicit attrs subset seeds only that subset:
	// a valid attribute without a histogram is ErrNoStats, not
	// ErrUnknownAttr, and auto-routing covers only the seeded one.
	if err := re.BuildStats(tuples, "Institution"); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Run(ctx, PTQ("Country", "Japan", 0.3).WithExplain()); !errors.Is(err, ErrNoStats) {
		t.Fatalf("country stats should be absent after subset seed: %v", err)
	}
	res, err = re.Run(ctx, PTQ("Country", "Japan", 0.3))
	if err != nil || res.Len() != 1 || res.Info().PlanSource != PlanSourceHeuristic {
		t.Fatalf("uncovered attr should fall back: %v %d %q", err, res.Len(), res.Info().PlanSource)
	}
	res, err = re.Run(ctx, PTQ("Institution", "MIT", 0.1))
	if err != nil || res.Len() != 2 || res.Info().PlanSource != PlanSourceStats {
		t.Fatalf("seeded attr should plan: %v %d %q", err, res.Len(), res.Info().PlanSource)
	}
	// A merge re-derives every attribute, seeding the rest.
	if err := re.Merge(); err != nil {
		t.Fatal(err)
	}
	res, err = re.Run(ctx, PTQ("Country", "Japan", 0.3))
	if err != nil || res.Len() != 1 || res.Info().PlanSource != PlanSourceStats {
		t.Fatalf("post-merge country routing: %v %d %q", err, res.Len(), res.Info().PlanSource)
	}
}

// TestFacadeAutoRoutingDisabled: a negative StatsStaleness threshold
// turns automatic planner routing off; WithPlanner still works.
func TestFacadeAutoRoutingDisabled(t *testing.T) {
	db := mustCreate(t)
	tuples := exampleTuples(t)
	authors, err := db.BulkLoadTable("authors", "Institution", []string{"Country"},
		tuples, WithCutoff(0.1), WithStatsStaleness(-1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := authors.Run(ctx, PTQ("Institution", "MIT", 0.1))
	if err != nil || res.Info().PlanSource != PlanSourceHeuristic {
		t.Fatalf("auto routing should be disabled: %v %q", err, res.Info().PlanSource)
	}
	res, err = authors.Run(ctx, PTQ("Institution", "MIT", 0.1).WithPlanner())
	if err != nil || res.Info().PlanSource != PlanSourceForced || res.Len() != 2 {
		t.Fatalf("forced planner with auto off: %v %q %d", err, res.Info().PlanSource, res.Len())
	}
}
