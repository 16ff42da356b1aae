package planner

import (
	"errors"
	"testing"

	"upidb/internal/cupi"
	"upidb/internal/dataset"
	"upidb/internal/prob"
	"upidb/internal/sim"
	"upidb/internal/stats"
	"upidb/internal/storage"
)

func newSpatialFixture(t *testing.T, n int) (*cupi.Table, *stats.SpatialCatalog, *dataset.Cartel) {
	t.Helper()
	cfg := dataset.DefaultCartelConfig()
	cfg.Observations = n
	cfg.GridN = 20
	c, err := dataset.GenerateCartel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	tab, err := cupi.BulkBuild(fs, "sp", c.Observations, cupi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat := stats.NewSpatialCatalog()
	cat.Seed(c.Observations)
	return tab, cat, c
}

// TestSpatialPlannerRoutesByCoverage needs a table big enough that
// the sequential heap read dominates a handful of node-page seeks —
// the paper's regime; on a sub-megabyte heap the full scan genuinely
// wins everything and the comparison is vacuous.
func TestSpatialPlannerRoutesByCoverage(t *testing.T) {
	tab, cat, c := newSpatialFixture(t, 25000)
	p := NewSpatial(tab, cat, sim.DefaultParams())
	center := c.Extent.Center()

	// A tiny circle: the R-Tree probe must win.
	small, err := p.PlanCircle(center, 50, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if small[0].Kind != RTreeProbe {
		t.Fatalf("small radius chose %v:\n%s", small[0].Kind, Explain(small))
	}
	// A circle covering the whole extent: the sequential scan must win
	// (every leaf would be probed anyway, paying a seek each).
	huge, err := p.PlanCircle(center, 100*(c.Extent.MaxX-c.Extent.MinX), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if huge[0].Kind != SpatialScan {
		t.Fatalf("saturating radius chose %v:\n%s", huge[0].Kind, Explain(huge))
	}
	// Plans come back cheapest-first and Explain renders all of them.
	for _, plans := range [][]Plan{small, huge} {
		for i := 1; i < len(plans); i++ {
			if plans[i].EstimatedCost < plans[i-1].EstimatedCost {
				t.Fatalf("plans not sorted:\n%s", Explain(plans))
			}
		}
		if Explain(plans) == "" {
			t.Fatal("empty explain")
		}
	}
}

func TestSpatialPlannerSegment(t *testing.T) {
	tab, cat, c := newSpatialFixture(t, 25000)
	p := NewSpatial(tab, cat, sim.DefaultParams())
	counts := make(map[string]int)
	for _, o := range c.Observations {
		counts[o.Segment.First().Value]++
	}
	seg, best := "", 0
	for s, n := range counts {
		if n > best {
			seg, best = s, n
		}
	}
	plans, err := p.PlanSegment(seg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if plans[0].Kind != SegmentScan && plans[0].Kind != SpatialScan {
		t.Fatalf("segment plan %v", plans[0].Kind)
	}
	// A selective segment query must prefer the index.
	sel, err := p.PlanSegment(seg, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if sel[0].Kind != SegmentScan {
		t.Fatalf("selective segment query chose %v:\n%s", sel[0].Kind, Explain(sel))
	}
	if sel[0].EstimatedRows > plans[0].EstimatedRows {
		t.Fatalf("row estimate not monotone in qt: %v vs %v", sel[0].EstimatedRows, plans[0].EstimatedRows)
	}
}

func TestSpatialPlannerNoStats(t *testing.T) {
	tab, _, _ := newSpatialFixture(t, 200)
	p := NewSpatial(tab, stats.NewSpatialCatalog(), sim.DefaultParams())
	if _, err := p.PlanCircle(prob.Point{}, 100, 0.5); !errors.Is(err, ErrNoStats) {
		t.Fatalf("PlanCircle without stats: %v", err)
	}
	if _, err := p.PlanSegment("s", 0.5); !errors.Is(err, ErrNoStats) {
		t.Fatalf("PlanSegment without stats: %v", err)
	}
}
