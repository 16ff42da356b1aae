package bench

import (
	"context"
	"fmt"

	upidb "upidb"
	"upidb/internal/cupi"
	"upidb/internal/sim"
)

// SpatialRouting compares the opt-in spatial planner routing
// (WithPlanner: the spatial statistics catalog picks the cheapest of
// R-Tree probe, segment-index scan and sequential full scan) against
// both fixed physical paths on the paper's Query 4/5 mix. The planner
// and index columns run through the facade
// (WithStats modeled time); the full-scan column runs the same
// predicates on an identical continuous UPI built on a private disk,
// since the facade deliberately exposes no force-full-scan knob.
// Modeled cold-cache runtimes, deterministic per scale/seed.
func SpatialRouting(ctx context.Context, e *Env) (*Experiment, error) {
	c, err := e.Cartel()
	if err != nil {
		return nil, err
	}
	db, err := upidb.Create("")
	if err != nil {
		return nil, err
	}
	tab, err := db.BulkLoadSpatial("cars", c.Observations)
	if err != nil {
		return nil, err
	}
	// Twin table for the forced-full-scan column.
	scanDisk, scanFS := newDisk()
	scanTab, err := cupi.BulkBuild(scanFS, "cars", c.Observations, cupi.Options{})
	if err != nil {
		return nil, err
	}

	counts := make(map[string]int)
	for _, o := range c.Observations {
		counts[o.Segment.First().Value]++
	}
	seg, bestN := "", 0
	for s, n := range counts {
		if n > bestN {
			seg, bestN = s, n
		}
	}

	q := fig7QueryPoint(c.Extent)
	extentW := c.Extent.MaxX - c.Extent.MinX
	type spatialQuery struct {
		label string
		q     upidb.Query
		scan  func(ctx context.Context, tab *cupi.Table) (int, error)
	}
	circle := func(radius, th float64) spatialQuery {
		return spatialQuery{
			label: fmt.Sprintf("Q4 r=%.0f qt=%.1f", radius, th),
			q:     upidb.Circle(q, radius, th),
			scan: func(ctx context.Context, tab *cupi.Table) (int, error) {
				rs, _, err := tab.FullScanCircle(ctx, q, radius, th)
				return len(rs), err
			},
		}
	}
	segment := func(qt float64) spatialQuery {
		return spatialQuery{
			label: fmt.Sprintf("Q5 %s qt=%.1f", seg, qt),
			q:     upidb.Segment(seg, qt),
			scan: func(ctx context.Context, tab *cupi.Table) (int, error) {
				rs, _, err := tab.FullScanSegment(ctx, seg, qt)
				return len(rs), err
			},
		}
	}
	queries := []spatialQuery{
		circle(150, 0.5),
		circle(500, 0.5),
		circle(2*extentW, 0.3), // saturating: the full scan should win
		segment(0.2),
		segment(0.7),
	}

	exp := &Experiment{
		ID:      "spatial-routing",
		Title:   fmt.Sprintf("Opt-in spatial planner vs default index routing vs full scan (%d observations)", len(c.Observations)),
		XLabel:  "query",
		Columns: []string{"Planner [s]", "Index [s]", "Full scan [s]", "Results"},
		Notes:   "Planner runs WithPlanner over the grid/segment statistics catalog; Index is the default Run's fixed R-Tree/segment-index routing; Full scan filters the whole clustered heap",
	}
	for _, qc := range queries {
		if err := tab.DropCaches(); err != nil {
			return nil, err
		}
		planned, err := tab.Run(ctx, qc.q.WithStats().WithPlanner())
		if err != nil {
			return nil, err
		}
		nPlanned := planned.Len()
		if err := planned.Err(); err != nil {
			return nil, err
		}
		if err := tab.DropCaches(); err != nil {
			return nil, err
		}
		forced, err := tab.Run(ctx, qc.q.WithStats())
		if err != nil {
			return nil, err
		}
		if forced.Len() != nPlanned {
			return nil, fmt.Errorf("bench: %s: planner %d results vs forced index %d",
				qc.label, nPlanned, forced.Len())
		}
		// Full-scan column with the same per-query tape accounting the
		// facade uses (including the table-open charge), so the three
		// columns are directly comparable.
		if err := scanTab.DropCaches(); err != nil {
			return nil, err
		}
		tape := sim.NewTape()
		tape.Open(scanTab.Name())
		nScan, serr := qc.scan(ctx, scanTab.View(tape))
		scanDur := scanDisk.Replay(tape)
		if serr != nil {
			return nil, serr
		}
		if nScan != nPlanned {
			return nil, fmt.Errorf("bench: %s: planner %d results vs full scan %d",
				qc.label, nPlanned, nScan)
		}
		exp.Rows = append(exp.Rows, Row{
			Label: fmt.Sprintf("%s [%s]", qc.label, planned.Info().Plan),
			Values: []float64{
				seconds(planned.Info().ModeledTime),
				seconds(forced.Info().ModeledTime),
				seconds(scanDur),
				float64(nPlanned),
			},
		})
	}
	return exp, nil
}
