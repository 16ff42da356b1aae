package planner

import (
	"fmt"
	"math"
	"time"

	"upidb/internal/cupi"
	"upidb/internal/prob"
	"upidb/internal/sim"
	"upidb/internal/stats"
)

// The physical plans the spatial planner chooses between. They extend
// the same PlanKind enum the discrete planner uses, so Explain output
// and QueryInfo.Plan render uniformly.
const (
	// RTreeProbe traverses the R-Tree with PCR filtering and fetches
	// the surviving candidates from the clustered heap (the paper's
	// Query 4 execution).
	RTreeProbe PlanKind = iota + FullScan + 1
	// SegmentScan probes the segment secondary index and fetches the
	// matching rows from the clustered heap (the paper's Query 5
	// execution).
	SegmentScan
	// SpatialScan reads the whole observation heap sequentially and
	// filters in flight — always available, and cheapest once a query
	// region covers most of the extent (or a segment is so popular the
	// index fetch touches most heap pages anyway).
	SpatialScan
)

// Spatial costs access paths for one continuous-UPI table from its
// SpatialCatalog statistics — the spatial counterpart of Planner. It
// reads statistics and table geometry live on every Plan call, so
// estimates track inserts without the planner being rebuilt.
type Spatial struct {
	tab  *cupi.Table
	cat  *stats.SpatialCatalog
	disk sim.Params
}

// NewSpatial creates a spatial planner reading statistics from cat.
func NewSpatial(tab *cupi.Table, cat *stats.SpatialCatalog, disk sim.Params) *Spatial {
	return &Spatial{tab: tab, cat: cat, disk: disk}
}

// read returns the modeled sequential-read time for n bytes.
func (p *Spatial) read(bytes float64) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	return time.Duration(bytes / (1 << 20) * float64(p.disk.ReadPerMB))
}

// PlanCircle costs the available plans for a circle query and returns
// them all, cheapest first. It fails with ErrNoStats when the catalog
// is unseeded.
func (p *Spatial) PlanCircle(q prob.Point, radius, threshold float64) ([]Plan, error) {
	if !p.cat.Seeded() {
		return nil, fmt.Errorf("%w: spatial catalog not seeded", ErrNoStats)
	}
	g := p.tab.Geometry()
	cand := p.cat.EstimateCircleCandidates(q, radius)
	avgObs := avgBytes(g.HeapBytes, g.Observations)
	nodeIO := p.disk.Seek + p.read(float64(g.NodePageSize))

	// R-Tree probe: root-to-leaf path plus one node read per candidate
	// leaf, then one mostly-sequential run over the candidates' heap
	// region (they cluster by construction).
	fill := 0.8 * float64(g.RTreeFanout)
	leaves := math.Ceil(cand / math.Max(fill, 1))
	if leaves < 1 {
		leaves = 1
	}
	probe := p.disk.Init + time.Duration(float64(g.RTreeHeight)+leaves)*nodeIO +
		p.disk.Seek + p.read(cand*avgObs)
	plans := []Plan{{
		Kind:          RTreeProbe,
		Attr:          "Loc",
		EstimatedCost: probe,
		EstimatedRows: cand,
		Detail:        fmt.Sprintf("grid estimate %.0f candidates over ~%.0f leaves", cand, leaves),
	}}
	plans = append(plans, p.spatialScanPlan(g, "Loc", cand))
	sortPlans(plans)
	return plans, nil
}

// PlanSegment costs the available plans for a segment PTQ and returns
// them all, cheapest first. It fails with ErrNoStats when the catalog
// is unseeded.
func (p *Spatial) PlanSegment(value string, qt float64) ([]Plan, error) {
	seg := p.cat.SegmentHistogram()
	if seg == nil {
		return nil, fmt.Errorf("%w: spatial catalog not seeded", ErrNoStats)
	}
	g := p.tab.Geometry()
	matches := seg.EstimateEntries(value, qt)
	avgObs := avgBytes(g.HeapBytes, g.Observations)
	avgEntry := avgBytes(g.SegBytes, seg.TotalEntries())

	// Segment index probe: root-to-leaf descent, a sequential run over
	// the matching index entries, then the clustered heap fetch —
	// segment and location correlate, so matches share heap pages (the
	// Figure 8 effect); charge one seek per heap-page run of 4.
	heapPages := math.Ceil(matches * avgObs / math.Max(float64(g.HeapPageSize), 1))
	seeks := 1 + math.Ceil(heapPages/4)
	idx := p.disk.Init + time.Duration(g.SegHeight)*p.disk.Seek + p.read(matches*avgEntry) +
		time.Duration(seeks)*p.disk.Seek + p.read(heapPages*float64(g.HeapPageSize))
	plans := []Plan{{
		Kind:          SegmentScan,
		Attr:          stats.SegmentAttr,
		EstimatedCost: idx,
		EstimatedRows: matches,
		Detail:        fmt.Sprintf("index estimate %.0f entries over ~%.0f heap pages", matches, heapPages),
	}}
	plans = append(plans, p.spatialScanPlan(g, stats.SegmentAttr, matches))
	sortPlans(plans)
	return plans, nil
}

// spatialScanPlan costs the always-available sequential full scan.
func (p *Spatial) spatialScanPlan(g cupi.Geometry, attr string, rows float64) Plan {
	cost := p.disk.Init + p.disk.Seek + p.read(float64(g.HeapBytes))
	return Plan{
		Kind:          SpatialScan,
		Attr:          attr,
		EstimatedCost: cost,
		EstimatedRows: rows,
		Detail:        fmt.Sprintf("sequential heap read of %d bytes", g.HeapBytes),
	}
}

func avgBytes(total, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(total) / float64(n)
}
