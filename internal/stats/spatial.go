// Package stats holds the statistics a spatial table keeps about itself
// for the spatial planner: see SpatialCatalog. (Discrete tables keep a
// plain histogram set; see shard.Table.BuildStats.)
package stats

import (
	"sync"

	"upidb/internal/histogram"
	"upidb/internal/prob"
	"upidb/internal/tuple"
)

// GridN is the fixed resolution of the spatial grid histogram: the
// extent is divided into GridN × GridN equal cells. A quadtree
// refinement (variable resolution where observations cluster) is a
// recorded ROADMAP follow-on.
const GridN = 32

// SegmentAttr is the attribute name the spatial catalog's segment
// histogram is registered under.
const SegmentAttr = "Segment"

// SpatialCatalog is the statistics of one spatial table. It holds
//
//   - a fixed-grid 2-D histogram of observation MBR centroids
//     (Section 6.1 generalized to two dimensions), which estimates how
//     many R-Tree candidates a circle query's MBR will touch, and
//   - a per-value confidence histogram of the uncertain segment
//     attribute (the ordinary Section 6.1 histogram over the segment
//     distribution), which estimates segment-index entry counts.
//
// Both are kept exact by Insert deltas: the facade feeds every committed
// spatial Insert to AddObservation.
// Spatial tables have no deletes and no merge, so there is no
// unabsorbed-delta channel — a seeded spatial catalog never goes
// stale. All methods are safe for concurrent use.
type SpatialCatalog struct {
	mu sync.RWMutex
	// extent is the grid's fixed frame, established when the catalog
	// is seeded (or by the first insert into an empty catalog).
	// Centroids outside it are clamped into the border cells — the
	// fixed-grid approximation this catalog accepts.
	extent    prob.Rect
	hasExtent bool
	cells     [GridN * GridN]int64
	total     int64
	seeded    bool
	// seg summarizes the segment attribute via the shared histogram
	// machinery, fed synthetic single-attribute tuples.
	seg *histogram.Histogram
}

// NewSpatialCatalog creates an unseeded spatial catalog.
func NewSpatialCatalog() *SpatialCatalog {
	return &SpatialCatalog{seg: histogram.New(SegmentAttr)}
}

// segTuple adapts one observation's segment distribution to the tuple
// shape the histogram package consumes. The observation encoding size
// stands in for the entry payload size.
func segTuple(o *tuple.Observation) (*tuple.Tuple, int64) {
	t := &tuple.Tuple{
		ID:        o.ID,
		Existence: 1,
		Unc:       []tuple.UncField{{Name: SegmentAttr, Dist: o.Segment}},
	}
	return t, int64(len(tuple.EncodeObservation(o)))
}

// Seed replaces the catalog's content with statistics derived from the
// complete observation set (the bulk-load path): the grid extent is
// the bounding box of all centroids, and every observation is
// absorbed. Seeding an empty set is valid — the catalog is complete
// (nothing exists) and future inserts establish the extent.
func (c *SpatialCatalog) Seed(obs []*tuple.Observation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells = [GridN * GridN]int64{}
	c.total = 0
	c.hasExtent = false
	c.seg = histogram.New(SegmentAttr)
	for _, o := range obs {
		cen := o.Loc.MBR().Center()
		if !c.hasExtent {
			c.extent = prob.Rect{MinX: cen.X, MinY: cen.Y, MaxX: cen.X, MaxY: cen.Y}
			c.hasExtent = true
		} else {
			c.extent = c.extent.Union(prob.Rect{MinX: cen.X, MinY: cen.Y, MaxX: cen.X, MaxY: cen.Y})
		}
	}
	for _, o := range obs {
		c.absorbLocked(o)
	}
	c.seeded = true
}

// AddObservation absorbs one committed insert — the spatial delta
// hook. On an unseeded catalog it is a no-op (the content is unknown;
// one more unknown changes nothing).
func (c *SpatialCatalog) AddObservation(o *tuple.Observation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.seeded {
		return
	}
	if !c.hasExtent {
		cen := o.Loc.MBR().Center()
		c.extent = prob.Rect{MinX: cen.X, MinY: cen.Y, MaxX: cen.X, MaxY: cen.Y}
		c.hasExtent = true
	}
	c.absorbLocked(o)
}

func (c *SpatialCatalog) absorbLocked(o *tuple.Observation) {
	c.cells[c.cellOfLocked(o.Loc.MBR().Center())]++
	c.total++
	t, enc := segTuple(o)
	c.seg.AddSized(t, enc, +1)
}

// cellOfLocked maps a centroid to its grid cell, clamping out-of-extent
// points into the border cells.
func (c *SpatialCatalog) cellOfLocked(p prob.Point) int {
	ix := cellIndex(p.X, c.extent.MinX, c.extent.MaxX)
	iy := cellIndex(p.Y, c.extent.MinY, c.extent.MaxY)
	return iy*GridN + ix
}

func cellIndex(v, lo, hi float64) int {
	if hi <= lo {
		return 0
	}
	i := int((v - lo) / (hi - lo) * GridN)
	if i < 0 {
		return 0
	}
	if i >= GridN {
		return GridN - 1
	}
	return i
}

// Seeded reports whether the catalog describes the complete table.
func (c *SpatialCatalog) Seeded() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.seeded
}

// Fresh reports whether planner routing may trust the catalog. A
// spatial catalog has no unabsorbed-delta channel (no deletes, no
// on-disk updates it cannot see), so freshness equals seededness.
func (c *SpatialCatalog) Fresh() bool { return c.Seeded() }

// TotalObservations returns the number of observations absorbed.
func (c *SpatialCatalog) TotalObservations() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.total
}

// SegmentHistogram returns the live segment-attribute histogram, or
// nil when the catalog is unseeded. The histogram keeps absorbing
// deltas after the call (it is internally synchronized).
func (c *SpatialCatalog) SegmentHistogram() *histogram.Histogram {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.seeded {
		return nil
	}
	return c.seg
}

// EstimateRectCandidates estimates how many observations' uncertainty
// regions a query rectangle intersects — the R-Tree candidate count of
// a circle query with that MBR. Cells partially covered by the
// rectangle contribute their count scaled by the covered area
// fraction (uniformity within a cell, the classic histogram
// assumption).
func (c *SpatialCatalog) EstimateRectCandidates(r prob.Rect) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.hasExtent || c.total == 0 {
		return 0
	}
	if r.ContainsRect(c.extent) {
		return float64(c.total)
	}
	w := (c.extent.MaxX - c.extent.MinX) / GridN
	h := (c.extent.MaxY - c.extent.MinY) / GridN
	if w <= 0 || h <= 0 {
		// Degenerate extent (all centroids collinear or identical):
		// everything is in the border cells; either the rect covers the
		// extent line or it does not.
		if r.Intersects(c.extent) {
			return float64(c.total)
		}
		return 0
	}
	est := 0.0
	for iy := 0; iy < GridN; iy++ {
		for ix := 0; ix < GridN; ix++ {
			n := c.cells[iy*GridN+ix]
			if n == 0 {
				continue
			}
			cell := prob.Rect{
				MinX: c.extent.MinX + float64(ix)*w,
				MinY: c.extent.MinY + float64(iy)*h,
				MaxX: c.extent.MinX + float64(ix+1)*w,
				MaxY: c.extent.MinY + float64(iy+1)*h,
			}
			if !cell.Intersects(r) {
				continue
			}
			ov := cell.Intersection(r)
			frac := ov.Area() / cell.Area()
			if frac > 1 {
				frac = 1
			}
			est += float64(n) * frac
		}
	}
	return est
}

// EstimateCircleCandidates estimates the R-Tree candidates of a circle
// query: the observations whose centroid falls inside the query MBR.
func (c *SpatialCatalog) EstimateCircleCandidates(q prob.Point, radius float64) float64 {
	return c.EstimateRectCandidates(prob.Rect{
		MinX: q.X - radius, MinY: q.Y - radius,
		MaxX: q.X + radius, MaxY: q.Y + radius,
	})
}
