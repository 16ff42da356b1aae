// Package planner implements the cost-based access-path selection the
// paper's Section 6 motivates: "The cost models are useful for the
// query optimizer to pick a query plan and for the database
// administrator to select tuning parameters."
//
// For a PTQ the planner compares three physical plans and picks the
// cheapest by estimated cost:
//
//   - PrimaryScan: seek the UPI heap and scan sequentially; if
//     QT < C, additionally chase cutoff pointers (Cost_cut).
//   - SecondaryTailored: probe a secondary index and fetch one heap
//     region per matching tuple with tailored access.
//   - FullScan: read the whole heap file and filter (always available;
//     wins once an index plan's pointer chasing saturates).
//
// Estimates come from the Section 6.1 histograms and the Section 6.2/
// 6.3 cost models, so Explain output shows exactly the terms the paper
// defines.
package planner

import (
	"errors"
	"fmt"
	"time"

	"upidb/internal/costmodel"
	"upidb/internal/fracture"
	"upidb/internal/histogram"
	"upidb/internal/obs"
	"upidb/internal/sim"
)

// ErrNoStats reports planning without the needed statistics: either no
// histograms were built at all, or none covers the queried attribute.
// The public facade re-exports it.
var ErrNoStats = errors.New("upidb: no statistics (call BuildStats)")

// PlanKind identifies a physical access path.
type PlanKind int

// The physical plans the planner chooses between.
const (
	PrimaryScan PlanKind = iota
	SecondaryTailored
	FullScan
)

func (k PlanKind) String() string {
	switch k {
	case PrimaryScan:
		return "PrimaryScan"
	case SecondaryTailored:
		return "SecondaryTailored"
	case FullScan:
		return "FullScan"
	case RTreeProbe:
		return "RTreeProbe"
	case SegmentScan:
		return "SegmentIndexScan"
	case SpatialScan:
		return "SpatialFullScan"
	}
	return fmt.Sprintf("PlanKind(%d)", int(k))
}

// Plan is one costed access path.
type Plan struct {
	Kind PlanKind
	// Attr is the attribute the query's predicate filters on (for a
	// FullScan it names the attribute the filter applies to, not an
	// index).
	Attr string
	// EstimatedCost is the modeled runtime from the cost models.
	EstimatedCost time.Duration
	// EstimatedRows is the expected number of matching entries.
	EstimatedRows float64
	// Detail is a human-readable breakdown of the estimate.
	Detail string
}

// StatsSource supplies the planner's statistics. Histogram returns the
// live histogram for an attribute, or nil when no usable statistics
// exist for it (PlanPTQ then fails with ErrNoStats). stats.Catalog is
// the production implementation; StaticStats adapts a fixed map.
type StatsSource interface {
	Histogram(attr string) *histogram.Histogram
}

// StaticStats adapts a fixed attribute→histogram map into a
// StatsSource, for callers that build statistics once by hand.
type StaticStats map[string]*histogram.Histogram

// Histogram returns the mapped histogram (nil when absent).
func (m StaticStats) Histogram(attr string) *histogram.Histogram { return m[attr] }

// Planner holds the statistics and parameters needed to cost plans for
// one table. It reads statistics live from its StatsSource on every
// PlanPTQ call, so estimates track inserts, deletes and merges without
// the planner being rebuilt.
type Planner struct {
	store *fracture.Store
	src   StatsSource
	disk  sim.Params

	// gen and cache are set when src carries a generation number
	// (GenSource); they let repeated query shapes reuse costed plans —
	// see cache.go. met is nil-safe and defaults to a no-op sink.
	gen   GenSource
	cache *planCache
	met   *obs.EngineMetrics
}

// New creates a planner for a fractured-UPI table reading statistics
// from src. Attribute coverage is checked per query: PlanPTQ fails
// with ErrNoStats for attributes src has no histogram for.
//
// When src also implements GenSource (stats.Catalog does), the planner
// caches costed plans keyed on the query shape and serves them back
// while the source's generation and the table's partition layout are
// unchanged. A plain StatsSource gets no cache: without a generation
// number there is no safe invalidation signal.
func New(store *fracture.Store, src StatsSource, disk sim.Params) *Planner {
	p := &Planner{store: store, src: src, disk: disk, met: &obs.EngineMetrics{}}
	if gs, ok := src.(GenSource); ok {
		p.gen = gs
		p.cache = &planCache{entries: make(map[planKey][]Plan)}
	}
	return p
}

// SetMetrics wires the counters plan-cache traffic reports into. Must
// be called before the planner is shared; nil restores the no-op sink.
func (p *Planner) SetMetrics(met *obs.EngineMetrics) {
	if met == nil {
		met = &obs.EngineMetrics{}
	}
	p.met = met
}

// params assembles cost-model parameters from the live table state.
func (p *Planner) params() costmodel.Params {
	main := p.store.Main()
	return costmodel.Params{
		Disk:       p.disk,
		Height:     main.Heap().Height(),
		TableBytes: p.store.SizeBytes(),
		Leaves:     main.Heap().Leaves(),
		Fractures:  p.store.NumFractures(),
	}
}

// PlanPTQ costs the available plans for "attr = value AND confidence
// >= qt" and returns them all, cheapest first. attr may be the primary
// attribute or any secondary attribute with a histogram. Repeated
// shapes are served from the plan cache when one is enabled; use
// PlanPTQCached to learn whether a result came from it.
func (p *Planner) PlanPTQ(attr, value string, qt float64) ([]Plan, error) {
	plans, _, err := p.PlanPTQCached(attr, value, qt)
	return plans, err
}

// planPTQ is the uncached costing pass.
func (p *Planner) planPTQ(attr, value string, qt float64) ([]Plan, error) {
	main := p.store.Main()
	cm := p.params()
	cutoff := main.Options().Cutoff

	var plans []Plan
	hist := p.src.Histogram(attr)
	if hist == nil {
		return nil, fmt.Errorf("%w: no histogram for attribute %q", ErrNoStats, attr)
	}

	// Full scan is always available: read everything once, filter.
	fullScan := cm.CostScan() + time.Duration(1+p.store.NumFractures())*
		(p.disk.Init+time.Duration(cm.Height)*p.disk.Seek)
	plans = append(plans, Plan{
		Kind:          FullScan,
		Attr:          attr,
		EstimatedCost: fullScan,
		EstimatedRows: hist.EstimateEntries(value, qt),
		Detail:        fmt.Sprintf("Costscan=%v over %d partitions", cm.CostScan(), 1+p.store.NumFractures()),
	})

	if attr == main.Attr() {
		scanQT := qt
		if cutoff > scanQT {
			scanQT = cutoff
		}
		sel := 0.0
		if total := hist.EstimateHeapEntriesTotal(cutoff); total > 0 {
			sel = hist.EstimateEntries(value, scanQT) / total
		}
		var cost time.Duration
		var detail string
		if qt < cutoff {
			ptrs := hist.EstimateCutoffPointers(value, qt, cutoff)
			cost = cm.CostCutoff(sel, ptrs)
			detail = fmt.Sprintf("Costcut: sel=%.5f pointers=%.0f f(x)=%v", sel, ptrs, cm.Saturation(ptrs))
		} else {
			cost = cm.CostSingle(sel)
			detail = fmt.Sprintf("heap scan only: sel=%.5f", sel)
		}
		// Per-fracture lookups on top.
		cost += time.Duration(p.store.NumFractures()) * (p.disk.Init + time.Duration(cm.Height)*p.disk.Seek)
		plans = append(plans, Plan{
			Kind:          PrimaryScan,
			Attr:          attr,
			EstimatedCost: cost,
			EstimatedRows: hist.EstimateEntries(value, qt),
			Detail:        detail,
		})
	} else {
		// Secondary plan: index scan (cheap, sequential) plus one
		// heap fetch per matching entry; tailored access consolidates
		// fetches into shared regions, modeled by the saturation
		// curve over the matching entry count.
		rows := hist.EstimateEntries(value, qt)
		fetch := cm.Saturation(rows)
		cost := 2*(p.disk.Init+time.Duration(cm.Height)*p.disk.Seek) + fetch
		cost += time.Duration(p.store.NumFractures()) * (p.disk.Init + time.Duration(cm.Height)*p.disk.Seek)
		plans = append(plans, Plan{
			Kind:          SecondaryTailored,
			Attr:          attr,
			EstimatedCost: cost,
			EstimatedRows: rows,
			Detail:        fmt.Sprintf("secondary probe + tailored fetch f(%.0f)=%v", rows, fetch),
		})
	}

	sortPlans(plans)
	return plans, nil
}

func sortPlans(plans []Plan) {
	for i := 1; i < len(plans); i++ {
		for j := i; j > 0 && plans[j].EstimatedCost < plans[j-1].EstimatedCost; j-- {
			plans[j-1], plans[j] = plans[j], plans[j-1]
		}
	}
}

// Explain formats the costed plans like a database EXPLAIN.
func Explain(plans []Plan) string {
	out := ""
	for i, pl := range plans {
		marker := " "
		if i == 0 {
			marker = "*"
		}
		out += fmt.Sprintf("%s %-18s attr=%-12s cost=%-12v rows=%-8.0f %s\n",
			marker, pl.Kind, pl.Attr, pl.EstimatedCost.Round(time.Millisecond), pl.EstimatedRows, pl.Detail)
	}
	return out
}

// HasHistogram reports whether the statistics source covers attr,
// i.e. whether PlanPTQ can cost plans for it.
func (p *Planner) HasHistogram(attr string) bool { return p.src.Histogram(attr) != nil }

// PlanReq translates a costed plan into the fractured store's query
// descriptor, without executing anything: callers hand the Req to
// Store.Prepare (or Run) themselves. Splitting planning from execution
// lets them make admission decisions — e.g. comparing the plan's
// estimated cost against a context deadline — before any partition is
// pinned.
func PlanReq(pl Plan, value string, qt float64) (fracture.Req, error) {
	req := fracture.Req{Value: value, QT: qt}
	switch pl.Kind {
	case PrimaryScan:
		req.Kind = fracture.KindPTQ
	case SecondaryTailored:
		req.Kind = fracture.KindSecondary
		req.Attr = pl.Attr
		req.Tailored = true
	case FullScan:
		// A genuine physical full scan: every partition's heap is read
		// sequentially (wide read-ahead, one seek per run of pages) and
		// filtered in flight, with no index involved — exactly what
		// Costscan models. This is where the planner beats the fixed
		// heuristic: once an index plan's pointer chasing saturates,
		// the sequential scan is cheaper.
		req.Kind = fracture.KindScan
		req.Attr = pl.Attr
	default:
		return fracture.Req{}, fmt.Errorf("planner: unknown plan %v", pl.Kind)
	}
	return req, nil
}
