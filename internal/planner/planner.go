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
//
// The models price a seeking disk (10 ms per seek): on that device the
// cheapest plan is often not the one a fixed rule would pick. Nothing
// routes through this package unless a query asks for it (WithPlanner,
// WithExplain), and nothing keeps its inputs current: a histogram set
// describes the tuples it was built from, by a bulk load or BuildStats,
// until the next BuildStats replaces it.
package planner

import (
	"errors"
	"fmt"
	"time"

	"upidb/internal/costmodel"
	"upidb/internal/fracture"
	"upidb/internal/histogram"
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

// StaticStats is the statistics the planner costs from: one Section 6.1
// histogram per attribute, built once (by a bulk load or BuildStats)
// and never updated. An attribute without an entry cannot be costed
// (PlanPTQ fails with ErrNoStats).
type StaticStats map[string]*histogram.Histogram

// Planner costs plans for one fractured-UPI store from a fixed set of
// histograms and the store's live geometry (size, height, fracture
// count). It holds nothing mutable, so building one per costing is as
// good as keeping one.
type Planner struct {
	store *fracture.Store
	stats StaticStats
	disk  sim.Params
}

// New creates a planner for store costing from stats. Attribute
// coverage is checked per query: PlanPTQ fails with ErrNoStats for
// attributes stats has no histogram for.
func New(store *fracture.Store, stats StaticStats, disk sim.Params) *Planner {
	return &Planner{store: store, stats: stats, disk: disk}
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
// attribute or any secondary attribute with a histogram.
func (p *Planner) PlanPTQ(attr, value string, qt float64) ([]Plan, error) {
	main := p.store.Main()
	cm := p.params()
	cutoff := main.Options().Cutoff

	var plans []Plan
	hist := p.stats[attr]
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
