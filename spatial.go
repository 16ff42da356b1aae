package upidb

import (
	"context"
	"fmt"
	"iter"
	"time"

	"upidb/internal/cupi"
	"upidb/internal/planner"
	"upidb/internal/sim"
	"upidb/internal/upi"
	"upidb/internal/utree"
)

// SpatialStatsInfo is a snapshot of a spatial table's statistics
// catalog — what WithPlanner costs from. Spatial catalogs absorb every
// Insert and there are no deletes, so a seeded catalog is exact.
type SpatialStatsInfo struct {
	// Seeded reports whether the catalog describes the complete table
	// (always true for tables built with BulkLoadSpatial).
	Seeded bool
	// Observations is the number of observations the catalog tracks.
	Observations int64
}

// StatsInfo reports the current state of the spatial statistics
// catalog.
func (s *SpatialTable) StatsInfo() SpatialStatsInfo {
	return SpatialStatsInfo{
		Seeded:       s.catalog.Seeded(),
		Observations: s.catalog.TotalObservations(),
	}
}

// SpatialResults is the answer to one SpatialTable.Run call — the
// spatial counterpart of Results, with the same consumption contract:
// the handle executes on first consumption, is consumed once and keeps
// no rows. Unlike Results it keeps two executors, because here they
// are different I/O algorithms serving different consumers: collect's
// sorted sweep (cupi QuerySegment and friends) fetches heap pages in
// key order, cursor's per-row fetch (SegmentCursor) reads only what a
// consumer that may stop early pulls.
//
//   - All streams incrementally: R-Tree node pages, segment-index
//     pages and heap fetches happen only as the loop demands them, and
//     breaking out stops the remaining I/O (it is never charged).
//   - Collect runs the materialized drain and returns a slice the
//     caller owns, in the canonical ordering (confidence DESC,
//     observation ID ASC); Len, Err and Info on an unconsumed handle run
//     the same drain.
//
// Streaming order depends on the plan: a SegmentIndexScan streams in
// the canonical confidence order (the segment index's native key
// order), while an RTreeProbe or SpatialFullScan streams in refinement
// order (clustered heap order) — circle confidences are computed by
// integration at fetch time, so confidence-ordered delivery would
// require draining everything first. Only Collect reports canonical
// order.
//
// Any consumption spends the handle: afterwards All yields
// ErrStreamConsumed and Collect returns nil, while Err, Len and Info
// keep reporting the one execution (Len is 0 after a failure or a
// partial drain). Execution errors surface in All's error slot and
// through Err; a SpatialResults handle is not safe for concurrent use.
//
// While an All stream is mid-drain it holds the spatial table's read
// lock, so Insert waits for it; do not Insert from the goroutine that
// is consuming the stream.
type SpatialResults struct {
	ctx       context.Context
	s         *SpatialTable
	wantStats bool

	// collect and cursor execute the routed plan over tab, a view of
	// the table charging this query's tape.
	collect func(ctx context.Context, tab *cupi.Table) ([]SpatialResult, cupi.Stats, error)
	cursor  func(ctx context.Context, tab *cupi.Table) *cupi.Cursor

	state resState
	// n counts the results handed out; Len reports it after a complete
	// drain.
	n    int
	info QueryInfo
	err  error
}

// startTape starts recording this query's I/O on a private tape: tab
// is a view of the table charging the pages this query misses to it.
// finish replays the tape against the simulated disk and returns the
// modeled time — the same per-query accounting discipline fracture
// uses, exact however many queries read the table at once.
func (r *SpatialResults) startTape() (tab *cupi.Table, finish func() time.Duration) {
	tape := sim.NewTape()
	tape.Open(r.s.tab.Name())
	return r.s.tab.View(tape), func() time.Duration { return r.s.db.disk.Replay(tape) }
}

// finish is the one terminal transition: it spends the handle, keeps
// the outcome and folds the execution statistics into the query info,
// keeping the routing fields chosen at Run time.
func (r *SpatialResults) finish(st cupi.Stats, modeled time.Duration, err error) {
	r.state, r.err = stateDone, err
	r.info.HeapEntries = st.Fetched
	r.info.Candidates = st.Candidates
	r.info.Partitions = 1
	if r.wantStats {
		r.info.ModeledTime = modeled
	}
}

// drain executes a still-pending query the materialized way and hands
// over its results in the canonical order (nil on failure or when the
// handle was already consumed).
func (r *SpatialResults) drain() []SpatialResult {
	if r.state != statePending {
		return nil
	}
	tab, modeled := r.startTape()
	rs, st, err := r.collect(r.ctx, tab)
	r.finish(st, modeled(), err)
	if err != nil {
		return nil
	}
	r.n = len(rs)
	utree.SortResults(rs)
	return rs
}

// All returns an iterator over the results:
//
//	for r, err := range res.All() { ... }
//
// On an unconsumed handle, All executes the query incrementally (see
// SpatialResults for the delivery order per plan). Breaking out of the
// loop cancels the rest of the scan; pages it never read are never
// charged. On a consumed handle All yields ErrStreamConsumed, or the
// execution error of a failed handle.
func (r *SpatialResults) All() iter.Seq2[SpatialResult, error] {
	return func(yield func(SpatialResult, error) bool) {
		if r.state != statePending {
			err := r.err
			if err == nil {
				err = ErrStreamConsumed
			}
			yield(SpatialResult{}, err)
			return
		}
		tab, modeled := r.startTape()
		cur := r.cursor(r.ctx, tab)
		r.state = stateStreaming
		for {
			res, ok, err := cur.Next()
			if err != nil {
				r.finish(cur.Stats(), modeled(), err)
				yield(SpatialResult{}, err)
				return
			}
			if !ok {
				r.finish(cur.Stats(), modeled(), nil)
				return
			}
			r.n++
			if !yield(res, nil) {
				cur.Close()
				r.finish(cur.Stats(), modeled(), ErrStreamConsumed)
				return
			}
		}
	}
}

// Collect returns all results in the canonical order (confidence DESC,
// ID ASC) as a slice the caller owns, running the materialized drain
// on an unconsumed handle. It returns nil when execution failed or the
// handle was already consumed; Err reports why a drain failed.
func (r *SpatialResults) Collect() []SpatialResult { return r.drain() }

// Len returns the number of results the handle's complete drain handed
// out, running the materialized drain on an unconsumed handle (0 after
// a failure or a partial drain).
func (r *SpatialResults) Len() int {
	r.drain()
	if r.state != stateDone || r.err != nil {
		return 0
	}
	return r.n
}

// Err returns the terminal error of the handle's execution: nil after
// a successful full drain, the failure cause (e.g. ErrCanceled) after
// an error, ErrStreamConsumed after a partial drain. On an unconsumed
// handle it runs the materialized drain first.
func (r *SpatialResults) Err() error {
	r.drain()
	return r.err
}

// Close discards an unconsumed handle without executing the query.
// Consuming the handle (fully or partially) finishes it too; Close is
// only needed for a Run whose results turned out not to matter.
// Idempotent.
func (r *SpatialResults) Close() {
	if r.state == statePending {
		r.state, r.err = stateDone, ErrStreamConsumed
	}
}

// Info reports what the query touched and cost. ModeledTime is only
// measured when the query was built WithStats; Plan and Explain are
// only set for planner-routed / WithExplain runs. On an unconsumed
// handle Info runs the materialized drain so the counters are
// complete; after a streaming consumption it reports what the stream
// actually touched.
func (r *SpatialResults) Info() QueryInfo {
	r.drain()
	return r.info
}

// Run admits and prepares one spatial query described by q (a Circle
// or Segment descriptor; discrete descriptors belong to Table.Run),
// honoring ctx exactly like Table.Run: a done context fails fast with
// ErrCanceled before any modeled I/O is charged, and Run itself
// performs no scan — it validates, routes and applies admission
// control; the returned handle executes on first consumption (All
// streams, Collect/Len/Err/Info run the materialized drain).
//
// Routing mirrors the discrete engine: a fixed rule (circle → R-Tree
// probe, segment → segment index) unless the query says WithPlanner,
// which sends it through the cost-based spatial planner — choosing
// between the R-Tree probe, the segment-index scan and a sequential
// full heap scan from the spatial statistics catalog; WithExplain
// returns the costed plans without executing. Info().PlanSource reports
// which happened. On the planner path, a ctx deadline shorter than the
// cheapest plan's modeled cost is refused up front with ErrCanceled —
// zero modeled I/O — the same deadline-aware admission discrete PTQs
// get.
//
// Run is safe for concurrent use alongside Insert.
func (s *SpatialTable) Run(ctx context.Context, q Query) (*SpatialResults, error) {
	if err := upi.CtxErr(ctx); err != nil {
		return nil, err
	}
	if !q.kind.spatial() {
		return nil, fmt.Errorf("upidb: %v is not a spatial query; run it with Table.Run", q.kind)
	}
	if s.tab.Closed() {
		return nil, ErrClosed
	}
	// The fixed rule's physical plan.
	source, physical, planName := PlanSourceHeuristic, planner.RTreeProbe, ""
	if q.kind == KindSegment {
		physical = planner.SegmentScan
	}
	if q.usePlanner || q.explainOnly {
		plans, err := s.plan(q)
		if err != nil {
			return nil, err
		}
		if q.explainOnly {
			return &SpatialResults{state: stateDone, info: explainInfo(q, physical, plans)}, nil
		}
		best := plans[0]
		source, physical, planName = PlanSourceForced, best.Kind, best.Kind.String()
		// Deadline-aware admission, identical to the discrete path:
		// refuse a query whose remaining deadline cannot cover even the
		// cheapest plan's modeled cost, before any I/O.
		if dl, ok := ctx.Deadline(); ok {
			if remain := time.Until(dl); remain < best.EstimatedCost {
				return nil, fmt.Errorf(
					"%w: admission refused: remaining deadline %v is below the cheapest plan's modeled cost %v (%v)",
					ErrCanceled, remain.Round(time.Millisecond),
					best.EstimatedCost.Round(time.Millisecond), best.Kind)
			}
		}
	}
	r := &SpatialResults{
		ctx:       ctx,
		s:         s,
		wantStats: q.wantStats,
		info:      QueryInfo{Plan: planName, PlanSource: source},
	}
	switch {
	case q.kind == KindCircle && physical == planner.SpatialScan:
		r.collect = func(ctx context.Context, tab *cupi.Table) ([]SpatialResult, cupi.Stats, error) {
			return tab.FullScanCircle(ctx, q.center, q.radius, q.qt)
		}
		r.cursor = func(ctx context.Context, tab *cupi.Table) *cupi.Cursor {
			return tab.ScanCircleCursor(ctx, q.center, q.radius, q.qt)
		}
	case q.kind == KindCircle:
		r.collect = func(ctx context.Context, tab *cupi.Table) ([]SpatialResult, cupi.Stats, error) {
			return tab.QueryCircle(ctx, q.center, q.radius, q.qt)
		}
		r.cursor = func(ctx context.Context, tab *cupi.Table) *cupi.Cursor {
			return tab.CircleCursor(ctx, q.center, q.radius, q.qt)
		}
	case physical == planner.SpatialScan:
		r.collect = func(ctx context.Context, tab *cupi.Table) ([]SpatialResult, cupi.Stats, error) {
			return tab.FullScanSegment(ctx, q.value, q.qt)
		}
		r.cursor = func(ctx context.Context, tab *cupi.Table) *cupi.Cursor {
			return tab.ScanSegmentCursor(ctx, q.value, q.qt)
		}
	default:
		r.collect = func(ctx context.Context, tab *cupi.Table) ([]SpatialResult, cupi.Stats, error) {
			return tab.QuerySegment(ctx, q.value, q.qt)
		}
		r.cursor = func(ctx context.Context, tab *cupi.Table) *cupi.Cursor {
			return tab.SegmentCursor(ctx, q.value, q.qt)
		}
	}
	return r, nil
}

// plan costs the candidate plans for q, cheapest first.
func (s *SpatialTable) plan(q Query) ([]planner.Plan, error) {
	if q.kind == KindCircle {
		return s.planner.PlanCircle(q.center, q.radius, q.qt)
	}
	return s.planner.PlanSegment(q.value, q.qt)
}
