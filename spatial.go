package upidb

import (
	"context"
	"fmt"
	"iter"
	"time"

	"upidb/internal/cupi"
	"upidb/internal/sim"
	"upidb/internal/upi"
)

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
// Streaming order depends on the route: a segment query streams in
// the canonical confidence order (the segment index's native key
// order), while a circle query streams in refinement order (clustered
// heap order) — circle confidences are computed by integration at
// fetch time, so confidence-ordered delivery would require draining
// everything first. Only Collect reports canonical order.
//
// The observations of one answer are built into shared slabs
// (tuple.ObservationBuilder), so a kept observation keeps up to
// tuple.SlabRows rows' memory reachable.
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
	ctx context.Context
	s   *SpatialTable

	// collect and cursor execute the query's route over tab, a view of
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
// the outcome and folds the execution statistics into the query info.
func (r *SpatialResults) finish(st cupi.Stats, modeled time.Duration, err error) {
	r.state, r.err = stateDone, err
	r.info.HeapEntries = st.Fetched
	r.info.Candidates = st.Candidates
	r.info.Partitions = 1
	r.info.ModeledTime = modeled
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
	cupi.SortResults(rs)
	return rs
}

// All returns an iterator over the results:
//
//	for r, err := range res.All() { ... }
//
// On an unconsumed handle, All executes the query incrementally (see
// SpatialResults for the delivery order per route). Breaking out of the
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

// Info reports what the query touched and cost. Plan and Explain are
// only set by WithExplain runs. On an unconsumed handle Info runs the
// materialized drain so the counters are complete; after a streaming
// consumption it reports what the stream actually touched.
func (r *SpatialResults) Info() QueryInfo {
	r.drain()
	return r.info
}

// Run prepares one spatial query described by q (a Circle or Segment
// descriptor; discrete descriptors belong to Table.Run), honoring ctx
// exactly like Table.Run: a done context fails fast with ErrCanceled
// before any modeled I/O is charged, and Run itself performs no scan —
// it validates and routes; the returned handle executes on first
// consumption (All streams, Collect/Len/Err/Info run the materialized
// drain).
//
// Routing is a fixed rule, as on a discrete table: a circle probes the
// R-Tree, a segment query scans the segment index. WithExplain reports
// the route without taking it.
//
// Run refuses a NaN threshold, and a circle whose centre is not finite
// or whose radius is NaN, infinite or negative.
//
// Run is safe for concurrent use alongside Insert.
func (s *SpatialTable) Run(ctx context.Context, q Query) (*SpatialResults, error) {
	if err := upi.CtxErr(ctx); err != nil {
		return nil, err
	}
	if !q.kind.spatial() {
		return nil, fmt.Errorf("upidb: %v is not a spatial query; run it with Table.Run", q.kind)
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	if s.tab.Closed() {
		return nil, ErrClosed
	}
	switch {
	case q.explainOnly && q.kind == KindCircle:
		return &SpatialResults{state: stateDone, info: explainInfo("RTreeProbe",
			fmt.Sprintf("R-Tree probe within %v of (%v, %v) down to confidence %v, clustered heap fetch", q.radius, q.center.X, q.center.Y, q.qt))}, nil
	case q.explainOnly:
		return &SpatialResults{state: stateDone, info: explainInfo("SegmentIndexScan",
			fmt.Sprintf("segment index on %q down to confidence %v, clustered heap fetch", q.value, q.qt))}, nil
	}
	r := &SpatialResults{ctx: ctx, s: s}
	if q.kind == KindCircle {
		r.collect = func(ctx context.Context, tab *cupi.Table) ([]SpatialResult, cupi.Stats, error) {
			return tab.QueryCircle(ctx, q.center, q.radius, q.qt)
		}
		r.cursor = func(ctx context.Context, tab *cupi.Table) *cupi.Cursor {
			return tab.CircleCursor(ctx, q.center, q.radius, q.qt)
		}
	} else {
		r.collect = func(ctx context.Context, tab *cupi.Table) ([]SpatialResult, cupi.Stats, error) {
			return tab.QuerySegment(ctx, q.value, q.qt)
		}
		r.cursor = func(ctx context.Context, tab *cupi.Table) *cupi.Cursor {
			return tab.SegmentCursor(ctx, q.value, q.qt)
		}
	}
	return r, nil
}
