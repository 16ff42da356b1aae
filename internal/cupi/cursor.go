package cupi

import (
	"context"
	"iter"

	"upidb/internal/prob"
	"upidb/internal/tuple"
	"upidb/internal/upi"
	"upidb/internal/utree"
)

// Cursor is a pull-based result stream over the continuous UPI — the
// spatial analogue of upi.Cursor. The underlying R-Tree pages, segment
// index pages and heap fetches happen only as pulls demand them.
//
// Delivery order depends on the query class:
//
//   - A CircleCursor yields results in refinement order (R-Tree DFS
//     leaf order, which is heap order for the bulk-loaded clustered
//     region): a result is yielded the moment its heap fetch qualifies
//     it, long before the full candidate set has been integrated.
//     Circle confidences are computed, not indexed, so confidence-
//     ordered delivery would require draining the whole candidate set
//     first.
//   - A SegmentCursor yields in confidence DESC, ID ASC order — the
//     segment index's native key order — which is exactly the order
//     the materialized QuerySegment returns.
//
// The cursor takes the table's read lock on its first pull and holds
// it until exhaustion, failure or Close, so writers wait for the drain;
// never Insert into the table from the goroutine that is consuming one
// of its cursors. A Cursor is single-consumer and not safe for
// concurrent use; Close is idempotent and implied by exhaustion.
type Cursor struct {
	next  func() (Result, error, bool)
	stop  func()
	stats Stats
	err   error
	done  bool
}

// newCursor wraps a push-style body into a pull cursor (iter.Pull2:
// the body only advances while Next is being called). The body
// receives the cursor so it can update Stats between yields.
func newCursor(body func(c *Cursor, yield func(Result) bool) error) *Cursor {
	c := &Cursor{}
	seq := func(yield func(Result, error) bool) {
		if err := body(c, func(r Result) bool { return yield(r, nil) }); err != nil {
			yield(Result{}, err)
		}
	}
	c.next, c.stop = iter.Pull2(seq)
	return c
}

// Next returns the next result. ok is false when the stream is
// exhausted or failed; err is non-nil exactly once, on failure, and is
// sticky afterwards.
func (c *Cursor) Next() (r Result, ok bool, err error) {
	if c.done {
		return Result{}, false, c.err
	}
	r, err, ok = c.next()
	if !ok {
		c.done = true
		c.stop()
		return Result{}, false, nil
	}
	if err != nil {
		c.done = true
		c.err = err
		c.stop()
		return Result{}, false, err
	}
	return r, true, nil
}

// Close releases the cursor without draining it: the read lock is
// dropped and pages not yet read are never read (nor charged).
// Idempotent.
func (c *Cursor) Close() {
	if !c.done {
		c.done = true
		c.stop()
	}
}

// Stats reports what the cursor has touched so far; final once the
// cursor is exhausted, failed or closed. Updated between pulls, so
// reading it from the consuming goroutine is race-free.
func (c *Cursor) Stats() Stats { return c.stats }

// CircleCursor streams a circle query: the R-Tree traversal runs
// lazily leaf by leaf (via rtree.LeafCursor), each leaf's candidates
// are PCR-filtered and fetched from the clustered heap in RowID order,
// and every qualifying observation is yielded immediately. Draining it
// produces the same result set as QueryCircle, in refinement order
// rather than confidence order (see Cursor).
func (t *Table) CircleCursor(ctx context.Context, q prob.Point, radius, threshold float64) *Cursor {
	queryMBR := queryRect(q, radius)
	return newCursor(func(c *Cursor, yield func(Result) bool) error {
		if err := upi.CtxErr(ctx); err != nil {
			return err
		}
		t.mu.RLock()
		defer t.mu.RUnlock()
		if err := t.checkOpenRLocked(); err != nil {
			return err
		}
		lc := t.rt.View(t.rec, 1).LeafCursor(queryMBR)
		defer lc.Close()
		seen := make(map[uint64]bool)
		for {
			hit, ok, err := lc.Next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if err := upi.CtxErr(ctx); err != nil {
				return err
			}
			// PCR-filter this leaf's matches, then fetch its survivors
			// in RowID order (contiguous for the bulk-loaded region).
			cands := t.filterLeafCandidates(hit.Matches, q, radius, threshold, seen, &c.stats, nil)
			sortCands(cands)
			for _, cand := range cands {
				r, ok, err := t.refineCand(cand, q, radius, threshold, &c.stats)
				if err != nil {
					return err
				}
				if ok && !yield(r) {
					return nil
				}
				if err := upi.CtxErr(ctx); err != nil {
					return err
				}
			}
		}
	})
}

// SegmentCursor streams a segment PTQ in the index's native
// {confidence DESC, ID ASC} order: each index entry's heap row is
// fetched as the pull demands it (random access per row, against the
// materialized path's one sorted sweep — clustering keeps the touched
// page set small either way, which is the Figure 8 effect). Draining
// it yields exactly QuerySegment's results in exactly its order.
func (t *Table) SegmentCursor(ctx context.Context, seg string, qt float64) *Cursor {
	return newCursor(func(c *Cursor, yield func(Result) bool) error {
		if err := upi.CtxErr(ctx); err != nil {
			return err
		}
		t.mu.RLock()
		defer t.mu.RUnlock()
		if err := t.checkOpenRLocked(); err != nil {
			return err
		}
		var scanErr error
		stopped := false
		start, end := upi.ValuePrefix(seg), upi.ValuePrefixEnd(seg)
		heap := t.heap.View(t.rec, 1)
		err := t.segIdx.View(t.rec, 1).Scan(start, end, func(k, v []byte) bool {
			if scanErr = upi.CtxErr(ctx); scanErr != nil {
				return false
			}
			conf, id, err := upi.DecodeConfID(k)
			if err != nil {
				scanErr = err
				return false
			}
			if conf < qt {
				return false
			}
			c.stats.Candidates++
			rid, err := utree.DecodeRowID(v)
			if err != nil {
				scanErr = err
				return false
			}
			if committed, ok := t.rows[id]; !ok || committed != rid {
				return true // stale entry of a failed insert
			}
			rec, ok, err := heap.Get(rid)
			if err != nil {
				scanErr = err
				return false
			}
			if !ok {
				return true
			}
			o, err := tuple.DecodeObservation(rec)
			if err != nil {
				scanErr = err
				return false
			}
			c.stats.Fetched++
			if !yield(Result{Obs: o, Confidence: conf}) {
				stopped = true
				return false
			}
			return true
		})
		if err == nil {
			err = scanErr
		}
		if stopped {
			return nil
		}
		return err
	})
}
