package cupi

import (
	"context"
	"iter"

	"upidb/internal/heapfile"
	"upidb/internal/prob"
	"upidb/internal/rtree"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
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
	next  func() (float64, error, bool)
	stop  func()
	stats Stats
	err   error
	done  bool
	// The body leaves each row it yields unbuilt in view, and yields its
	// confidence; Next builds it with b on the caller's goroutine, so the
	// coroutine's stack holds no build. The body stays suspended, holding
	// the read lock over the page view aliases, until the next pull.
	view tuple.ObservationView
	b    tuple.ObservationBuilder
	// heap is the body's one heap-file reader. It lives here because as
	// a local of the body, captured by the closure the body hands to the
	// R-Tree or index scan, it would escape: one more allocation a query.
	heap heapfile.Reader
}

// newCursor wraps a push-style body into a pull cursor (iter.Pull2:
// the body only advances while Next is being called). The body
// receives the cursor so it can update Stats and view between yields.
func newCursor(body func(c *Cursor, yield func(conf float64) bool) error) *Cursor {
	c := &Cursor{}
	seq := func(yield func(float64, error) bool) {
		if err := body(c, func(conf float64) bool { return yield(conf, nil) }); err != nil {
			yield(0, err)
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
	conf, err, ok := c.next()
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
	return Result{Obs: c.b.Build(c.view), Confidence: conf}, true, nil
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

// CircleCursor streams a circle query: the R-Tree traversal yields
// from inside SearchLeaves, so node pages are read leaf by leaf as the
// pulls demand them; each leaf's candidates are PCR-filtered and
// fetched from the heap in RowID order, and every qualifying
// observation is yielded immediately. Draining it produces the same
// result set as QueryCircle, in refinement order rather than
// confidence order (see Cursor). The context is checked on the first
// pull and at each R-Tree leaf, which holds fewer than ctxCheckEvery
// entries; a cancelled query fails with upi.ErrCanceled.
func (t *Table) CircleCursor(ctx context.Context, q prob.Point, radius, threshold float64) *Cursor {
	queryMBR := queryRect(q, radius)
	return newCursor(func(c *Cursor, yield func(float64) bool) error {
		if err := upi.CtxErr(ctx); err != nil {
			return err
		}
		t.mu.RLock()
		defer t.mu.RUnlock()
		if t.closed {
			return upi.ErrClosed
		}
		var (
			cands   []circleCand // one leaf's survivors, reused leaf to leaf
			leafErr error
		)
		c.heap = t.heap.View(t.rec, 1).Reader()
		err := t.rt.View(t.rec, 1).SearchLeaves(queryMBR, func(_ storage.PageID, es []rtree.Entry) bool {
			if leafErr = upi.CtxErr(ctx); leafErr != nil {
				return false
			}
			// PCR-filter this leaf's matches, then fetch its survivors
			// in RowID order (contiguous for the bulk-loaded region).
			cands = filterLeafCandidates(es, q, radius, threshold, &c.stats, cands[:0])
			sortCands(cands)
			for _, cand := range cands {
				conf, ok, err := t.refineCand(&c.heap, cand, q, radius, threshold, &c.stats, &c.view)
				if err != nil {
					leafErr = err
					return false
				}
				if ok && !yield(conf) {
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
		return leafErr
	})
}

// SegmentCursor streams a segment PTQ in the index's native
// {confidence DESC, ID ASC} order: each index entry's heap row is
// fetched as the pull demands it (random access per row, against the
// materialized path's one sorted sweep — clustering keeps the touched
// page set small either way, which is the Figure 8 effect). Draining
// it yields exactly QuerySegment's results in exactly its order. The
// context is checked on the first pull and every ctxCheckEvery index
// entries; a cancelled query fails with upi.ErrCanceled.
func (t *Table) SegmentCursor(ctx context.Context, seg string, qt float64) *Cursor {
	return newCursor(func(c *Cursor, yield func(float64) bool) error {
		if err := upi.CtxErr(ctx); err != nil {
			return err
		}
		t.mu.RLock()
		defer t.mu.RUnlock()
		if t.closed {
			return upi.ErrClosed
		}
		var scanErr error
		stopped := false
		n := 0 // index entries visited
		start, end := upi.ValuePrefix(seg), upi.ValuePrefixEnd(seg)
		c.heap = t.heap.View(t.rec, 1).Reader()
		err := t.segIdx.View(t.rec, 1).Scan(start, end, func(k, v []byte) bool {
			if n++; n%ctxCheckEvery == 0 {
				if scanErr = upi.CtxErr(ctx); scanErr != nil {
					return false
				}
			}
			conf, _, err := upi.DecodeConfID(k)
			if err != nil {
				scanErr = err
				return false
			}
			if conf < qt {
				return false
			}
			c.stats.Candidates++
			rid, err := decodeRowID(v)
			if err != nil {
				scanErr = err
				return false
			}
			rec, ok, err := c.heap.Get(rid)
			if err != nil {
				scanErr = err
				return false
			}
			if !ok {
				return true // a failed insert's tombstone
			}
			if c.view, err = tuple.ValidateObservation(rec); err != nil {
				scanErr = err
				return false
			}
			c.stats.Fetched++
			if !yield(conf) {
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
