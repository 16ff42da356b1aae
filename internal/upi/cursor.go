package upi

import (
	"context"
	"iter"

	"upidb/internal/tuple"
)

// Cursor is a pull-based result stream over one UPI partition: results
// arrive in (Confidence DESC, tuple ID ASC) order, and the underlying
// index pages are read only as pulls demand them. A cursor is the
// streaming form of the collect-then-return executors (Query, TopK,
// QuerySecondary, FullScan): draining one to exhaustion yields exactly
// the same results, statistics and I/O pattern as the materialized
// call.
//
// The context passed at construction is checked between pulls (every
// ctxCheckEvery scanned entries); once it is done, Next fails with an
// error wrapping ErrCanceled and no further pages are read.
//
// Rows scanned off the heap (QueryCursor and TopKCursor, down to the
// cutoff merge) arrive unbuilt — ID and Confidence set, the tuple still
// a validated view of the leaf page, see Result; rows fetched through
// the cutoff or a secondary index and full-scan matches arrive built.
// Result.Build is the same whichever it is.
//
// A Cursor is single-consumer and not safe for concurrent use. Callers
// must Close it when done (Close is idempotent and implied by
// exhaustion or error).
type Cursor struct {
	next  func() (Result, error, bool)
	stop  func()
	stats QueryStats
	err   error
	done  bool
}

// newCursor wraps a push-style body into a pull cursor. The body runs
// in a coroutine (iter.Pull2) that only advances while Next is being
// called, so all I/O the body performs is demand-driven; its yield
// returns false once the consumer stops pulling, at which point the
// body must return promptly.
func newCursor(body func(yield func(Result) bool) error) *Cursor {
	c := &Cursor{}
	seq := func(yield func(Result, error) bool) {
		if err := body(func(r Result) bool { return yield(r, nil) }); err != nil {
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

// Close releases the cursor's coroutine without draining it. Pages not
// yet read are never read (and so never charged). Idempotent.
func (c *Cursor) Close() {
	if !c.done {
		c.done = true
		c.stop()
	}
}

// Stats reports what the cursor has touched so far; the counts are
// final once the cursor is exhausted, failed or closed. They are
// updated between pulls, so reading them from the consuming goroutine
// is race-free.
func (c *Cursor) Stats() QueryStats { return c.stats }

// Drain pulls next — the Next of a Cursor or of a merged stream above
// it — to exhaustion and returns the rows, built, in arrival order, or
// nil and the error that ended the stream.
func Drain(next func() (Result, bool, error)) ([]Result, error) {
	var results []Result
	for {
		r, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return results, nil
		}
		results = append(results, r.Build())
	}
}

// drainCursor exhausts a cursor into a slice — the bridge from the
// pull-based executors back to the materialized call shape.
func drainCursor(c *Cursor) ([]Result, QueryStats, error) {
	defer c.Close()
	results, err := Drain(c.Next)
	return results, c.Stats(), err
}

// QueryCursor is the streaming form of Query (Algorithm 2): it yields
// the PTQ's results in confidence order, reading heap pages only as
// pulls demand them. Entries at or above the cutoff stream straight
// from the heap scan; once the scan drops below the cutoff the heap
// alone no longer dictates global order, so the remaining heap entries
// are held back, the cutoff index is consulted (charged only if the
// consumer pulls that deep), and the merged tail streams from the
// combined sorted set. On a full drain the I/O sequence — all heap
// pages, then the cutoff scan and its sorted fetches — is identical to
// the materialized Query's.
func (t *Table) QueryCursor(ctx context.Context, value string, qt float64) *Cursor {
	return t.heapCursor(ctx, value, qt, 0)
}

// TopKCursor is the streaming form of TopK: at most k results in
// confidence order, scanning at most k heap entries (the heap is
// confidence-sorted, so k entries always suffice) and consulting the
// cutoff index only when it may still hold candidates — fewer than k
// heap results, or a k-th result below the cutoff.
func (t *Table) TopKCursor(ctx context.Context, value string, k int) *Cursor {
	if k <= 0 {
		return newCursor(func(func(Result) bool) error { return nil })
	}
	return t.heapCursor(ctx, value, 0, k)
}

// heapCursor is the one body behind QueryCursor and TopKCursor: the
// confidence-ordered heap scan of value down to qt, then the cutoff
// merge. k > 0 bounds it to the k best results (and the heap scan to k
// entries); 0 is unbounded.
func (t *Table) heapCursor(ctx context.Context, value string, qt float64, k int) *Cursor {
	var c *Cursor
	c = newCursor(func(yield func(Result) bool) error {
		if err := CtxErr(ctx); err != nil {
			return err
		}
		// pending holds heap entries below the cutoff: they must wait
		// for the cutoff merge before they may be yielded in order.
		var pending []Result
		yielded := 0
		stopped := false
		start, end := ValuePrefix(value), ValuePrefixEnd(value)
		var scanErr error
		err := t.heap.View(t.rec, 1).Scan(start, end, func(kk, v []byte) bool {
			if k > 0 && c.stats.HeapEntries >= k {
				return false
			}
			if c.stats.HeapEntries%ctxCheckEvery == 0 {
				if scanErr = CtxErr(ctx); scanErr != nil {
					return false
				}
			}
			conf, _, err := DecodeConfID(kk)
			if err != nil {
				scanErr = err
				return false
			}
			if conf < qt {
				return false
			}
			c.stats.HeapEntries++
			// The one framing walk of this row; whoever receives the
			// tuple builds it from the view.
			view, err := tuple.Validate(v)
			if err != nil {
				scanErr = err
				return false
			}
			r := Result{Confidence: conf, View: view}
			if qt < t.opts.Cutoff && conf < t.opts.Cutoff {
				// The scan is confidence-sorted: once below the cutoff
				// it never rises back, so no later heap entry can
				// out-rank an already-yielded one.
				pending = append(pending, r)
				return true
			}
			yielded++
			if !yield(r) {
				stopped = true
				return false
			}
			return true
		})
		if err == nil {
			err = scanErr
		}
		if err != nil || stopped {
			return err
		}
		if qt >= t.opts.Cutoff || (k > 0 && yielded >= k) {
			// Nothing in the cutoff index can qualify, or k results at
			// or above the cutoff are out: nothing can displace them.
			return nil
		}
		cutoffResults, n, err := t.queryCutoff(ctx, value, qt)
		c.stats.CutoffPointers = n
		if err != nil {
			return err
		}
		pending = append(pending, cutoffResults...)
		SortResults(pending)
		for _, r := range pending {
			if k > 0 && yielded >= k {
				break
			}
			yielded++
			if !yield(r) {
				return nil
			}
		}
		return nil
	})
	return c
}

// SecondaryCursor is the streaming form of QuerySecondary. Tailored
// access needs the full matching entry set before any pointer can be
// chosen (Algorithm 3 is a global analysis), so this cursor
// materializes on the first pull — all index and heap I/O happens then
// — and streams the sorted results. A cursor that is never pulled
// charges nothing.
func (t *Table) SecondaryCursor(ctx context.Context, attr, value string, qt float64, tailored bool) *Cursor {
	var c *Cursor
	c = newCursor(func(yield func(Result) bool) error {
		rs, st, err := t.QuerySecondary(ctx, attr, value, qt, tailored)
		c.stats = st
		if err != nil {
			return err
		}
		for _, r := range rs {
			if !yield(r) {
				return nil
			}
		}
		return nil
	})
	return c
}

// ScanCursor is the streaming form of FullScan. A full scan cannot
// yield in confidence order before reading the whole heap (the heap is
// value-sorted, not globally confidence-sorted), so it materializes on
// the first pull and streams the sorted results.
func (t *Table) ScanCursor(ctx context.Context, attr, value string, qt float64) *Cursor {
	var c *Cursor
	c = newCursor(func(yield func(Result) bool) error {
		rs, st, err := t.FullScan(ctx, attr, value, qt)
		c.stats = st
		if err != nil {
			return err
		}
		for _, r := range rs {
			if !yield(r) {
				return nil
			}
		}
		return nil
	})
	return c
}
