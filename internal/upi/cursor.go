package upi

import (
	"bytes"
	"context"

	"upidb/internal/btree"
	"upidb/internal/tuple"
)

// Cursor is a pull-based result stream over one UPI partition: results
// arrive in (Confidence DESC, tuple ID ASC) order, and the underlying
// index pages are read only as pulls demand them. A cursor is the
// streaming form of the collect-then-return executors (Query, TopK,
// QuerySecondary): draining one to exhaustion yields exactly
// the same results, statistics and I/O pattern as the materialized
// call. Next runs on the goroutine that calls it: a cursor starts no
// goroutine of its own.
//
// The context passed at construction is checked between pulls (every
// ctxCheckEvery scanned entries); once it is done, Next fails with an
// error wrapping ErrCanceled and no further pages are read.
//
// Rows scanned off the heap (QueryCursor and TopKCursor, down to the
// cutoff merge) arrive unbuilt — ID and Confidence set, the tuple still
// a validated view of the leaf page, see Result; rows fetched through
// the cutoff or a secondary index arrive built.
// Result.Build is the same whichever it is.
//
// A Cursor is single-consumer and not safe for concurrent use. Close
// ends it early; one dropped unclosed leaks nothing.
type Cursor struct {
	// step computes the rows the cursor produces one pull at a time
	// (the heap scan of QueryCursor and TopKCursor) or, for the
	// materialized cursors, all of them at the first pull. It returns
	// ok false once it has nothing more to yield itself, having left
	// the rest of the stream, sorted, in rows.
	step  func(c *Cursor) (r Result, ok bool, err error)
	rows  []Result
	stats QueryStats
	err   error
	done  bool

	// The heap scan of QueryCursor and TopKCursor.
	t       *Table
	ctx     context.Context
	value   string
	qt      float64
	k       int           // the most rows to yield; 0 is unbounded
	scan    *btree.Cursor // nil until the first pull
	prefix  []byte        // ValuePrefix(value): every key of the scan starts with it
	yielded int
	// pending holds heap entries below the cutoff: they must wait for
	// the cutoff merge before they may be yielded in order.
	pending []Result
}

// Next returns the next result. ok is false when the stream is
// exhausted or failed; err is non-nil exactly once, on failure, and is
// sticky afterwards.
func (c *Cursor) Next() (r Result, ok bool, err error) {
	if c.done {
		return Result{}, false, c.err
	}
	if c.step != nil {
		r, ok, err = c.step(c)
		if err != nil {
			c.done, c.err = true, err
			return Result{}, false, err
		}
		if ok {
			return r, true, nil
		}
		c.step = nil
	}
	if len(c.rows) == 0 {
		c.done = true
		return Result{}, false, nil
	}
	r, c.rows = c.rows[0], c.rows[1:]
	return r, true, nil
}

// Close ends the cursor without draining it: pages not yet read are
// never read (and so never charged). Idempotent.
func (c *Cursor) Close() { c.done = true }

// Stats reports what the cursor has touched so far; the counts are
// final once the cursor is exhausted, failed or closed.
func (c *Cursor) Stats() QueryStats { return c.stats }

// Drain pulls next — the Next of a Cursor or of a merged stream above
// it — to exhaustion and returns the rows, built, in arrival order, or
// nil and the error that ended the stream. It holds the whole answer
// before building it, so BuildAll sizes its slabs exactly.
func Drain(next func() (Result, bool, error)) ([]Result, error) {
	var results []Result
	for {
		r, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			BuildAll(results)
			return results, nil
		}
		results = append(results, r)
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
		return &Cursor{}
	}
	return t.heapCursor(ctx, value, 0, k)
}

// heapCursor is the one cursor behind QueryCursor and TopKCursor: the
// confidence-ordered heap scan of value down to qt, then the cutoff
// merge. k > 0 bounds it to the k best results (and the heap scan to k
// entries); 0 is unbounded.
func (t *Table) heapCursor(ctx context.Context, value string, qt float64, k int) *Cursor {
	return &Cursor{step: (*Cursor).heapStep, t: t, ctx: ctx, value: value, qt: qt, k: k}
}

// heapStep is one pull of the heap scan. It advances past the row the
// previous pull yielded only now, so each page is read by the pull that
// needs it, then scans on to the next row it may yield. Once the scan
// ends it consults the cutoff index and leaves the merged tail in rows.
func (c *Cursor) heapStep() (Result, bool, error) {
	if c.scan == nil {
		if err := CtxErr(c.ctx); err != nil {
			return Result{}, false, err
		}
		c.prefix = ValuePrefix(c.value)
		c.scan = c.t.heap.View(c.t.rec, 1).NewCursor().Seek(c.prefix)
	} else {
		c.scan.Next()
	}
	cutoff := c.t.opts.Cutoff
	// The prefix ends in the value's terminator, so the keys that start
	// with it are exactly [prefix, keyenc.PrefixEnd(prefix)), and the
	// confidence and ID follow at the prefix's length: the value need
	// not be compared or scanned again row by row.
	for ; c.scan.Valid() && bytes.HasPrefix(c.scan.Key(), c.prefix); c.scan.Next() {
		if c.k > 0 && c.stats.HeapEntries >= c.k {
			break
		}
		if c.stats.HeapEntries%ctxCheckEvery == 0 {
			if err := CtxErr(c.ctx); err != nil {
				return Result{}, false, err
			}
		}
		conf, _, err := decodeConfID(c.scan.Key()[len(c.prefix):])
		if err != nil {
			return Result{}, false, err
		}
		if conf < c.qt {
			break
		}
		c.stats.HeapEntries++
		// The page load checked the row's framing; whoever receives the
		// tuple builds it from the view.
		view, err := tuple.ViewOf(c.scan.Value(), c.scan.Frame())
		if err != nil {
			return Result{}, false, err
		}
		r := Result{Confidence: conf, View: view}
		if c.qt < cutoff && conf < cutoff {
			// The scan is confidence-sorted: once below the cutoff it
			// never rises back, so no later heap entry can out-rank an
			// already-yielded one.
			c.pending = append(c.pending, r)
			continue
		}
		c.yielded++
		return r, true, nil
	}
	if err := c.scan.Err(); err != nil {
		return Result{}, false, err
	}
	if c.qt >= cutoff || (c.k > 0 && c.yielded >= c.k) {
		// Nothing in the cutoff index can qualify, or k results at or
		// above the cutoff are out: nothing can displace them.
		return Result{}, false, nil
	}
	cutoffResults, n, err := c.t.queryCutoff(c.ctx, c.value, c.qt)
	c.stats.CutoffPointers = n
	if err != nil {
		return Result{}, false, err
	}
	c.rows = append(c.pending, cutoffResults...)
	SortResults(c.rows)
	if c.k > 0 {
		c.rows = c.rows[:min(len(c.rows), c.k-c.yielded)]
	}
	return Result{}, false, nil
}

// materialized returns a cursor that runs fill on its first pull — all
// of its I/O happens then — and hands out the sorted rows fill
// returns. A cursor that is never pulled charges nothing.
func materialized(fill func(st *QueryStats) ([]Result, error)) *Cursor {
	return &Cursor{step: func(c *Cursor) (Result, bool, error) {
		rows, err := fill(&c.stats)
		c.rows = rows
		return Result{}, false, err
	}}
}

// SecondaryCursor is the streaming form of QuerySecondary. Tailored
// access needs the full matching entry set before any pointer can be
// chosen (Algorithm 3 is a global analysis), so this cursor
// materializes on the first pull and streams the sorted results.
func (t *Table) SecondaryCursor(ctx context.Context, attr, value string, qt float64, tailored bool) *Cursor {
	return materialized(func(st *QueryStats) ([]Result, error) {
		rs, s, err := t.QuerySecondary(ctx, attr, value, qt, tailored)
		*st = s
		return rs, err
	})
}

// ScanCursor answers "attr = value AND confidence >= qt" by reading the
// whole heap sequentially and filtering, with no index ("" = the
// primary attribute). No query route reaches it: it is kept for the
// frozen benchmark's upi.scan_ns_per_entry rung (benchmark/ladder.go).
// The heap is value-sorted, not confidence-sorted, so the cursor
// materializes on the first pull and streams the sorted results.
func (t *Table) ScanCursor(ctx context.Context, attr, value string, qt float64) *Cursor {
	if attr == "" {
		attr = t.attr
	}
	return materialized(func(st *QueryStats) ([]Result, error) {
		if err := CtxErr(ctx); err != nil {
			return nil, err
		}
		// Every tuple has at least one heap entry, so the entry count
		// bounds the distinct IDs.
		seen := make(map[uint64]struct{}, t.heap.Count())
		var results []Result
		var scanErr error
		err := t.ScanHeap(func(id uint64, enc []byte) bool {
			if st.HeapEntries%ctxCheckEvery == 0 {
				if scanErr = CtxErr(ctx); scanErr != nil {
					return false
				}
			}
			st.HeapEntries++
			if _, dup := seen[id]; dup {
				return true // another alternative of an already-decided tuple
			}
			seen[id] = struct{}{}
			// Filter on the encoding and build only the results.
			conf, err := tuple.EncodedConfidence(enc, attr, value)
			if err != nil {
				scanErr = err
				return false
			}
			if conf > 0 && conf >= qt {
				tup, err := tuple.Decode(enc)
				if err != nil {
					scanErr = err
					return false
				}
				results = append(results, Result{Tuple: tup, Confidence: conf})
			}
			return true
		})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return nil, err
		}
		SortResults(results)
		return results, nil
	})
}
