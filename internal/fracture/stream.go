package fracture

import (
	"context"
	"sync"
	"sync/atomic"

	"upidb/internal/sim"
	"upidb/internal/upi"
)

// Stream is the executor of a fractured-UPI query: a k-way merge of the
// per-partition confidence-sorted cursors (plus the RAM insert buffer),
// yielding the globally next-best result while slower partitions have
// read only as many heap pages as their own pulls demanded. It mirrors
// the cursor discipline of kWayMerge — every source is already sorted,
// keep picking the best head — applied to query results instead of
// B+Tree entries.
//
// Results arrive in upi.ResultBefore order and pass the
// pending-delete/upsert supersedence filter at yield time. For a top-k
// query the stream stops after k yields and cancels the remaining
// partition cursors, so pages they never reached are never read — and
// never charged.
//
// Accounting: each partition records its I/O on a private tape as its
// pages are consumed; the tape is replayed against the shared disk in
// one batch the moment that partition's cursor is exhausted (or when
// the stream terminates early), and the partition's pin is released at
// the same moment. Each partition is charged a table-open cost (the
// Nfrac × Costinit term of the Section 6 cost model) plus its scan
// I/O. Partition tapes never share files, so the replayed total for a
// full drain is exactly the serial scan's, at any parallelism. The
// first pull primes every partition cursor across Parallelism workers;
// after that, pulls are demand-driven.
//
// A Stream is single-consumer and not safe for concurrent use. The
// context is checked between pulls; a cancelled stream terminates with
// an error wrapping upi.ErrCanceled, charges only the I/O already
// consumed and releases every partition pin.
type Stream struct {
	ctx    context.Context
	s      *Store
	snap   *snapshot
	cursor func(ctx context.Context, t *upi.Table) *upi.Cursor
	trace  TraceFunc
	k      int // stop after this many yields (0 = drain everything)

	primed  bool
	parts   []*streamPart
	buf     []upi.Result // sorted RAM-buffer matches
	bufIdx  int
	yielded int
	stats   Stats
	done    bool
	err     error
}

// streamPart is one partition's side of the merge. cur, tape and
// release stay nil for a partition whose scan never started (the
// context was done before its turn).
type streamPart struct {
	idx     int
	cur     *upi.Cursor
	tape    *sim.Tape
	release func() // tape routing release
	head    upi.Result
	hasHead bool
	// finished marks the partition finalized: cursor closed, tape
	// replayed, stats folded in, pin released.
	finished bool
}

// Stream hands out the Prepared's executor. A Prepared that was already
// consumed (or released) returns a stream that fails immediately.
func (p *Prepared) Stream(ctx context.Context) *Stream {
	if p.used {
		return &Stream{done: true, err: errConsumed}
	}
	p.used = true
	p.st.ctx = ctx
	return p.st
}

// prime opens every partition cursor and positions it on its first
// live result, fanning the openings out across snapshot.parallelism
// workers — so the expensive first pull (which for secondary and
// full-scan partitions is their whole execution) overlaps across
// partitions. The RAM-buffer matches are sorted here too; they
// participate in the merge as a zero-I/O source.
func (st *Stream) prime() error {
	st.primed = true
	snap := st.snap
	n := len(snap.parts)
	st.stats.PartitionsRead = n
	st.parts = make([]*streamPart, n)
	st.buf = snap.bufResults
	upi.SortResults(st.buf)

	errs := make([]error, n)
	open := func(i int) {
		p := &streamPart{idx: i}
		st.parts[i] = p
		if err := upi.CtxErr(st.ctx); err != nil {
			errs[i] = err
			return
		}
		t := snap.parts[i]
		snap.met.ScanPartitions.Inc()
		st.trace.emit(TraceScanStart, i, t.Name())
		p.tape = sim.NewTape()
		p.release = st.s.fs.RouteTo(t.Files(), p.tape)
		p.tape.Open(t.Name())
		p.cur = st.cursor(st.ctx, t)
		errs[i] = st.advance(p)
	}

	if workers := min(snap.parallelism, n); workers <= 1 {
		for i := 0; i < n; i++ {
			open(i)
		}
	} else {
		var next atomic.Int32
		next.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= n {
						return
					}
					open(i)
				}
			}()
		}
		wg.Wait()
	}

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return errs[i]
		}
	}
	// Partitions that turned out empty are finalized immediately, so
	// their pins and tapes do not linger for the stream's lifetime.
	for _, p := range st.parts {
		if !p.hasHead {
			st.finalizePart(p)
		}
	}
	return nil
}

// advance pulls the next live result (one that passes the supersedence
// filter) into p.head. It does not finalize on exhaustion — callers
// decide when to fold the partition in, because prime runs advance
// concurrently and finalization charges the shared disk.
func (st *Stream) advance(p *streamPart) error {
	killers := st.snap.killers[p.idx]
	for {
		r, ok, err := p.cur.Next()
		if err != nil {
			p.hasHead = false
			return err
		}
		if !ok {
			p.hasHead = false
			return nil
		}
		if killedBy(killers, r.Tuple.ID) {
			continue
		}
		p.head, p.hasHead = r, true
		return nil
	}
}

// finalizePart folds an exhausted (or abandoned) partition into the
// stream: close the cursor so no further pages can be read, stop
// routing, replay the consumed I/O in one batch, fold the statistics
// in and release the partition's pin. A partition whose scan never
// started has nothing to fold in and no span to end.
func (st *Stream) finalizePart(p *streamPart) {
	if p.finished {
		return
	}
	p.finished = true
	if p.cur != nil {
		p.cur.Close()
		st.stats.QueryStats = addStats(st.stats.QueryStats, p.cur.Stats())
		p.release()
		st.stats.ModeledTime += st.s.fs.Disk().Replay(p.tape)
		st.trace.emit(TraceScanEnd, p.idx, st.snap.parts[p.idx].Name())
	}
	st.snap.unpinPart(p.idx)
}

// finish terminates the stream: every remaining partition is
// finalized (charging only the I/O its cursor actually consumed) and
// the terminal error, if any, is made sticky.
func (st *Stream) finish(err error) {
	if st.done {
		return
	}
	st.done = true
	st.err = err
	for _, p := range st.parts {
		st.finalizePart(p)
	}
	st.snap.release()
}

// Next returns the globally next-best result. ok is false when the
// stream is exhausted (or, for top-k, the k-th result has been
// yielded); err is non-nil exactly once, on failure, and sticky
// afterwards.
func (st *Stream) Next() (r upi.Result, ok bool, err error) {
	if st.done {
		return upi.Result{}, false, st.err
	}
	if err := upi.CtxErr(st.ctx); err != nil {
		st.finish(err)
		return upi.Result{}, false, err
	}
	if !st.primed {
		if err := st.prime(); err != nil {
			st.finish(err)
			return upi.Result{}, false, err
		}
	}
	if st.k > 0 && st.yielded >= st.k {
		// Top-k early termination: every live cursor's next candidate
		// ranks at or below the k-th yielded result, so the remaining
		// scans can only produce discards. Cancel them; unread pages
		// are never charged.
		st.finish(nil)
		return upi.Result{}, false, nil
	}

	// Pick the best head among the partition cursors and the buffer —
	// the same pick-the-smallest-cursor discipline as kWayMerge, with
	// (Confidence DESC, ID ASC) in place of key order.
	var best *streamPart
	for _, p := range st.parts {
		if !p.hasHead {
			continue
		}
		if best == nil || upi.ResultBefore(p.head, best.head) {
			best = p
		}
	}
	useBuf := st.bufIdx < len(st.buf) &&
		(best == nil || upi.ResultBefore(st.buf[st.bufIdx], best.head))

	switch {
	case useBuf:
		r = st.buf[st.bufIdx]
		st.bufIdx++
		st.stats.BufferHits++
	case best != nil:
		r = best.head
		if err := st.advance(best); err != nil {
			st.finish(err)
			return upi.Result{}, false, err
		}
		if !best.hasHead {
			st.finalizePart(best)
		}
	default:
		st.finish(nil)
		return upi.Result{}, false, nil
	}
	st.yielded++
	return r, true, nil
}

// Close terminates the stream without draining it: remaining cursors
// are cancelled, consumed I/O is charged, and every pin is released.
// Idempotent; exhaustion and errors imply it.
func (st *Stream) Close() { st.finish(st.err) }

// Stats reports what the stream has touched so far. Counters are
// final once the stream is exhausted, failed or closed; a partition's
// scan statistics and modeled time fold in when that partition
// finishes.
func (st *Stream) Stats() Stats { return st.stats }
