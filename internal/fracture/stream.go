package fracture

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"upidb/internal/sim"
	"upidb/internal/upi"
)

// Stream is the engine's one result merge: a k-way merge of the
// confidence-sorted cursors of every partition of every store the query
// was prepared over (one store, or every shard of a table), plus each
// store's RAM insert-buffer matches, yielding the globally next-best
// result while slower partitions have read only as many heap pages as
// their own pulls demanded. It mirrors the cursor discipline of
// kWayMerge — every source is already sorted, keep picking the best
// head — applied to query results instead of B+Tree entries.
//
// Results arrive in upi.ResultBefore order and pass their own store's
// pending-delete/upsert supersedence filter at yield time. For a top-k
// query the stream stops after k yields and cancels the remaining
// partition cursors, so pages they never reached are never read — and
// never charged.
//
// Accounting: each partition's cursor reads through a view of the
// partition (upi.Table.View) that records the pages it misses on a
// private tape; the tape is replayed against the shared disk in one
// batch the moment that partition's cursor is exhausted (or when the
// stream terminates early), and the partition's pin is released at the
// same moment. Each partition is charged a table-open cost (the
// Nfrac × Costinit term of the Section 6 cost model) plus its scan
// I/O. A tape holds this query's misses and nothing else: the replayed
// total for a full drain is exactly the serial scan's however many
// cores prime the cursors, and other queries and merges reading the
// same partitions never land on it (a page one of them cached is a
// free hit). The first pull primes every partition cursor across
// min(GOMAXPROCS, partitions) workers; after that, pulls are
// demand-driven.
//
// A Stream is single-consumer and not safe for concurrent use. The
// context is checked between pulls; a cancelled stream terminates with
// an error wrapping upi.ErrCanceled, charges only the I/O already
// consumed and releases every partition pin.
type Stream struct {
	ctx    context.Context
	cursor func(ctx context.Context, t *upi.Table) *upi.Cursor
	trace  TraceFunc
	k      int // stop after this many yields (0 = drain everything)

	snaps []*snapshot // one per store, in shard order
	// parts holds every merge source, nil until the first pull primes
	// them: the on-disk partitions of every store first (shard-major),
	// then one RAM-buffer source per store.
	parts   []streamPart
	yielded int
	stats   Stats
	done    bool
	err     error
}

// streamPart is one source of the merge: partition idx of store shard
// under that store's snapshot (its delete filter, its pin) or, with
// idx == bufferPart, that store's RAM-buffer matches. cur and tape
// stay nil for a partition whose scan never started (the context was
// done before its turn) and for a buffer source.
type streamPart struct {
	snap    *snapshot
	shard   int
	idx     int
	cur     *upi.Cursor
	tape    *sim.Tape
	head    upi.Result
	hasHead bool
	// finished marks the partition finalized: cursor closed, tape
	// replayed, stats folded in, pin released.
	finished bool
}

// bufferPart is the streamPart.idx of a store's RAM-buffer source.
const bufferPart = -1

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
// live result, fanning the openings out across min(GOMAXPROCS,
// partitions) workers — so the expensive first pull (which for
// secondary partitions is their whole execution) overlaps
// across partitions, of one store or of many. The RAM-buffer matches
// are sorted here too; they participate in the merge as zero-I/O
// sources.
func (st *Stream) prime() error {
	n := 0
	for _, snap := range st.snaps {
		n += len(snap.parts)
	}
	st.stats.PartitionsRead = n
	st.parts = make([]streamPart, 0, n+len(st.snaps))
	for shard, snap := range st.snaps {
		for i := range snap.parts {
			st.parts = append(st.parts, streamPart{snap: snap, shard: shard, idx: i})
		}
	}
	for shard, snap := range st.snaps {
		st.parts = append(st.parts, streamPart{snap: snap, shard: shard, idx: bufferPart})
	}

	errs := make([]error, n)
	open := func(i int) {
		p := &st.parts[i]
		if err := upi.CtxErr(st.ctx); err != nil {
			errs[i] = err
			return
		}
		t := p.snap.parts[p.idx]
		p.snap.met.ScanPartitions.Inc()
		st.trace.emit(TraceScanStart, p.shard, p.idx, t.Name())
		p.tape = sim.NewTape()
		p.tape.Open(t.Name())
		p.cur = st.cursor(st.ctx, t.View(p.tape))
		errs[i] = p.advance()
	}

	// The caller is one of the workers: a query over one partition, or
	// on one core, starts no goroutine.
	var next atomic.Int32
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			open(i)
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return errs[i]
		}
	}
	for i := n; i < len(st.parts); i++ {
		p := &st.parts[i]
		upi.SortResults(p.snap.bufResults)
		_ = p.advance() // a buffer source cannot fail
	}
	// Partitions that turned out empty are finalized immediately, so
	// their pins and tapes do not linger for the stream's lifetime.
	for i := range st.parts {
		if p := &st.parts[i]; !p.hasHead {
			st.finalizePart(p)
		}
	}
	return nil
}

// advance pulls the source's next live result (one that passes its
// store's supersedence filter) into p.head. It does not finalize on
// exhaustion — callers decide when to fold the partition in, because
// prime runs advance concurrently and finalization charges the shared
// disk.
func (p *streamPart) advance() error {
	if p.idx == bufferPart {
		// Buffered tuples are the newest version of their ID: nothing
		// supersedes them.
		buf := p.snap.bufResults
		if p.hasHead = len(buf) > 0; p.hasHead {
			p.head, p.snap.bufResults = buf[0], buf[1:]
		}
		return nil
	}
	killers := p.snap.killers[p.idx]
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
		if killedBy(killers, r.ID()) {
			continue
		}
		p.head, p.hasHead = r, true
		return nil
	}
}

// finalizePart folds an exhausted (or abandoned) partition into the
// stream: close the cursor so no further pages can be read, replay the
// consumed I/O in one batch, fold the statistics
// in and release the partition's pin. A partition whose scan never
// started has nothing to fold in and no span to end; a buffer source
// holds no pin either.
func (st *Stream) finalizePart(p *streamPart) {
	if p.finished || p.idx == bufferPart {
		return
	}
	p.finished = true
	if p.cur != nil {
		p.cur.Close()
		st.stats.QueryStats = addStats(st.stats.QueryStats, p.cur.Stats())
		st.stats.ModeledTime += p.snap.fs.Disk().Replay(p.tape)
		st.trace.emit(TraceScanEnd, p.shard, p.idx, p.snap.parts[p.idx].Name())
	}
	p.snap.unpinPart(p.idx)
}

// finish terminates the stream: every remaining partition is
// finalized (charging only the I/O its cursor actually consumed) and
// the terminal error, if any, is made sticky. The sources are dropped,
// so no page a head or cursor aliased stays reachable through the
// stream.
func (st *Stream) finish(err error) {
	if st.done {
		return
	}
	st.done = true
	st.err = err
	for i := range st.parts {
		st.finalizePart(&st.parts[i])
	}
	st.releasePins()
	st.parts = nil
}

// releasePins unpins every partition of every store still pinned.
// Idempotent.
func (st *Stream) releasePins() {
	for _, snap := range st.snaps {
		for i := range snap.pins {
			snap.unpinPart(i)
		}
	}
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
	if st.parts == nil {
		if err := st.prime(); err != nil {
			st.finish(err)
			return upi.Result{}, false, err
		}
	}

	// Pick the best head among the sources — the same
	// pick-the-smallest-cursor discipline as kWayMerge, with
	// (Confidence DESC, ID ASC) in place of key order.
	var best *streamPart
	for i := range st.parts {
		p := &st.parts[i]
		if !p.hasHead {
			continue
		}
		if best == nil || upi.ResultBefore(p.head, best.head) {
			best = p
		}
	}
	// Top-k early termination: every live cursor's next candidate ranks
	// at or below the k-th yielded result, so the remaining scans can
	// only produce discards. Cancel them; unread pages are never
	// charged. It only counts as an early termination when it cut work
	// short: some source still held a head.
	cut := st.k > 0 && st.yielded >= st.k
	if cut && best != nil {
		best.snap.met.TopKEarlyTerm.Inc()
	}
	if cut || best == nil {
		st.finish(nil)
		return upi.Result{}, false, nil
	}
	r = best.head
	if err := best.advance(); err != nil {
		st.finish(err)
		return upi.Result{}, false, err
	}
	if !best.hasHead {
		st.finalizePart(best)
	}
	if best.idx == bufferPart {
		st.stats.BufferHits++
	}
	st.yielded++
	best.snap.met.StreamYields.Inc()
	if st.trace != nil {
		st.trace(TraceEvent{
			Kind:   TraceYield,
			Shard:  best.shard,
			Detail: fmt.Sprintf("tuple %d conf %.6f", r.ID(), r.Confidence),
		})
	}
	return r, true, nil
}

// Close terminates the stream without draining it: remaining cursors
// are cancelled, consumed I/O is charged, and every pin is released.
// Idempotent; exhaustion and errors imply it.
func (st *Stream) Close() { st.finish(st.err) }

// Stats reports what the stream has touched so far, summed over every
// store it merges. Counters are final once the stream is exhausted,
// failed or closed; a partition's scan statistics and modeled time fold
// in when that partition finishes.
func (st *Stream) Stats() Stats { return st.stats }
