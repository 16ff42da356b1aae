package shard

import (
	"context"
	"fmt"
	"sync"

	"upidb/internal/fracture"
	"upidb/internal/obs"
	"upidb/internal/upi"
)

// Prepared is a query scattered across every shard: one pinned
// fracture.Prepared per shard. Stream is the one executor (the gather
// half of scatter-gather); Collect drains it into a slice. A Prepared
// is consumed at most once; Release discards an unconsumed one.
// Per-shard pins release independently — a shard whose stream is
// exhausted frees its partitions while slower shards are still
// scanning.
type Prepared struct {
	preps []*fracture.Prepared
	k     int
	trace fracture.TraceFunc
	met   *obs.EngineMetrics
	used  bool
}

// errConsumed reports a second consumption of a Prepared.
var errConsumed = fmt.Errorf("shard: prepared query already consumed")

// Release discards an unconsumed Prepared, dropping every shard's
// partition pins. Idempotent; consuming paths release on their own.
func (p *Prepared) Release() {
	p.used = true
	for _, sub := range p.preps {
		sub.Release()
	}
}

// addFracStats folds one shard's execution statistics into the
// aggregate: counters sum, partition counts sum, modeled time sums
// (each shard's tapes replay against the shared disk model, so the
// table-level modeled cost is the serial sum of the per-shard costs).
func addFracStats(agg *fracture.Stats, st fracture.Stats) {
	agg.HeapEntries += st.HeapEntries
	agg.CutoffPointers += st.CutoffPointers
	agg.SecondaryEntries += st.SecondaryEntries
	agg.ReusedPointers += st.ReusedPointers
	agg.PartitionsRead += st.PartitionsRead
	agg.BufferHits += st.BufferHits
	agg.ModeledTime += st.ModeledTime
}

// Collect drains Stream into a slice and returns it with the stream's
// final aggregated statistics — the same execution, row for row: a
// top-k Collect stops every shard at the k-th result, and a failed or
// cancelled drain reports the I/O it had consumed.
func (p *Prepared) Collect(ctx context.Context) ([]upi.Result, fracture.Stats, error) {
	st := p.Stream(ctx)
	results, err := upi.Drain(st.Next)
	return results, st.Stats(), err
}

// Stream consumes the Prepared incrementally: a k-way merge over the
// per-shard streams (each itself a k-way merge over that shard's
// partitions), yielding the globally next-best result. May be called
// at most once.
func (p *Prepared) Stream(ctx context.Context) *Stream {
	if p.used {
		return &Stream{done: true, err: errConsumed}
	}
	p.used = true
	st := &Stream{ctx: ctx, k: p.k, trace: p.trace, met: p.met, subs: make([]*subStream, len(p.preps))}
	for i, sub := range p.preps {
		st.subs[i] = &subStream{shard: i, st: sub.Stream(ctx)}
	}
	return st
}

// subStream is one shard's side of the merge.
type subStream struct {
	shard   int
	st      *fracture.Stream
	head    upi.Result
	hasHead bool
}

// Stream is the gathered, globally ordered result stream of a sharded
// query. Semantics mirror fracture.Stream: single-consumer, context
// checked between pulls, top-k stops — and cancels every shard's
// remaining scans — at the k-th yield, and statistics aggregate across
// shards (see addFracStats).
//
// The merge is lazy: after the priming pull only the shard whose head
// was yielded is advanced, so a one-shard table drives its underlying
// stream with exactly the pull sequence an unsharded consumer would —
// pull-for-pull identical modeled costs.
type Stream struct {
	ctx   context.Context
	subs  []*subStream
	k     int
	trace fracture.TraceFunc
	met   *obs.EngineMetrics

	primed  bool
	last    *subStream // sub whose head was yielded by the previous Next
	yielded int
	done    bool
	err     error
}

// advance pulls sub's next head. A sub whose stream is exhausted has
// already finalized itself (fracture streams replay tapes and release
// pins per partition as they drain).
func (st *Stream) advance(sub *subStream) error {
	r, ok, err := sub.st.Next()
	if err != nil {
		sub.hasHead = false
		return err
	}
	sub.head, sub.hasHead = r, ok
	return nil
}

// prime pulls every shard's first head, one goroutine per shard — each
// shard's own priming already fans out across its partition worker
// pool, so this overlaps whole shards. The first error by shard index
// wins, for determinism.
func (st *Stream) prime() error {
	st.primed = true
	errs := make([]error, len(st.subs))
	var wg sync.WaitGroup
	for i, sub := range st.subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = st.advance(sub)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// finish terminates the stream: every shard's stream is closed
// (cancelling remaining scans, charging only consumed I/O, releasing
// every pin) and the terminal error, if any, made sticky.
func (st *Stream) finish(err error) {
	if st.done {
		return
	}
	st.done = true
	st.err = err
	for _, sub := range st.subs {
		sub.st.Close()
	}
}

// Next returns the globally next-best result across every shard. ok is
// false when the stream is exhausted (or, for top-k, the k-th result
// has been yielded); err is non-nil exactly once, on failure, and
// sticky afterwards.
func (st *Stream) Next() (r upi.Result, ok bool, err error) {
	if st.done {
		return upi.Result{}, false, st.err
	}
	if err := upi.CtxErr(st.ctx); err != nil {
		st.finish(err)
		return upi.Result{}, false, err
	}
	// The top-k check runs before any refill: at the k-th yield no
	// shard is pulled again, so — exactly like an unsharded stream —
	// pages beyond the k-th result are never read and never charged.
	if st.k > 0 && st.yielded >= st.k {
		// An early termination only counts when it actually cut work
		// short: some shard still held an unconsumed head whose scans
		// the finish below cancels.
		for _, sub := range st.subs {
			if sub.hasHead {
				st.met.TopKEarlyTerm.Inc()
				break
			}
		}
		st.finish(nil)
		return upi.Result{}, false, nil
	}
	if !st.primed {
		if err := st.prime(); err != nil {
			st.finish(err)
			return upi.Result{}, false, err
		}
	} else if st.last != nil {
		sub := st.last
		st.last = nil
		if err := st.advance(sub); err != nil {
			st.finish(err)
			return upi.Result{}, false, err
		}
	}

	var best *subStream
	for _, sub := range st.subs {
		if !sub.hasHead {
			continue
		}
		if best == nil || upi.ResultBefore(sub.head, best.head) {
			best = sub
		}
	}
	if best == nil {
		st.finish(nil)
		return upi.Result{}, false, nil
	}
	r = best.head
	st.last = best
	st.yielded++
	st.met.StreamYields.Inc()
	if st.trace != nil {
		st.trace(fracture.TraceEvent{
			Kind:   fracture.TraceYield,
			Shard:  best.shard,
			Detail: fmt.Sprintf("tuple %d conf %.6f", r.Tuple.ID, r.Confidence),
		})
	}
	return r, true, nil
}

// Close terminates the stream without draining it. Idempotent;
// exhaustion and errors imply it.
func (st *Stream) Close() { st.finish(st.err) }

// Stats aggregates what every shard's stream has touched so far.
// Counters are final once the stream is exhausted, failed or closed.
func (st *Stream) Stats() fracture.Stats {
	var agg fracture.Stats
	for _, sub := range st.subs {
		addFracStats(&agg, sub.st.Stats())
	}
	return agg
}
