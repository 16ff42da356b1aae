package fracture

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"upidb/internal/obs"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// Stats aggregates per-partition query statistics.
type Stats struct {
	upi.QueryStats
	// PartitionsRead is 1 (main) + the number of fractures consulted.
	PartitionsRead int
	// BufferHits counts results served from the RAM insert buffer.
	BufferHits int
	// ModeledTime is the modeled disk time this query's own I/O was
	// charged (the sum of its replayed partition tapes) — exact per
	// query even while other queries or merges run concurrently.
	ModeledTime time.Duration
}

// Kind identifies the query class a Req describes.
type Kind int

// The query classes the fractured store executes.
const (
	// KindPTQ is a probabilistic threshold query on the primary
	// attribute.
	KindPTQ Kind = iota
	// KindSecondary is a PTQ on a secondary attribute.
	KindSecondary
	// KindTopK is a top-k query on the primary attribute.
	KindTopK
)

// Req is one query descriptor: the predicate plus per-query execution
// options. It is the single entry point the facade's Table.Run maps to.
type Req struct {
	Kind  Kind
	Attr  string // secondary attribute (KindSecondary only)
	Value string
	QT    float64 // threshold (PTQ kinds)
	K     int     // result bound (KindTopK)
	// Trace, when set, receives span events (partition scan start/end)
	// as the query executes, on the goroutine that pulls; see TraceFunc.
	Trace TraceFunc
}

// snapshot is a consistent view of the store taken under the read
// lock: the partition list (index 0 = main), the delete sets its
// results must pass, the matches already found in the RAM insert
// buffer, and pins on every partition's file lifetime so a concurrent
// merge cannot remove files mid-scan.
type snapshot struct {
	parts []*part
	// dels holds every fracture's delete set in partition order, then
	// the pending-buffer tombstones copied at snapshot time; partition
	// i's results must pass dels[i:]. The fracture sets are immutable
	// once flushed, so they are shared by reference: snapshotting stays
	// O(buffer) although delete sets carry every upserted ID.
	dels []map[uint64]bool
	// pinned[i] reports that parts[i] is still pinned.
	pinned []bool
	// bufResults are the RAM-buffer matches; the stream sorts them and
	// consumes them from the front.
	bufResults []upi.Result
	fs         *storage.FS
	met        *obs.EngineMetrics

	// mu guards pinned. Pins are normally released by the single
	// consumer (the merged stream, partition by partition), but an
	// abandoned Prepared may be released by a GC cleanup on another
	// goroutine, so the bookkeeping is locked and idempotent.
	mu sync.Mutex
}

// killedBy reports whether any of the delete sets holds id.
func killedBy(sets []map[uint64]bool, id uint64) bool {
	for _, m := range sets {
		if m[id] {
			return true
		}
	}
	return false
}

// snapshotFor captures the current partitions and evaluates the RAM
// buffer under the read lock. match returns the confidence of a
// buffered tuple and whether it qualifies; buffer evaluation is pure
// CPU, so doing it under the lock keeps the snapshot consistent at no
// I/O cost. Fails with ErrClosed once the store is closed.
func (s *Store) snapshotFor(match func(*tuple.Tuple) (float64, bool)) (*snapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	n := len(s.parts)
	snap := &snapshot{
		parts:  s.parts,
		dels:   make([]map[uint64]bool, n),
		pinned: make([]bool, n),
		fs:     s.fs,
		met:    s.opts.Metrics,
	}
	for i, p := range s.parts[1:] {
		snap.dels[i] = p.deleted
	}
	// The buffer's tombstones keep changing after the snapshot is
	// released, so copy them once.
	bufDel := make(map[uint64]bool, len(s.bufDeletes))
	for id := range s.bufDeletes {
		bufDel[id] = true
	}
	snap.dels[n-1] = bufDel
	for i, p := range s.parts {
		p.ref.pin()
		snap.pinned[i] = true
	}
	for _, id := range s.bufOrder {
		tup := s.bufTuples[id]
		if conf, ok := match(tup); ok {
			snap.bufResults = append(snap.bufResults, upi.Result{Tuple: tup, Confidence: conf})
		}
	}
	return snap, nil
}

// unpinPart releases the pin on one partition, exactly once; the
// merged stream calls it the moment that partition's result stream is
// exhausted, so a long-lived stream does not keep already-drained
// partitions' files alive.
func (snap *snapshot) unpinPart(i int) {
	snap.mu.Lock()
	pinned := snap.pinned[i]
	snap.pinned[i] = false
	snap.mu.Unlock()
	if pinned {
		snap.parts[i].ref.unpin()
		snap.met.PinReleases.Inc()
	}
}

// execPlan is everything a Req compiles to: the RAM-buffer match
// predicate, the per-partition cursor factory, and the top-k bound
// (0 = unbounded).
type execPlan struct {
	match  func(*tuple.Tuple) (float64, bool)
	cursor func(ctx context.Context, t *upi.Table) *upi.Cursor
	k      int
	empty  bool // trivially empty query (top-k with k <= 0)
}

// compileReq maps a Req onto its execution plan. primary is the
// table's primary attribute, the same on every store of one table.
func compileReq(primary string, req Req) (execPlan, error) {
	var p execPlan
	switch req.Kind {
	case KindPTQ:
		p.match = func(tup *tuple.Tuple) (float64, bool) {
			// conf > 0 mirrors the on-disk paths: a tuple without the
			// value among its alternatives never matches, even at qt=0
			// (it has no heap entry under the value either).
			conf := tup.Confidence(primary, req.Value)
			return conf, conf > 0 && conf >= req.QT
		}
		p.cursor = func(ctx context.Context, t *upi.Table) *upi.Cursor {
			return t.QueryCursor(ctx, req.Value, req.QT)
		}
	case KindSecondary:
		p.match = func(tup *tuple.Tuple) (float64, bool) {
			conf := tup.Confidence(req.Attr, req.Value)
			return conf, conf > 0 && conf >= req.QT
		}
		p.cursor = func(ctx context.Context, t *upi.Table) *upi.Cursor {
			return t.SecondaryCursor(ctx, req.Attr, req.Value, req.QT, true)
		}
	case KindTopK:
		if req.K <= 0 {
			return execPlan{empty: true}, nil
		}
		p.k = req.K
		p.match = func(tup *tuple.Tuple) (float64, bool) {
			conf := tup.Confidence(primary, req.Value)
			return conf, conf > 0
		}
		// Top-k is the PTQ with no threshold: the stream's k bound counts
		// live yields, after the supersedence filter, so a partition must
		// not cap its own scan at k entries that may all be superseded.
		p.cursor = func(ctx context.Context, t *upi.Table) *upi.Cursor {
			return t.QueryCursor(ctx, req.Value, 0)
		}
	default:
		return execPlan{}, fmt.Errorf("fracture: unknown query kind %d", req.Kind)
	}
	return p, nil
}

// Run executes one query described by req against the fractured UPI:
// the union of the main UPI, every fracture and the insert buffer,
// minus deleted tuples (Section 4.2). It is Prepare followed by
// Collect. A done context fails fast with ErrCanceled before any
// partition is pinned or charged.
func (s *Store) Run(ctx context.Context, req Req) ([]upi.Result, Stats, error) {
	p, err := s.Prepare(ctx, req)
	if err != nil {
		return nil, Stats{}, err
	}
	return p.Collect(ctx)
}

// Prepared is a query that has been compiled and snapshotted but not
// yet executed: the partition set is pinned as of the Prepare call, so
// the result set is fixed no matter when it is consumed. Stream is the
// one executor; Collect drains it into a slice. A Prepared is consumed
// at most once; Release discards an unconsumed one.
type Prepared struct {
	st   *Stream // the executor, not yet started
	used bool
}

// Prepare compiles req, evaluates the RAM buffer and pins the current
// partition set. A done context fails fast with ErrCanceled before
// any partition is pinned or any modeled I/O charged.
func (s *Store) Prepare(ctx context.Context, req Req) (*Prepared, error) {
	return PrepareAll(ctx, []*Store{s}, req)
}

// PrepareAll is Prepare over every store of one table (its hash
// shards): req is compiled once, each store is snapshotted and pinned
// in order (a failure releases the ones before it), and the returned
// Prepared's stream merges the partitions of all of them; trace events
// name a store by its index in stores.
func PrepareAll(ctx context.Context, stores []*Store, req Req) (*Prepared, error) {
	if err := upi.CtxErr(ctx); err != nil {
		return nil, err
	}
	plan, err := compileReq(stores[0].attr, req)
	if err != nil {
		return nil, err
	}
	st := &Stream{cursor: plan.cursor, trace: req.Trace, k: plan.k, snaps: make([]*snapshot, 0, len(stores))}
	p := &Prepared{st: st}
	if plan.empty {
		st.done = true
		return p, nil
	}
	for _, s := range stores {
		snap, err := s.snapshotFor(plan.match)
		if err != nil {
			st.releasePins()
			return nil, err
		}
		st.snaps = append(st.snaps, snap)
	}
	return p, nil
}

// Collect drains Stream into a slice and returns it with the stream's
// final statistics. It executes exactly what the stream executes: a
// top-k Collect stops at the k-th result and charges only the I/O read
// up to it, and a failed or cancelled drain is charged the I/O it had
// consumed.
func (p *Prepared) Collect(ctx context.Context) ([]upi.Result, Stats, error) {
	st := p.Stream(ctx)
	results, err := upi.Drain(st.Next)
	return results, st.Stats(), err
}

// Release discards a Prepared without consuming it, dropping every
// partition pin and spending the handle — a later Collect or Stream
// fails instead of scanning partitions whose files may already be
// reclaimed. Safe to call at any time and idempotent; consuming paths
// release on their own.
func (p *Prepared) Release() {
	p.used = true
	p.st.releasePins()
}

// errConsumed reports a second consumption of a Prepared.
var errConsumed = errors.New("fracture: prepared query already consumed")

// Query answers a PTQ on the primary attribute. It is shorthand for
// Run with a KindPTQ request.
func (s *Store) Query(ctx context.Context, value string, qt float64) ([]upi.Result, Stats, error) {
	return s.Run(ctx, Req{Kind: KindPTQ, Value: value, QT: qt})
}

// QuerySecondary answers a PTQ on a secondary attribute across all
// partitions. Each fracture's secondary index points into that
// fracture's own heap (Section 4.2), so tailored access (Algorithm 3)
// runs per-partition.
func (s *Store) QuerySecondary(ctx context.Context, attr, value string, qt float64) ([]upi.Result, Stats, error) {
	return s.Run(ctx, Req{Kind: KindSecondary, Attr: attr, Value: value, QT: qt})
}

// TopK returns the k highest-confidence matches across all partitions.
func (s *Store) TopK(ctx context.Context, value string, k int) ([]upi.Result, Stats, error) {
	return s.Run(ctx, Req{Kind: KindTopK, Value: value, K: k})
}

func addStats(a, b upi.QueryStats) upi.QueryStats {
	a.HeapEntries += b.HeapEntries
	a.CutoffPointers += b.CutoffPointers
	a.SecondaryEntries += b.SecondaryEntries
	a.ReusedPointers += b.ReusedPointers
	return a
}

// collectLiveTuples returns every live tuple across the given
// partitions, oldest first, deduplicated by ID. deletes[i] is
// partition i's snapshot-time delete filter. Used by the rebuild path
// of Merge, which folds on-disk partitions only: the RAM buffer is
// flushed first or left to apply at query time.
func collectLiveTuples(parts []*part, deletes []map[uint64]bool) ([]*tuple.Tuple, error) {
	byID := make(map[uint64]*tuple.Tuple)
	for i, p := range parts {
		t, deleted := p.table, deletes[i]
		var scanErr error
		err := t.ScanHeap(func(id uint64, enc []byte) bool {
			if deleted[id] {
				return true
			}
			if _, seen := byID[id]; seen {
				return true // other alternatives of an already-collected tuple
			}
			tup, err := tuple.Decode(enc)
			if err != nil {
				scanErr = fmt.Errorf("fracture: merge: tuple %d in %s: %w", id, t.Name(), err)
				return false
			}
			byID[id] = tup
			return true
		})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return nil, err
		}
	}
	ids := make([]uint64, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*tuple.Tuple, len(ids))
	for i, id := range ids {
		out[i] = byID[id]
	}
	return out, nil
}
