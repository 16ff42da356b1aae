package upi

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"upidb/internal/tuple"
)

// Result is one query answer: a tuple and the possible-world
// confidence with which it satisfies the predicate.
//
// A result travels in one of two forms. Built, Tuple is set and View is
// zero; that is what the executors that hold their whole answer before
// yielding (QuerySecondary, the cutoff-index chase), the RAM
// buffer and the materialized calls (Query, TopK, Drain) produce.
// Unbuilt, Tuple is nil and View is the validated encoding of the tuple,
// aliasing the heap leaf it was scanned from; that is what the streaming
// heap scan (QueryCursor, TopKCursor) yields, so that a row a merge above
// discards is never built. Everything an order or a filter needs — ID
// and Confidence — is available in both forms; Build turns the second
// into the first, from the framing walk the scan already did.
//
// An unbuilt result is valid until the next write to the table it came
// from (btree.Scan's aliasing rule). A fractured partition is never
// written after its bulk build and the pager never recycles a page
// buffer, so on a fractured table it is valid for the life of the
// value, across eviction, unpinning and the merge that deletes the
// partition's files; on a bare Table that is written in place it is
// valid until the next Insert or Delete, which is why Query and TopK
// build before returning. A held unbuilt result keeps its 8 KB page
// reachable.
type Result struct {
	Tuple      *tuple.Tuple
	Confidence float64
	// View is the tuple's validated encoding while Tuple is nil.
	View tuple.View
}

// ID is the tuple ID of the result, built or not.
func (r Result) ID() uint64 {
	if r.Tuple != nil {
		return r.Tuple.ID
	}
	return r.View.ID()
}

// Build returns r in built form: Tuple set, View dropped (a built
// result never keeps a page alive). A built r is returned unchanged.
func (r Result) Build() Result {
	if r.Tuple == nil {
		r.Tuple, r.View = r.View.Build(), tuple.View{}
	}
	return r
}

// QueryStats reports what one query touched, for cost-model validation.
type QueryStats struct {
	// HeapEntries is the number of heap-file entries scanned.
	HeapEntries int
	// CutoffPointers is the number of pointers retrieved from the
	// cutoff index (the x of the saturation model, Figure 11).
	CutoffPointers int
	// SecondaryEntries is the number of secondary-index entries read.
	SecondaryEntries int
	// ReusedPointers counts tailored-access pointer choices that
	// landed on an already-visited heap region.
	ReusedPointers int
}

// ctxCheckEvery is how many scanned entries pass between context
// checks — roughly one leaf page of heap entries, so a cancelled
// query stops within a page's worth of work.
const ctxCheckEvery = 64

// Query answers the PTQ "SELECT * WHERE attr = value, confidence >= qt"
// per Algorithm 2: one seek plus a sequential scan of the heap file,
// followed — only when qt < C — by a cutoff-index scan whose pointers
// are sorted in heap order before being chased. The context is checked
// between heap pages; a cancelled query returns ErrCanceled.
//
// Query is the materialized form of QueryCursor: it drains the cursor
// to exhaustion, so results, statistics and the I/O sequence are the
// cursor's.
func (t *Table) Query(ctx context.Context, value string, qt float64) ([]Result, QueryStats, error) {
	return drainCursor(t.QueryCursor(ctx, value, qt))
}

// queryCutoff performs the second half of Algorithm 2: collect
// matching cutoff pointers, sort them in heap order (the bitmap-scan
// discipline that produces saturation), then fetch each tuple. The heap
// keys the pointers resolve to share one buffer; refs[i] says where
// pointer i's lies in it.
func (t *Table) queryCutoff(ctx context.Context, value string, qt float64) ([]Result, int, error) {
	type ref struct {
		off, end int
		conf     float64 // confidence of the *queried* value, not the pointed-to one
	}
	var (
		refs []ref
		keys []byte
	)
	start, end := ValuePrefix(value), ValuePrefixEnd(value)
	var scanErr error
	err := t.cutoff.View(t.rec, 1).Scan(start, end, func(k, v []byte) bool {
		if len(refs)%ctxCheckEvery == 0 {
			if scanErr = CtxErr(ctx); scanErr != nil {
				return false
			}
		}
		conf, id, err := DecodeConfID(k)
		if err != nil {
			scanErr = err
			return false
		}
		if conf < qt {
			return false
		}
		ps, err := parsePointers(v)
		if err == nil && ps.n != 1 {
			err = fmt.Errorf("%d pointers", ps.n)
		}
		if err != nil {
			scanErr = fmt.Errorf("upi: bad cutoff entry: %w", err)
			return false
		}
		ptrValue, ptrConf, _ := ps.next()
		off := len(keys)
		keys = appendHeapKey(keys, ptrValue, ptrConf, id)
		refs = append(refs, ref{off: off, end: len(keys), conf: conf})
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return nil, 0, err
	}
	key := func(r ref) []byte { return keys[r.off:r.end] }
	slices.SortFunc(refs, func(a, b ref) int { return bytes.Compare(key(a), key(b)) })
	heap := t.heap.View(t.rec, 1)
	results := make([]Result, 0, len(refs))
	for i, r := range refs {
		if i%ctxCheckEvery == 0 {
			if err := CtxErr(ctx); err != nil {
				return nil, len(refs), err
			}
		}
		v, ok, err := heap.Get(key(r))
		if err != nil {
			return nil, len(refs), err
		}
		if !ok {
			return nil, len(refs), fmt.Errorf("upi: dangling cutoff pointer %x", key(r))
		}
		tup, err := tuple.Decode(v)
		if err != nil {
			return nil, len(refs), err
		}
		results = append(results, Result{Tuple: tup, Confidence: r.conf})
	}
	return results, len(refs), nil
}

// QuerySecondary answers a PTQ on a secondary uncertain attribute. With
// tailored access (Algorithm 3) it exploits the duplicated heap
// entries: entries with a single pointer commit their heap region
// first, then multi-pointer entries preferentially reuse regions
// already being read. Without tailored access it always follows the
// first (highest-confidence) pointer, like a conventional secondary
// index. Querying an attribute with no secondary index returns
// ErrUnknownAttr.
func (t *Table) QuerySecondary(ctx context.Context, attr, value string, qt float64, tailored bool) ([]Result, QueryStats, error) {
	var stats QueryStats
	if err := CtxErr(ctx); err != nil {
		return nil, stats, err
	}
	sec, ok := t.secondaries[attr]
	if !ok {
		return nil, stats, fmt.Errorf("%w: no secondary index on %q", ErrUnknownAttr, attr)
	}
	// Entries keep their pointer lists encoded, where the index pages
	// hold them: one pointer per entry is used, so none is built.
	type secEntry struct {
		id   uint64
		conf float64
		ptrs pointerList
	}
	var entries []secEntry
	start, end := ValuePrefix(value), ValuePrefixEnd(value)
	var scanErr error
	err := sec.View(t.rec, 1).Scan(start, end, func(k, v []byte) bool {
		if len(entries)%ctxCheckEvery == 0 {
			if scanErr = CtxErr(ctx); scanErr != nil {
				return false
			}
		}
		conf, id, err := DecodeConfID(k)
		if err != nil {
			scanErr = err
			return false
		}
		if conf < qt {
			return false
		}
		ps, err := parsePointers(v)
		if err == nil && ps.n == 0 {
			err = fmt.Errorf("upi: secondary entry of tuple %d has no pointer", id)
		}
		if err != nil {
			scanErr = err
			return false
		}
		entries = append(entries, secEntry{id: id, conf: conf, ptrs: ps})
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return nil, stats, err
	}
	stats.SecondaryEntries = len(entries)

	// Choose one pointer per entry and write its heap key. The keys share
	// one buffer; refs[i] says where entry i's lies in it.
	type fetchRef struct {
		off, end int
		conf     float64
	}
	refs := make([]fetchRef, len(entries))
	var keys []byte
	choose := func(i int, value []byte, conf float64) {
		off := len(keys)
		keys = appendHeapKey(keys, value, conf, entries[i].id)
		refs[i] = fetchRef{off: off, end: len(keys), conf: entries[i].conf}
	}
	if !tailored {
		for i, e := range entries {
			value, conf, _ := e.ptrs.next()
			choose(i, value, conf)
		}
	} else {
		// Algorithm 3, pass 1: single-pointer entries are forced moves;
		// record the heap regions (primary values) they commit us to.
		seen := make(map[string]bool)
		for i, e := range entries {
			if e.ptrs.n == 1 {
				value, conf, _ := e.ptrs.next()
				choose(i, value, conf)
				if !seen[string(value)] {
					seen[string(value)] = true
				}
			}
		}
		// Pass 2: multi-pointer entries reuse a committed region when
		// any of their pointers lands in one.
		for i, e := range entries {
			if e.ptrs.n == 1 {
				continue
			}
			picked := false
			for l := e.ptrs; l.n > 0 && !picked; {
				var value []byte
				var conf float64
				value, conf, l = l.next()
				if seen[string(value)] {
					choose(i, value, conf)
					picked = true
					stats.ReusedPointers++
				}
			}
			if !picked {
				value, conf, _ := e.ptrs.next()
				choose(i, value, conf)
				seen[string(value)] = true
			}
		}
	}

	// Fetch tuples in heap order (bitmap-scan discipline).
	key := func(r fetchRef) []byte { return keys[r.off:r.end] }
	slices.SortFunc(refs, func(a, b fetchRef) int { return bytes.Compare(key(a), key(b)) })
	heap := t.heap.View(t.rec, 1)
	results := make([]Result, 0, len(refs))
	for i, r := range refs {
		if i%ctxCheckEvery == 0 {
			if err := CtxErr(ctx); err != nil {
				return nil, stats, err
			}
		}
		v, ok, err := heap.Get(key(r))
		if err != nil {
			return nil, stats, err
		}
		if !ok {
			return nil, stats, fmt.Errorf("upi: dangling secondary pointer %x", key(r))
		}
		tup, err := tuple.Decode(v)
		if err != nil {
			return nil, stats, err
		}
		results = append(results, Result{Tuple: tup, Confidence: r.conf})
	}
	SortResults(results)
	return results, stats, nil
}

// TopK returns the k highest-confidence tuples for the given value of
// the primary attribute. Because the heap orders entries by confidence
// DESC, the scan stops after k heap entries unless the cutoff index
// may still hold candidates (Section 3.1: "a top-k query can terminate
// scanning the index when the top-k results are identified").
//
// TopK is the materialized form of TopKCursor: it drains the cursor to
// exhaustion.
func (t *Table) TopK(ctx context.Context, value string, k int) ([]Result, QueryStats, error) {
	return drainCursor(t.TopKCursor(ctx, value, k))
}

// scanReadAhead is the sequential read-ahead window (pages) ScanHeap
// reads the heap with, so the modeled cost matches the Costscan
// assumption of one seek per run of pages rather than one per page.
const scanReadAhead = 64

// ResultBefore is the engine's one result order: confidence descending,
// tuple ID ascending. Every access path yields in it and every merge
// (partitions within a shard, shards within a table) picks heads by
// it. Live results are unique on (confidence, ID) — an ID lives on one
// shard, and the supersedence filter leaves at most one live version
// per tuple — so the order is total.
func ResultBefore(a, b Result) bool {
	if a.Confidence != b.Confidence {
		return a.Confidence > b.Confidence
	}
	return a.ID() < b.ID()
}

// SortResults orders rs by ResultBefore.
func SortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		switch {
		case ResultBefore(a, b):
			return -1
		case ResultBefore(b, a):
			return 1
		}
		return 0
	})
}

// ScanHeap visits every heap entry in key order, reading the heap
// front to back with a scanReadAhead window. Used by the rebuild path
// of a fracture merge (and ScanCursor).
//
//lint:noctx callers thread cancellation through fn — fracture merging and ScanCursor check ctx in their callbacks
func (t *Table) ScanHeap(fn func(id uint64, enc []byte) bool) error {
	var scanErr error
	err := t.heap.View(t.rec, scanReadAhead).Scan(nil, nil, func(k, v []byte) bool {
		_, id, err := DecodeConfID(k)
		if err != nil {
			scanErr = err
			return false
		}
		return fn(id, v)
	})
	if err == nil {
		err = scanErr
	}
	return err
}
