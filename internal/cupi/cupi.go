// Package cupi implements the Continuous UPI of paper Section 5: a
// primary index for uncertain 2-D attributes built on top of a U-Tree.
//
// The U-Tree (Tao et al., VLDB 2005) is the page-based R-Tree (small
// 4 KiB node pages) over uncertainty-region MBRs, each leaf entry
// fattened with precomputed probabilistically-constrained region (PCR)
// radii. At query time the PCRs accept or reject most candidates
// without touching the object; the rest are fetched. A fetched
// candidate the PCRs left undecided is rejected by a closed-form
// half-plane bound where that bound proves it below the threshold
// (prob.ConstrainedGaussian.ProbInCircleAtLeast), and integrated exactly
// otherwise; a PCR-accepted one is always integrated, since its
// confidence is its exact probability.
//
// The objects live in a heap file in one of two layouts:
//
//   - Clustered (the default, the continuous UPI): 64 KiB pages written
//     in DFS leaf order, so tuples of one leaf share a heap page and
//     neighboring leaves occupy neighboring pages ("which achieves
//     sequential access similar to a primary index as long as the
//     R-Tree nodes are clustered well").
//   - Unclustered (Options.Unclustered, the paper's secondary U-Tree
//     baseline of Figures 7 and 8): 8 KiB pages appended in arrival
//     order, so every fetch is a random access.
//
// A secondary index on the uncertain road-segment attribute points
// into the heap; in the clustered layout, because segment and location
// are correlated, its pointer targets cluster into few heap pages,
// which is the effect Figure 8 measures.
//
// # Concurrency
//
// A Table is safe for concurrent use: the R-Tree, segment index and
// heap are mutated in place, so queries hold a read lock for their
// whole traversal and Insert takes the write lock. A streaming cursor
// (CircleCursor, SegmentCursor) holds the read lock from its first
// pull until it is exhausted, failed or closed, so a slow consumer
// delays writers, and queries that arrive behind a waiting writer wait
// too. A cursor dropped mid-drain without Close wedges every later
// Insert, Flush and Close, and a goroutine that Inserts while it drains
// one of the table's cursors deadlocks itself.
//
// # Rows and insert atomicity
//
// Both indexes address a row by its heap position: an R-Tree leaf
// entry's Data is its row's packed RowID (entryData), a segment-index
// value the RowID itself. The heap row is an insert's one commit mark.
// Insert appends the row, then writes the index entries that point at
// it; if one of them fails it tombstones the row, and since both query
// paths skip a deleted row, that one write hides every entry the
// failed insert left. A retry appends a new row, so a leftover entry
// never points at a live one. If the tombstone fails too, the table
// closes itself rather than let a half-inserted row surface.
//
// A table is not durable: there is no WAL, no manifest and no way to
// reopen its files.
package cupi

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"upidb/internal/btree"
	"upidb/internal/heapfile"
	"upidb/internal/keyenc"
	"upidb/internal/prob"
	"upidb/internal/rtree"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// Options configure a U-Tree table.
type Options struct {
	// Unclustered appends the heap in arrival order on 8 KiB pages (the
	// secondary U-Tree baseline) instead of writing it in DFS leaf
	// order on 64 KiB pages (the continuous UPI).
	Unclustered bool
}

// heapPageSize is the heap file's page size in the configured layout
// (paper Figure 2 for the clustered one).
func (o Options) heapPageSize() int {
	if o.Unclustered {
		return storage.DefaultPageSize
	}
	return storage.HeapPageSize
}

// Table is a U-Tree with a secondary index on the uncertain segment
// attribute, over a clustered or unclustered heap. Safe for concurrent
// use (see the package comment for the locking discipline).
type Table struct {
	*table
	// rec receives the I/O charges of this handle's reads; nil charges
	// the disk (see View).
	rec storage.Recorder
}

// table is the state every view of one Table shares.
type table struct {
	fs   *storage.FS
	name string

	// mu guards everything below: the trees and the heap are mutated
	// in place by Insert, so queries hold the read lock for their whole
	// traversal and Insert holds the write lock.
	mu     sync.RWMutex
	closed bool
	rt     *rtree.Tree
	heap   *heapfile.Heap
	segIdx *btree.Tree
	// ids holds the ID of every committed observation, for Insert's
	// duplicate check.
	ids map[uint64]struct{}

	// insertFail, when set (tests only), injects an error after the
	// named insert stage ("heap", "rtree", "seg:<i>") or in place of a
	// failed insert's "tombstone".
	insertFail func(stage string) error
}

// Result is one query answer.
type Result struct {
	Obs *tuple.Observation
	// Confidence is the appearance probability within the query region.
	Confidence float64
}

// Stats describes the work one query did.
type Stats struct {
	Candidates   int // leaf entries whose MBR intersected the query
	PCRAccepted  int
	PCRRejected  int
	Integrations int // fetched records whose probability was integrated exactly
	// Bounded counts the fetched records the half-plane bound rejected
	// without integrating them: Integrations + Bounded == Fetched on a
	// circle query.
	Bounded int
	Fetched int // heap records fetched
}

// SortResults orders results by confidence DESC, ID ASC.
func SortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		if c := cmp.Compare(b.Confidence, a.Confidence); c != 0 {
			return c
		}
		return cmp.Compare(a.Obs.ID, b.Obs.ID)
	})
}

// BulkBuild loads observations into a new table: the heap in the
// layout opts selects, the STR-loaded R-Tree over it, then the segment
// index bulk-loaded.
func BulkBuild(fs *storage.FS, name string, obs []*tuple.Observation, opts Options) (*Table, error) {
	t := &Table{table: &table{fs: fs, name: name, ids: make(map[uint64]struct{}, len(obs))}}
	entries := make([]rtree.Entry, len(obs))
	for i, o := range obs {
		if err := o.Validate(); err != nil {
			return nil, err
		}
		if _, dup := t.ids[o.ID]; dup {
			return nil, fmt.Errorf("cupi: duplicate observation ID %d", o.ID)
		}
		t.ids[o.ID] = struct{}{}
		entries[i] = rtree.Entry{MBR: o.Loc.MBR(), Data: uint64(i), Aux: pcrAux(o.Loc)}
	}

	np, err := storage.NewPager(fs.Create(name+".cupi.rtree"), storage.RTreePageSize)
	if err != nil {
		return nil, err
	}
	if t.rt, err = rtree.Create(np); err != nil {
		return nil, err
	}
	hp, err := storage.NewPager(fs.Create(name+".cupi.heap"), opts.heapPageSize())
	if err != nil {
		return nil, err
	}
	if t.heap, err = heapfile.Create(hp); err != nil {
		return nil, err
	}
	// An entry's Data is its observation's index until place appends the
	// row and stores the row's position instead. The heap order is the
	// layout: arrival order, or DFS leaf order, appended leaf by leaf as
	// the bulk load writes the leaves (the clustering step).
	rids := make([]heapfile.RowID, len(obs))
	place := func(leaf []rtree.Entry) error {
		for j, e := range leaf {
			rid, err := t.heap.Append(tuple.EncodeObservation(obs[e.Data]))
			if err != nil {
				return err
			}
			rids[e.Data], leaf[j].Data = rid, entryData(rid)
		}
		return nil
	}
	if opts.Unclustered {
		if err := place(entries); err != nil {
			return nil, err
		}
		place = nil
	}
	if err := t.rt.BulkLoad(entries, place); err != nil {
		return nil, err
	}

	// Segment secondary index: {segment, conf DESC, id} -> RowID.
	type segKey struct {
		key []byte
		rid heapfile.RowID
	}
	var segs []segKey
	for i, o := range obs {
		for _, a := range o.Segment {
			segs = append(segs, segKey{key: upi.HeapKey(a.Value, a.Prob, o.ID), rid: rids[i]})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return keyenc.Compare(segs[i].key, segs[j].key) < 0 })
	sp, err := storage.NewPager(fs.Create(name+".cupi.seg"), storage.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	sb, err := btree.NewBuilder(sp)
	if err != nil {
		return nil, err
	}
	for _, s := range segs {
		if err := sb.Add(s.key, encodeRowID(s.rid)); err != nil {
			return nil, err
		}
	}
	if t.segIdx, err = sb.Finish(); err != nil {
		return nil, err
	}
	if err := t.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}

// entryData packs a heap position into an R-Tree leaf entry's Data.
func entryData(rid heapfile.RowID) uint64 { return uint64(rid.Page)<<16 | uint64(rid.Slot) }

// entryRow unpacks the heap position entryData packed.
func entryRow(data uint64) heapfile.RowID {
	return heapfile.RowID{Page: storage.PageID(data >> 16), Slot: uint16(data)}
}

// encodeRowID serializes a RowID as a segment-index value.
func encodeRowID(rid heapfile.RowID) []byte {
	v := keyenc.AppendUint64(nil, uint64(rid.Page))
	return keyenc.AppendUint64(v, uint64(rid.Slot))
}

// decodeRowID parses a RowID produced by encodeRowID.
func decodeRowID(v []byte) (heapfile.RowID, error) {
	pg, rest, err := keyenc.DecodeUint64(v)
	if err != nil {
		return heapfile.RowID{}, err
	}
	slot, _, err := keyenc.DecodeUint64(rest)
	if err != nil {
		return heapfile.RowID{}, err
	}
	return heapfile.RowID{Page: storage.PageID(pg), Slot: uint16(slot)}, nil
}

// failpoint fires the injected insert failure for one stage.
func (t *Table) failpoint(stage string) error {
	if t.insertFail == nil {
		return nil
	}
	return t.insertFail(stage)
}

// Insert adds one observation after the initial load. The R-Tree
// grows normally; the observation is appended at the heap tail (an
// overflow region), so clustering degrades gradually until a rebuild —
// the continuous analogue of fragmentation.
//
// Insert is all-or-nothing: it appends the row, then writes the index
// entries that point at it, and tombstones the row if any of them
// fails (see the package comment). A failed tombstone closes the table
// and Insert's error then wraps upi.ErrClosed.
func (t *Table) Insert(o *tuple.Observation) error {
	if err := o.Validate(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return upi.ErrClosed
	}
	if _, dup := t.ids[o.ID]; dup {
		return fmt.Errorf("cupi: duplicate observation ID %d", o.ID)
	}
	rid, err := t.heap.Append(tuple.EncodeObservation(o))
	if err != nil {
		return err
	}
	if err := t.insertIndexes(o, rid); err != nil {
		return t.tombstone(rid, err)
	}
	t.ids[o.ID] = struct{}{}
	return nil
}

// insertIndexes adds a heap-appended observation to the R-Tree and the
// segment index under the write lock Insert holds.
func (t *Table) insertIndexes(o *tuple.Observation, rid heapfile.RowID) error {
	if err := t.failpoint("heap"); err != nil {
		return err
	}
	if err := t.rt.Insert(rtree.Entry{MBR: o.Loc.MBR(), Data: entryData(rid), Aux: pcrAux(o.Loc)}); err != nil {
		return err
	}
	if err := t.failpoint("rtree"); err != nil {
		return err
	}
	for i, a := range o.Segment {
		if err := t.failpoint(fmt.Sprintf("seg:%d", i)); err != nil {
			return err
		}
		// A retry's Put replaces the entry its failed attempt left.
		if _, err := t.segIdx.Put(upi.HeapKey(a.Value, a.Prob, o.ID), encodeRowID(rid)); err != nil {
			return err
		}
	}
	return nil
}

// tombstone deletes the row of an insert that failed with cause, under
// the write lock Insert holds. If the delete fails too, the row and its
// index entries stay live, so the table closes itself and the error
// joins cause, the delete's failure and upi.ErrClosed.
func (t *Table) tombstone(rid heapfile.RowID, cause error) error {
	err := t.failpoint("tombstone")
	if err == nil {
		_, err = t.heap.Delete(rid)
	}
	if err != nil {
		t.closed = true
		return errors.Join(cause, err, upi.ErrClosed)
	}
	return cause
}

// Close marks the table closed: every subsequent query, cursor pull
// and Insert fails with upi.ErrClosed. In-flight queries (which hold
// the read lock) finish normally first. Closing twice is safe.
func (t *Table) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	return nil
}

// Closed reports whether the table has been closed.
func (t *Table) Closed() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.closed
}

// View returns a handle on the same table whose queries and cursors
// charge the pages they miss to rec instead of the disk. The lock and
// the buffer pools stay shared: a page another reader cached is a free
// hit. A view is for reading; it costs one allocation.
func (t *Table) View(rec storage.Recorder) *Table {
	return &Table{table: t.table, rec: rec}
}

// RTree exposes the R-Tree. Intended for bulk-load-time inspection;
// direct traversals are not synchronized with concurrent inserts.
func (t *Table) RTree() *rtree.Tree { return t.rt }

// Heap exposes the heap file (same caveat as RTree).
func (t *Table) Heap() *heapfile.Heap { return t.heap }

// Name returns the table name files are derived from.
func (t *Table) Name() string { return t.name }

// SizeBytes returns the total on-disk size.
func (t *Table) SizeBytes() int64 {
	return t.fs.Size(t.name+".cupi.rtree") + t.fs.Size(t.name+".cupi.heap") + t.fs.Size(t.name+".cupi.seg")
}

// Pagers returns the pagers of the table's three files: heap, R-Tree
// and segment index.
func (t *Table) Pagers() []*storage.Pager {
	return []*storage.Pager{t.heap.Pager(), t.rt.Pager(), t.segIdx.Pager()}
}

// Flush writes all dirty pages.
func (t *Table) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.Pagers() {
		if err := p.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// DropCaches takes the table's pages out of the buffer pool
// (cold-cache state).
func (t *Table) DropCaches() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.Pagers() {
		if err := p.DropCache(); err != nil {
			return err
		}
	}
	return nil
}

// ctxCheckEvery is how many heap fetches or segment-index entries a
// query handles between two checks of its context, beside the checks
// at its start and at each R-Tree leaf (a leaf of 4 KiB holds 56
// entries, so the circle cursor needs no other). A check takes the
// context's mutex, which costs more than the fetch it guards.
const ctxCheckEvery = 64

// queryRect is the MBR of a circle query.
func queryRect(q prob.Point, radius float64) prob.Rect {
	return prob.Rect{MinX: q.X - radius, MinY: q.Y - radius, MaxX: q.X + radius, MaxY: q.Y + radius}
}

// circleCand is one R-Tree candidate of a circle query.
type circleCand struct {
	rid      heapfile.RowID
	accepted bool
}

// filterLeafCandidates applies the PCR filter to one leaf's matching
// entries, appending the survivors to cands. Shared by the
// materialized QueryCircle and the streaming CircleCursor so both apply
// exactly the same candidate discipline.
func filterLeafCandidates(es []rtree.Entry, q prob.Point, radius, threshold float64, stats *Stats, cands []circleCand) []circleCand {
	for _, e := range es {
		stats.Candidates++
		decision := checkPCR(e.MBR.Center(), e.Aux, q, radius, threshold)
		if decision == pcrReject {
			stats.PCRRejected++
			continue
		}
		if decision == pcrAccept {
			stats.PCRAccepted++
		}
		cands = append(cands, circleCand{rid: entryRow(e.Data), accepted: decision == pcrAccept})
	}
	return cands
}

// sortCands orders candidates for the heap sweep. Every leaf entry
// addresses its own row, so the order is total.
func sortCands(cands []circleCand) {
	slices.SortFunc(cands, func(a, b circleCand) int { return a.rid.Compare(b.rid) })
}

// circleCandidates runs the R-Tree traversal + PCR filter phase of a
// circle query under the read lock the caller holds.
func (t *Table) circleCandidates(ctx context.Context, queryMBR prob.Rect, q prob.Point, radius, threshold float64, stats *Stats) ([]circleCand, error) {
	var (
		cands  []circleCand
		ctxErr error
	)
	err := t.rt.View(t.rec, 1).SearchLeaves(queryMBR, func(_ storage.PageID, es []rtree.Entry) bool {
		if ctxErr = upi.CtxErr(ctx); ctxErr != nil {
			return false
		}
		cands = filterLeafCandidates(es, q, radius, threshold, stats, cands)
		return true
	})
	if err == nil {
		err = ctxErr
	}
	return cands, err
}

// refineCand fetches one candidate through the query's heap reader and
// computes its exact confidence, unless the half-plane bound proves an
// undecided candidate below the threshold first.
// ok is false when the row is a failed insert's tombstone or the
// confidence is below the threshold. A row that qualifies is left
// unbuilt in *view, the validated view of its heap record, for the
// caller's builder: the circle cursor builds it on the consumer's
// goroutine, so its coroutine's stack holds no build.
func (t *Table) refineCand(heap *heapfile.Reader, c circleCand, q prob.Point, radius, threshold float64, stats *Stats, view *tuple.ObservationView) (float64, bool, error) {
	rec, ok, err := heap.Get(c.rid)
	if err != nil || !ok {
		return 0, false, err
	}
	stats.Fetched++
	// Bound or integrate first, build only a row that qualifies, from the
	// one framing walk. The walk validates the whole record, so a corrupt
	// row fails the query whether or not it would have qualified.
	v, err := tuple.ValidateObservation(rec)
	if err != nil {
		return 0, false, err
	}
	// A PCR-accepted row qualifies whatever the bound says, and its
	// confidence is its exact probability, so it is always integrated:
	// a floor of 0 never rejects.
	floor := threshold
	if c.accepted {
		floor = 0
	}
	conf, ok := v.Loc().ProbInCircleAtLeast(q, radius, floor)
	if !ok {
		stats.Bounded++
		return 0, false, nil
	}
	stats.Integrations++
	if !c.accepted && conf < threshold {
		return 0, false, nil
	}
	*view = v
	return conf, true, nil
}

// batch holds up to tuple.SlabRows qualifying rows of a query that
// holds its whole answer, unbuilt, and builds them into slabs sized
// exactly for them once it is full or the query ends. The views alias
// heap pages, so a batch is flushed before the read lock is dropped.
type batch struct {
	views [tuple.SlabRows]tuple.ObservationView
	confs [tuple.SlabRows]float64
	n     int
	out   []Result
}

// add holds one row, building the batch when it is full.
func (bt *batch) add(v tuple.ObservationView, conf float64) {
	bt.views[bt.n], bt.confs[bt.n] = v, conf
	if bt.n++; bt.n == len(bt.views) {
		bt.flush()
	}
}

// flush builds the rows held and returns every row built so far.
func (bt *batch) flush() []Result {
	var b tuple.ObservationBuilder
	for _, v := range bt.views[:bt.n] {
		b.Reserve(v)
	}
	for i, v := range bt.views[:bt.n] {
		bt.out = append(bt.out, Result{Obs: b.Build(v), Confidence: bt.confs[i]})
	}
	bt.n = 0
	return bt.out
}

// QueryCircle answers the paper's Query 4: observations within radius
// of q with appearance probability >= threshold. All candidates are
// fetched in one RowID-ordered sweep: on the clustered heap that is a
// compact, mostly sequential run of pages; on the unclustered heap it
// is the baseline's bitmap-scan fetch. The context is checked at the
// start, at each R-Tree leaf and every ctxCheckEvery heap fetches; a
// cancelled query returns upi.ErrCanceled. Results are sorted by
// confidence DESC, ID ASC.
func (t *Table) QueryCircle(ctx context.Context, q prob.Point, radius, threshold float64) ([]Result, Stats, error) {
	var stats Stats
	if err := upi.CtxErr(ctx); err != nil {
		return nil, stats, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return nil, stats, upi.ErrClosed
	}
	cands, err := t.circleCandidates(ctx, queryRect(q, radius), q, radius, threshold, &stats)
	if err != nil {
		return nil, stats, err
	}
	sortCands(cands)
	var (
		bt   batch
		view tuple.ObservationView
	)
	heap := t.heap.View(t.rec, 1).Reader()
	for i, c := range cands {
		if i%ctxCheckEvery == 0 {
			if err := upi.CtxErr(ctx); err != nil {
				return nil, stats, err
			}
		}
		conf, ok, err := t.refineCand(&heap, c, q, radius, threshold, &stats, &view)
		if err != nil {
			return nil, stats, err
		}
		if ok {
			bt.add(view, conf)
		}
	}
	results := bt.flush()
	SortResults(results)
	return results, stats, nil
}

// segEntry is one collected segment-index entry: the heap row it
// points at plus the confidence encoded in its key.
type segEntry struct {
	rid  heapfile.RowID
	conf float64
}

// scanSegment collects the index entries for one segment value above
// qt under the read lock the caller holds.
func (t *Table) scanSegment(seg string, qt float64) ([]segEntry, error) {
	var (
		entries []segEntry
		scanErr error
	)
	start, end := upi.ValuePrefix(seg), upi.ValuePrefixEnd(seg)
	err := t.segIdx.View(t.rec, 1).Scan(start, end, func(k, v []byte) bool {
		conf, _, err := upi.DecodeConfID(k)
		if err != nil {
			scanErr = err
			return false
		}
		if conf < qt {
			return false
		}
		rid, err := decodeRowID(v)
		if err != nil {
			scanErr = err
			return false
		}
		entries = append(entries, segEntry{rid: rid, conf: conf})
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// fetchSegment fetches the observations of the collected segment-index
// entries in heap (physical) order — it sorts entries in place — and
// attaches each entry's own confidence. An entry whose row is a failed
// insert's tombstone is skipped.
func (t *Table) fetchSegment(ctx context.Context, entries []segEntry, stats *Stats) ([]Result, error) {
	slices.SortFunc(entries, func(a, b segEntry) int { return a.rid.Compare(b.rid) })
	heap := t.heap.View(t.rec, 1).Reader()
	var bt batch
	for i, e := range entries {
		if i%ctxCheckEvery == 0 {
			if err := upi.CtxErr(ctx); err != nil {
				return nil, err
			}
		}
		rec, ok, err := heap.Get(e.rid)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		view, err := tuple.ValidateObservation(rec)
		if err != nil {
			return nil, err
		}
		stats.Fetched++
		bt.add(view, e.conf)
	}
	results := bt.flush()
	SortResults(results)
	return results, nil
}

// QuerySegment answers the paper's Query 5: observations whose
// uncertain road segment equals seg with probability >= qt, via the
// secondary index into the clustered heap. The context is checked
// before and after the index scan and every ctxCheckEvery heap
// fetches. Stats reports the index entries scanned (Candidates) and
// heap records fetched.
func (t *Table) QuerySegment(ctx context.Context, seg string, qt float64) ([]Result, Stats, error) {
	var stats Stats
	if err := upi.CtxErr(ctx); err != nil {
		return nil, stats, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return nil, stats, upi.ErrClosed
	}
	entries, err := t.scanSegment(seg, qt)
	if err != nil {
		return nil, stats, err
	}
	stats.Candidates = len(entries)
	if err := upi.CtxErr(ctx); err != nil {
		return nil, stats, err
	}
	rs, err := t.fetchSegment(ctx, entries, &stats)
	if err != nil {
		return nil, stats, err
	}
	return rs, stats, nil
}
