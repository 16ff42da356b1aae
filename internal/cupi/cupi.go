// Package cupi implements the Continuous UPI of paper Section 5: a
// primary index for uncertain 2-D attributes built on top of a U-Tree.
//
// The U-Tree (Tao et al., VLDB 2005) is the page-based R-Tree (small
// 4 KiB node pages) over uncertainty-region MBRs, each leaf entry
// fattened with precomputed probabilistically-constrained region (PCR)
// radii. At query time the PCRs accept or reject most candidates
// without touching the object; only undecided candidates are fetched
// and integrated exactly.
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
// A Table is safe for concurrent use: queries take a read lock for
// their whole traversal (the R-Tree, segment index and heap are
// mutated in place, so unlike the fractured store there is no
// immutable partition snapshot to scan outside the lock), Insert takes
// the write lock. Readers run in parallel. A streaming cursor
// (CircleCursor, SegmentCursor) holds the read lock from its first
// pull until it is exhausted, failed or closed — so a slow stream
// consumer delays writers, and once a writer is waiting, new queries
// queue behind it (Go's RWMutex blocks later readers behind a pending
// writer) until the stream finishes. Always Close an abandoned cursor:
// a cursor dropped mid-drain without Close holds the read lock forever
// and wedges every subsequent Insert, Flush and Close. A goroutine
// must not Insert into the table while it is itself mid-drain on one
// of the table's cursors (self-deadlock). Lock-free streaming via an
// immutable-root R-Tree is a recorded ROADMAP follow-on.
//
// # Insert atomicity
//
// Insert is all-or-nothing with respect to queries: the rows map is
// the commit point, written only after the heap append and every index
// insert succeeded. Both query paths ignore physical artifacts that
// are not committed in rows (R-Tree entries and heap rows of a failed
// insert are invisible; stale segment-index entries are filtered by
// RowID mismatch), so a failed Insert leaves no phantom results and
// does not block a retry of the same observation ID.
package cupi

import (
	"cmp"
	"context"
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
	rows   map[uint64]heapfile.RowID
	// strays is set once an Insert has failed after its heap append: its
	// leftovers may include an R-Tree entry, so a retry of the same ID
	// can put that ID in the R-Tree twice, and circle queries must dedup
	// candidates by ID from then on.
	strays bool

	// insertFail, when set (tests only), injects an error after the
	// named insert stage: "heap", "rtree", "seg:<i>".
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
	Integrations int // exact integrations performed
	Fetched      int // heap records fetched
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

// BulkBuild loads observations into a new table: the STR-loaded
// R-Tree, the heap in the layout opts selects, then the segment index
// bulk-loaded.
func BulkBuild(fs *storage.FS, name string, obs []*tuple.Observation, opts Options) (*Table, error) {
	t := &Table{table: &table{fs: fs, name: name, rows: make(map[uint64]heapfile.RowID, len(obs))}}

	byID := make(map[uint64]*tuple.Observation, len(obs))
	entries := make([]rtree.Entry, 0, len(obs))
	for _, o := range obs {
		if err := o.Validate(); err != nil {
			return nil, err
		}
		if _, dup := byID[o.ID]; dup {
			return nil, fmt.Errorf("cupi: duplicate observation ID %d", o.ID)
		}
		byID[o.ID] = o
		entries = append(entries, rtree.Entry{MBR: o.Loc.MBR(), Data: o.ID, Aux: pcrAux(o.Loc)})
	}

	np, err := storage.NewPager(fs.Create(name+".cupi.rtree"), storage.RTreePageSize)
	if err != nil {
		return nil, err
	}
	if t.rt, err = rtree.Create(np); err != nil {
		return nil, err
	}
	if err := t.rt.BulkLoad(entries); err != nil {
		return nil, err
	}

	hp, err := storage.NewPager(fs.Create(name+".cupi.heap"), opts.heapPageSize())
	if err != nil {
		return nil, err
	}
	if t.heap, err = heapfile.Create(hp); err != nil {
		return nil, err
	}
	// The heap order is the layout: arrival order, or DFS leaf order
	// (the clustering step).
	order := obs
	if !opts.Unclustered {
		order = make([]*tuple.Observation, 0, len(obs))
		if err := t.rt.Leaves(func(_ storage.PageID, es []rtree.Entry) bool {
			for _, e := range es {
				order = append(order, byID[e.Data])
			}
			return true
		}); err != nil {
			return nil, err
		}
	}
	for _, o := range order {
		rid, err := t.heap.Append(tuple.EncodeObservation(o))
		if err != nil {
			return nil, err
		}
		t.rows[o.ID] = rid
	}

	// Segment secondary index: {segment, conf DESC, id} -> RowID.
	type segEntry struct {
		key []byte
		rid heapfile.RowID
	}
	var segs []segEntry
	for _, o := range obs {
		for _, a := range o.Segment {
			segs = append(segs, segEntry{
				key: upi.HeapKey(a.Value, a.Prob, o.ID),
				rid: t.rows[o.ID],
			})
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
// Insert is all-or-nothing: the rows map (the commit point both query
// paths consult) is written last, and a failure in any index insert
// unwinds the segment-index entries already written. Physical leftovers
// of a failed insert — a heap row and possibly an R-Tree entry — are
// invisible to queries and are overwritten or superseded when the same
// observation is inserted again.
func (t *Table) Insert(o *tuple.Observation) error {
	if err := o.Validate(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return upi.ErrClosed
	}
	if _, dup := t.rows[o.ID]; dup {
		return fmt.Errorf("cupi: duplicate observation ID %d", o.ID)
	}
	rid, err := t.heap.Append(tuple.EncodeObservation(o))
	if err != nil {
		return err
	}
	if err := t.insertIndexes(o, rid); err != nil {
		t.strays = true
		return err
	}
	t.rows[o.ID] = rid // commit point: the insert becomes visible
	return nil
}

// insertIndexes adds a heap-appended observation to the R-Tree and the
// segment index under the write lock Insert holds.
func (t *Table) insertIndexes(o *tuple.Observation, rid heapfile.RowID) error {
	if err := t.failpoint("heap"); err != nil {
		return err
	}
	if err := t.rt.Insert(rtree.Entry{MBR: o.Loc.MBR(), Data: o.ID, Aux: pcrAux(o.Loc)}); err != nil {
		return err
	}
	if err := t.failpoint("rtree"); err != nil {
		return err
	}
	for i, a := range o.Segment {
		err := t.failpoint(fmt.Sprintf("seg:%d", i))
		if err == nil {
			_, err = t.segIdx.Put(upi.HeapKey(a.Value, a.Prob, o.ID), encodeRowID(rid))
		}
		if err != nil {
			// Unwind the entries already written so the index never
			// points at an uncommitted heap row; the RowID commit
			// filter in the query paths backstops a failed unwind.
			for _, b := range o.Segment[:i] {
				_, _ = t.segIdx.Delete(upi.HeapKey(b.Value, b.Prob, o.ID))
			}
			return err
		}
	}
	return nil
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

// checkOpenRLocked fails with ErrClosed once the table is closed. The
// caller holds at least the read lock.
func (t *Table) checkOpenRLocked() error {
	if t.closed {
		return upi.ErrClosed
	}
	return nil
}

// View returns a handle on the same table whose queries and cursors
// charge the pages they miss to rec instead of the disk. The lock, the
// committed rows and the buffer pools stay shared: a page another
// reader cached is a free hit. A view is for reading; it costs one
// allocation.
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

// queryRect is the MBR of a circle query.
func queryRect(q prob.Point, radius float64) prob.Rect {
	return prob.Rect{MinX: q.X - radius, MinY: q.Y - radius, MaxX: q.X + radius, MaxY: q.Y + radius}
}

// circleCand is one R-Tree candidate of a circle query. mbr is the
// R-Tree entry's rectangle: refineCand only honors a PCR accept when
// it matches the fetched observation's own MBR, so an accept computed
// from a stale entry (leftover of a failed insert, later retried with
// a different location) can never suppress the exact threshold check.
type circleCand struct {
	rid      heapfile.RowID
	mbr      prob.Rect
	accepted bool
}

// filterLeafCandidates applies the PCR filter, the committed-rows
// filter and the retried-insert dedup (seen, nil while the table has no
// strays) to one leaf's matching entries, appending the survivors —
// with their entry MBR captured for refineCand's stale-accept guard —
// to cands. The caller holds the read lock. Shared by the materialized
// QueryCircle and the streaming CircleCursor so both apply exactly the
// same candidate discipline.
func (t *Table) filterLeafCandidates(es []rtree.Entry, q prob.Point, radius, threshold float64, seen map[uint64]bool, stats *Stats, cands []circleCand) []circleCand {
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
		rid, ok := t.rows[e.Data]
		if !ok || seen[e.Data] {
			continue
		}
		if seen != nil {
			seen[e.Data] = true
		}
		cands = append(cands, circleCand{rid: rid, mbr: e.MBR, accepted: decision == pcrAccept})
	}
	return cands
}

// sortCands orders candidates for the heap sweep. RowIDs are unique
// within a candidate set (an ID is in the R-Tree once unless the table
// has strays, and then seen dedups it), so the order is total.
func sortCands(cands []circleCand) {
	slices.SortFunc(cands, func(a, b circleCand) int { return a.rid.Compare(b.rid) })
}

// circleCandidates runs the R-Tree traversal + PCR filter phase of a
// circle query under the read lock the caller holds.
func (t *Table) circleCandidates(ctx context.Context, queryMBR prob.Rect, q prob.Point, radius, threshold float64, stats *Stats) ([]circleCand, error) {
	var (
		cands  []circleCand
		seen   = t.newSeenRLocked()
		ctxErr error
	)
	err := t.rt.View(t.rec, 1).SearchLeaves(queryMBR, func(_ storage.PageID, es []rtree.Entry) bool {
		if ctxErr = upi.CtxErr(ctx); ctxErr != nil {
			return false
		}
		cands = t.filterLeafCandidates(es, q, radius, threshold, seen, stats, cands)
		return true
	})
	if err == nil {
		err = ctxErr
	}
	return cands, err
}

// newSeenRLocked returns the dedup set of one circle query: nil unless
// a failed insert has left strays (see table.strays). The caller holds
// the read lock.
func (t *Table) newSeenRLocked() map[uint64]bool {
	if !t.strays {
		return nil
	}
	return make(map[uint64]bool)
}

// refineCand fetches one candidate and computes its exact confidence.
// ok is false when the row vanished or the confidence is below the
// threshold. A row that qualifies is left unbuilt in *view, the
// validated view of its heap record, for the caller's builder: the
// circle cursor builds it on the consumer's goroutine, so its
// coroutine's stack holds no build.
func (t *Table) refineCand(c circleCand, q prob.Point, radius, threshold float64, stats *Stats, view *tuple.ObservationView) (float64, bool, error) {
	rec, ok, err := t.heap.View(t.rec, 1).Get(c.rid)
	if err != nil || !ok {
		return 0, false, err
	}
	stats.Fetched++
	// Integrate first, build only a row that qualifies, from the one
	// framing walk. The walk validates the whole record, so a corrupt row
	// fails the query whether or not it would have qualified.
	v, err := tuple.ValidateObservation(rec)
	if err != nil {
		return 0, false, err
	}
	loc := v.Loc()
	conf := loc.ProbInCircle(q, radius)
	if !c.accepted || c.mbr != loc.MBR() {
		if !c.accepted {
			stats.Integrations++
		}
		if conf < threshold {
			return 0, false, nil
		}
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
// is the baseline's bitmap-scan fetch. The context is checked between
// R-Tree leaves and between heap fetches; a cancelled query returns
// upi.ErrCanceled. Results are sorted by confidence DESC, ID ASC.
func (t *Table) QueryCircle(ctx context.Context, q prob.Point, radius, threshold float64) ([]Result, Stats, error) {
	var stats Stats
	if err := upi.CtxErr(ctx); err != nil {
		return nil, stats, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkOpenRLocked(); err != nil {
		return nil, stats, err
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
	for i, c := range cands {
		if i%64 == 0 {
			if err := upi.CtxErr(ctx); err != nil {
				return nil, stats, err
			}
		}
		conf, ok, err := t.refineCand(c, q, radius, threshold, &stats, &view)
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
// points at plus the confidence encoded in its own key. Keeping the
// confidence per entry (not per observation ID) means a stale entry
// left by a failed insert whose unwind also failed can never clobber
// the committed entry's confidence — the stale RowID is simply
// filtered at fetch time.
type segEntry struct {
	rid  heapfile.RowID
	id   uint64
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
		conf, id, err := upi.DecodeConfID(k)
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
		entries = append(entries, segEntry{rid: rid, id: id, conf: conf})
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

// fetchSegment fetches committed observations for the collected
// segment-index entries in heap (physical) order — it sorts entries in
// place — and attaches each entry's own confidence. Entries whose RowID
// does not match the committed row for their observation ID are stale
// artifacts of a failed insert and are skipped.
func (t *Table) fetchSegment(ctx context.Context, entries []segEntry, stats *Stats) ([]Result, error) {
	slices.SortFunc(entries, func(a, b segEntry) int { return a.rid.Compare(b.rid) })
	heap := t.heap.View(t.rec, 1)
	var bt batch
	for i, e := range entries {
		if i%64 == 0 {
			if err := upi.CtxErr(ctx); err != nil {
				return nil, err
			}
		}
		if committed, ok := t.rows[e.id]; !ok || committed != e.rid {
			continue
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
// before the index scan and between heap fetches. Stats reports the
// index entries scanned (Candidates) and heap records fetched.
func (t *Table) QuerySegment(ctx context.Context, seg string, qt float64) ([]Result, Stats, error) {
	var stats Stats
	if err := upi.CtxErr(ctx); err != nil {
		return nil, stats, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkOpenRLocked(); err != nil {
		return nil, stats, err
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
