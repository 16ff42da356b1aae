// Package utree implements a U-Tree (Tao et al., VLDB 2005) over the
// page-based R-Tree: an index for uncertain 2-D objects with
// constrained-Gaussian uncertainty, supporting probabilistic threshold
// range queries.
//
// Each leaf entry stores the object's uncertainty-region MBR plus
// precomputed probabilistically-constrained region (PCR) radii — the
// quantile radii containing {0.3, 0.5, 0.7, 0.9} of the probability
// mass. At query time the PCRs accept or reject most candidates
// without touching the object; only undecided candidates are fetched
// and integrated exactly.
//
// As in the paper, this U-Tree is a *secondary* index: objects live in
// an unclustered heap file and every fetch is a random access. It is
// the baseline the continuous UPI (package cupi) is compared against
// in Figure 7.
package utree

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"upidb/internal/btree"
	"upidb/internal/heapfile"
	"upidb/internal/keyenc"
	"upidb/internal/prob"
	"upidb/internal/rtree"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// PCRProbs are the probability levels whose quantile radii are
// precomputed into each leaf entry's Aux payload.
var PCRProbs = [rtree.AuxSize]float64{0.3, 0.5, 0.7, 0.9}

// PCRAux computes the Aux payload for an object: quantile radii at
// PCRProbs.
func PCRAux(g prob.ConstrainedGaussian) [rtree.AuxSize]float64 {
	var aux [rtree.AuxSize]float64
	for i, p := range PCRProbs {
		aux[i] = g.QuantileRadius(p)
	}
	return aux
}

// PCRDecision classifies a candidate against a circular query without
// accessing the object.
type PCRDecision int

// PCR pruning outcomes.
const (
	PCRUndecided PCRDecision = iota
	PCRAccept
	PCRReject
)

// CheckPCR applies the accept/reject rules. center is the uncertainty
// region's center (the MBR center), aux its quantile radii.
//
//   - Accept: some disk(center, r_p) with p >= threshold lies fully
//     inside the query circle, so P(inside) >= p >= threshold.
//   - Reject: the query circle misses disk(center, r_p) entirely, so
//     P(inside) <= 1-p; reject when 1-p < threshold.
func CheckPCR(center prob.Point, aux [rtree.AuxSize]float64, q prob.Point, radius, threshold float64) PCRDecision {
	d := center.Dist(q)
	for i := len(PCRProbs) - 1; i >= 0; i-- {
		p, rp := PCRProbs[i], aux[i]
		if p >= threshold && d+rp <= radius {
			return PCRAccept
		}
	}
	for i := range PCRProbs {
		p, rp := PCRProbs[i], aux[i]
		if d >= radius+rp && 1-p < threshold {
			return PCRReject
		}
	}
	return PCRUndecided
}

// Options configure a U-Tree-indexed table.
type Options struct {
	// NodePageSize is the R-Tree node page size (default 4 KiB).
	NodePageSize int
	// HeapPageSize is the unclustered heap page size (default 8 KiB).
	HeapPageSize int
	CachePages   int
}

func (o Options) withDefaults() Options {
	if o.NodePageSize == 0 {
		o.NodePageSize = storage.RTreePageSize
	}
	if o.HeapPageSize == 0 {
		o.HeapPageSize = storage.DefaultPageSize
	}
	if o.CachePages == 0 {
		o.CachePages = storage.DefaultCachePages
	}
	return o
}

// Index is a U-Tree over an unclustered observation heap.
type Index struct {
	fs   *storage.FS
	name string
	opts Options

	rt     *rtree.Tree
	heap   *heapfile.Heap
	segIdx *btree.Tree
	rows   map[uint64]heapfile.RowID
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

// BulkBuild loads observations into a new U-Tree table. The heap is
// filled in observation (arrival) order — unclustered — and the R-Tree
// is STR-bulk-loaded.
func BulkBuild(fs *storage.FS, name string, obs []*tuple.Observation, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	u := &Index{fs: fs, name: name, opts: opts, rows: make(map[uint64]heapfile.RowID, len(obs))}

	hp, err := storage.NewPager(fs.Create(name+".utree.heap"), opts.HeapPageSize)
	if err != nil {
		return nil, err
	}
	if err := hp.SetCacheLimit(opts.CachePages); err != nil {
		return nil, err
	}
	if u.heap, err = heapfile.Create(hp); err != nil {
		return nil, err
	}
	entries := make([]rtree.Entry, 0, len(obs))
	for _, o := range obs {
		if err := o.Validate(); err != nil {
			return nil, err
		}
		rid, err := u.heap.Append(tuple.EncodeObservation(o))
		if err != nil {
			return nil, err
		}
		u.rows[o.ID] = rid
		entries = append(entries, rtree.Entry{MBR: o.Loc.MBR(), Data: o.ID, Aux: PCRAux(o.Loc)})
	}

	np, err := storage.NewPager(fs.Create(name+".utree.rtree"), opts.NodePageSize)
	if err != nil {
		return nil, err
	}
	if err := np.SetCacheLimit(opts.CachePages); err != nil {
		return nil, err
	}
	if u.rt, err = rtree.Create(np); err != nil {
		return nil, err
	}
	if err := u.rt.BulkLoad(entries); err != nil {
		return nil, err
	}

	// Segment secondary index over the unclustered heap (the
	// "PII on unclustered heap" configuration of Figure 8).
	type segEntry struct {
		key []byte
		rid heapfile.RowID
	}
	var segs []segEntry
	for _, o := range obs {
		for _, a := range o.Segment {
			segs = append(segs, segEntry{key: upi.HeapKey(a.Value, a.Prob, o.ID), rid: u.rows[o.ID]})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return keyenc.Compare(segs[i].key, segs[j].key) < 0 })
	sp, err := storage.NewPager(fs.Create(name+".utree.seg"), storage.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	if err := sp.SetCacheLimit(opts.CachePages); err != nil {
		return nil, err
	}
	sb, err := btree.NewBuilder(sp)
	if err != nil {
		return nil, err
	}
	for _, s := range segs {
		if err := sb.Add(s.key, EncodeRowID(s.rid)); err != nil {
			return nil, err
		}
	}
	if u.segIdx, err = sb.Finish(); err != nil {
		return nil, err
	}
	if err := u.Flush(); err != nil {
		return nil, err
	}
	return u, nil
}

// EncodeRowID serializes a RowID as a segment-index value.
func EncodeRowID(rid heapfile.RowID) []byte {
	v := keyenc.AppendUint64(nil, uint64(rid.Page))
	return keyenc.AppendUint64(v, uint64(rid.Slot))
}

// DecodeRowID parses a RowID produced by EncodeRowID.
func DecodeRowID(v []byte) (heapfile.RowID, error) {
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

// ScanSegmentIndex collects RowIDs and per-object confidences for one
// segment value above qt from a {segment, conf DESC, id} -> RowID
// index. Shared by the U-Tree and continuous-UPI query paths.
func ScanSegmentIndex(idx *btree.Tree, seg string, qt float64) ([]heapfile.RowID, map[uint64]float64, error) {
	var (
		rids    []heapfile.RowID
		confs   = make(map[uint64]float64)
		scanErr error
	)
	start, end := upi.ValuePrefix(seg), upi.ValuePrefixEnd(seg)
	err := idx.Scan(start, end, func(k, v []byte) bool {
		conf, id, err := upi.DecodeConfID(k)
		if err != nil {
			scanErr = err
			return false
		}
		if conf < qt {
			return false
		}
		rid, err := DecodeRowID(v)
		if err != nil {
			scanErr = err
			return false
		}
		rids = append(rids, rid)
		confs[id] = conf
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return nil, nil, err
	}
	return rids, confs, nil
}

// FetchSegmentResults fetches observations for the collected RowIDs in
// heap (physical) order and attaches confidences.
func FetchSegmentResults(heap *heapfile.Heap, rids []heapfile.RowID, confs map[uint64]float64) ([]Result, error) {
	sorted := slices.Clone(rids)
	slices.SortFunc(sorted, heapfile.RowID.Compare)
	var results []Result
	for _, rid := range sorted {
		rec, ok, err := heap.Get(rid)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		o, err := tuple.DecodeObservation(rec)
		if err != nil {
			return nil, err
		}
		results = append(results, Result{Obs: o, Confidence: confs[o.ID]})
	}
	SortResults(results)
	return results, nil
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

// QuerySegment answers the paper's Query 5 on the unclustered baseline.
func (u *Index) QuerySegment(seg string, qt float64) ([]Result, error) {
	rids, confs, err := ScanSegmentIndex(u.segIdx, seg, qt)
	if err != nil {
		return nil, err
	}
	return FetchSegmentResults(u.heap, rids, confs)
}

// SegmentIndex exposes the secondary index tree.
func (u *Index) SegmentIndex() *btree.Tree { return u.segIdx }

// Insert adds one observation (R-Tree insert + heap append).
func (u *Index) Insert(o *tuple.Observation) error {
	if err := o.Validate(); err != nil {
		return err
	}
	rid, err := u.heap.Append(tuple.EncodeObservation(o))
	if err != nil {
		return err
	}
	u.rows[o.ID] = rid
	if err := u.rt.Insert(rtree.Entry{MBR: o.Loc.MBR(), Data: o.ID, Aux: PCRAux(o.Loc)}); err != nil {
		return err
	}
	for _, a := range o.Segment {
		if _, err := u.segIdx.Put(upi.HeapKey(a.Value, a.Prob, o.ID), EncodeRowID(rid)); err != nil {
			return err
		}
	}
	return nil
}

// RTree exposes the underlying R-Tree.
func (u *Index) RTree() *rtree.Tree { return u.rt }

// Heap exposes the unclustered heap.
func (u *Index) Heap() *heapfile.Heap { return u.heap }

// SizeBytes returns the on-disk size of the index, heap and segment
// index.
func (u *Index) SizeBytes() int64 {
	return u.fs.Size(u.name+".utree.heap") + u.fs.Size(u.name+".utree.rtree") + u.fs.Size(u.name+".utree.seg")
}

// Flush writes all dirty pages.
func (u *Index) Flush() error {
	if err := u.heap.Pager().Flush(); err != nil {
		return err
	}
	if u.segIdx != nil {
		if err := u.segIdx.Pager().Flush(); err != nil {
			return err
		}
	}
	return u.rt.Pager().Flush()
}

// DropCaches empties the buffer pools (cold-cache state).
func (u *Index) DropCaches() error {
	if err := u.heap.Pager().DropCache(); err != nil {
		return err
	}
	if u.segIdx != nil {
		if err := u.segIdx.Pager().DropCache(); err != nil {
			return err
		}
	}
	return u.rt.Pager().DropCache()
}

// QueryCircle answers the paper's Query 4: all observations within
// radius of q with appearance probability >= threshold.
func (u *Index) QueryCircle(q prob.Point, radius, threshold float64) ([]Result, Stats, error) {
	var stats Stats
	queryMBR := prob.Rect{MinX: q.X - radius, MinY: q.Y - radius, MaxX: q.X + radius, MaxY: q.Y + radius}

	// Phase 1: R-Tree traversal + PCR filtering (index I/O only).
	type cand struct {
		id       uint64
		accepted bool
	}
	var cands []cand
	err := u.rt.Search(queryMBR, func(e rtree.Entry) bool {
		stats.Candidates++
		switch CheckPCR(e.MBR.Center(), e.Aux, q, radius, threshold) {
		case PCRAccept:
			stats.PCRAccepted++
			cands = append(cands, cand{id: e.Data, accepted: true})
		case PCRReject:
			stats.PCRRejected++
		default:
			cands = append(cands, cand{id: e.Data})
		}
		return true
	})
	if err != nil {
		return nil, stats, err
	}

	// Phase 2: fetch candidates from the unclustered heap in RowID
	// order (bitmap-scan discipline), integrate the undecided ones.
	type fetchRef struct {
		rid heapfile.RowID
		c   cand
	}
	refs := make([]fetchRef, 0, len(cands))
	for _, c := range cands {
		rid, ok := u.rows[c.id]
		if !ok {
			return nil, stats, fmt.Errorf("utree: no row for object %d", c.id)
		}
		refs = append(refs, fetchRef{rid: rid, c: c})
	}
	slices.SortFunc(refs, func(a, b fetchRef) int { return a.rid.Compare(b.rid) })
	var results []Result
	for _, r := range refs {
		rec, ok, err := u.heap.Get(r.rid)
		if err != nil {
			return nil, stats, err
		}
		if !ok {
			continue
		}
		stats.Fetched++
		// Integrate first, build only a row that qualifies; the one
		// framing walk still validates the whole record.
		view, err := tuple.ValidateObservation(rec)
		if err != nil {
			return nil, stats, err
		}
		conf := view.Loc().ProbInCircle(q, radius)
		if !r.c.accepted {
			stats.Integrations++
			if conf < threshold {
				continue
			}
		}
		results = append(results, Result{Obs: view.Build(), Confidence: conf})
	}
	SortResults(results)
	return results, stats, nil
}
