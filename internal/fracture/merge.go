package fracture

import (
	"bytes"
	"time"

	"upidb/internal/btree"
	"upidb/internal/storage"
	"upidb/internal/upi"
)

// mergeSnapshot is everything a merge needs from the store, captured
// under the write lock so the build can proceed without holding it.
type mergeSnapshot struct {
	parts    []*upi.Table // index 0 = main, then the fractures to fold
	deletes  []map[uint64]bool
	nMerged  int // number of fractures being folded
	newGen   int // generation of the main UPI being built
	newName  string
	opts     upi.Options
	homogene bool
}

// Merge folds every fracture (and the RAM buffer) back into a fresh
// main UPI (Section 4.3): "The merging process is essentially a
// parallel sort-merge operation. Each file is already sorted
// internally, so we open cursors on all fractures in parallel and keep
// picking the smallest key from amongst all cursors." The new files
// are written sequentially.
//
// Merge is concurrency-friendly: it snapshots the partitions to fold
// under the write lock, builds the new main generation with no lock
// held — queries, inserts and flushes proceed meanwhile — and then
// atomically swaps the new main in. Fractures flushed while the merge
// was building survive the swap untouched. Old partition files are
// removed once the last in-flight query over them finishes.
//
// The merge reads its sources through their shared buffer pools and
// charges the disk; a query overlapping the build window is charged
// only its own misses, so a page the merge cached is a free hit for it.
func (s *Store) Merge() error {
	// One merge at a time; a second caller (or the background merger)
	// waits rather than building a competing generation.
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	mergeStart := time.Now()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// Buffered changes become one final fracture so the merge only
	// deals with on-disk partitions.
	if err := s.flushLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.gen++
	snap := mergeSnapshot{
		parts:   make([]*upi.Table, 0, 1+len(s.fractures)),
		deletes: make([]map[uint64]bool, 0, 1+len(s.fractures)),
		nMerged: len(s.fractures),
		newGen:  s.gen,
		newName: s.mainName(s.gen),
		opts:    s.opts.UPI,
	}
	snap.parts = append(snap.parts, s.main)
	snap.deletes = append(snap.deletes, s.deletesAfterLocked(-1))
	for i, f := range s.fractures {
		snap.parts = append(snap.parts, f.table)
		snap.deletes = append(snap.deletes, s.deletesAfterLocked(i))
	}
	snap.homogene = s.partitionsHomogeneousLocked()
	s.mu.Unlock()

	// Build the new main generation without holding the store lock.
	// The source partitions are immutable on disk, and mergeMu keeps
	// any other merge from removing them mid-read.
	var (
		newMain *upi.Table
		err     error
	)
	if snap.homogene {
		newMain, err = s.mergeByCursor(snap)
	} else {
		newMain, err = s.mergeByRebuild(snap)
	}
	if err != nil {
		return err
	}
	if err := s.swapMerged(newMain, snap.newGen, snap.nMerged); err != nil {
		return err
	}
	s.opts.Metrics.Merges.Inc()
	s.opts.Metrics.MergeSeconds.Observe(time.Since(mergeStart).Seconds())
	return nil
}

// partitionsHomogeneousLocked reports whether the main UPI and every
// fracture share the placement-relevant parameters of the current
// options. Callers must hold mu.
func (s *Store) partitionsHomogeneousLocked() bool {
	same := func(o upi.Options) bool {
		return o.Cutoff == s.opts.UPI.Cutoff && o.MaxPointers == s.opts.UPI.MaxPointers
	}
	if !same(s.main.Options()) {
		return false
	}
	for _, f := range s.fractures {
		if !same(f.table.Options()) {
			return false
		}
	}
	return true
}

// mergeByCursor performs the entry-level k-way merge. Entry-level
// merging preserves each entry's heap-vs-cutoff placement, which is
// only correct when every partition was built with the same parameters
// as the merged result (snap.homogene).
func (s *Store) mergeByCursor(snap mergeSnapshot) (*upi.Table, error) {
	mergeInto := func(file string, pick func(t *upi.Table) *btree.Tree) (*btree.Tree, error) {
		p, err := storage.NewPager(s.fs.Create(file), snap.opts.PageSize)
		if err != nil {
			return nil, err
		}
		if cp := snap.opts.CachePages; cp > 0 {
			if err := p.SetCacheLimit(cp); err != nil {
				return nil, err
			}
		}
		b, err := btree.NewBuilder(p)
		if err != nil {
			return nil, err
		}
		// Sources oldest-to-newest: main then fractures. Priority grows
		// with recency; on duplicate keys the newest version wins.
		curs := make([]*mergeCursor, len(snap.parts))
		for i, src := range snap.parts {
			// Sequential read-ahead: the merge reads every source file
			// front to back, so one seek covers a whole run of pages
			// ("the cost of merging is about the same as the cost of
			// sequentially reading all files").
			curs[i] = &mergeCursor{
				c:        pick(src).View(nil, mergeReadAhead).NewCursor().First(),
				priority: i,
				deleted:  snap.deletes[i],
			}
		}
		if err := kWayMerge(curs, b); err != nil {
			return nil, err
		}
		t, err := b.Finish()
		if err != nil {
			return nil, err
		}
		return t, p.Flush()
	}

	if _, err := mergeInto(upi.HeapFileName(snap.newName), func(t *upi.Table) *btree.Tree { return t.Heap() }); err != nil {
		return nil, err
	}
	if _, err := mergeInto(upi.CutoffFileName(snap.newName), func(t *upi.Table) *btree.Tree { return t.CutoffIndex() }); err != nil {
		return nil, err
	}
	for _, attr := range s.secAttrs {
		a := attr
		if _, err := mergeInto(upi.SecFileName(snap.newName, a), func(t *upi.Table) *btree.Tree {
			sec, _ := t.Secondary(a)
			return sec
		}); err != nil {
			return nil, err
		}
	}
	return upi.Open(s.fs, snap.newName, s.attr, s.secAttrs, snap.opts)
}

// mergeByRebuild collects every live tuple (sequential heap scans with
// upi.ScanHeap's read-ahead, oldest partition first) and bulk-builds a
// fresh main UPI with the current options.
func (s *Store) mergeByRebuild(snap mergeSnapshot) (*upi.Table, error) {
	tuples, err := collectLiveTuples(snap.parts, snap.deletes)
	if err != nil {
		return nil, err
	}
	return upi.BulkBuild(s.fs, snap.newName, s.attr, s.secAttrs, snap.opts, tuples)
}

// swapMerged atomically installs the merged main UPI, drops the folded
// fractures (keeping any flushed while the merge was building) and
// dooms the replaced partitions' files: they disappear as soon as the
// last in-flight query over the old generation releases its snapshot.
//
// On a durable store the manifest rename is the commit point: the new
// main's files are fsynced and the manifest rewritten *before* the
// in-memory swap, so a failure (or crash) before the rename changes
// nothing — the new files are removed (or swept as orphans on the next
// open) and the old generation remains authoritative.
func (s *Store) swapMerged(newMain *upi.Table, newGen, nMerged int) error {
	s.mu.Lock()
	if s.opts.Durable {
		err := syncTableFiles(s.fs, newMain)
		if err == nil {
			err = writeManifest(s.fs, s.name, newGen, newMain, s.fractures[nMerged:])
		}
		if err != nil {
			s.mu.Unlock()
			for _, f := range newMain.Files() {
				if s.fs.Exists(f) {
					_ = s.fs.Remove(f)
				}
			}
			return err
		}
	}
	oldMain := s.main
	oldMainRef := s.mainRef
	merged := s.fractures[:nMerged]
	s.main = newMain
	s.mainRef = newPartRef(s.fs)
	s.mainGen = newGen
	s.fractures = append([]*fract(nil), s.fractures[nMerged:]...)
	s.mu.Unlock()

	oldMainRef.doom(oldMain.Files())
	for _, f := range merged {
		f.ref.doom(append(f.table.Files(), s.delSetFile(f.gen)))
	}
	return nil
}

// mergeReadAhead is the per-source read-ahead window (pages) during a
// merge, standing in for the multi-megabyte merge buffers an LSM engine
// allocates per input run.
const mergeReadAhead = 64

type mergeCursor struct {
	c        *btree.Cursor
	priority int
	deleted  map[uint64]bool
}

// kWayMerge drains the cursors in global key order into the builder,
// applying each source's delete filter and letting the
// highest-priority (newest) source win duplicate keys. The winning key
// and value are staged in two buffers reused for every entry; the
// builder copies them into its page.
func kWayMerge(curs []*mergeCursor, b *btree.Builder) error {
	var keyBuf, valBuf []byte
	for {
		// Find the smallest current key.
		var minKey []byte
		for _, mc := range curs {
			if !mc.c.Valid() {
				continue
			}
			if minKey == nil || bytes.Compare(mc.c.Key(), minKey) < 0 {
				minKey = mc.c.Key()
			}
		}
		if minKey == nil {
			break
		}
		keyBuf = append(keyBuf[:0], minKey...)
		_, id, err := upi.DecodeConfID(keyBuf)
		if err != nil {
			return err
		}
		// Collect all cursors at that key; pick the newest live entry.
		bestPriority := -1
		for _, mc := range curs {
			if !mc.c.Valid() || !bytes.Equal(mc.c.Key(), keyBuf) {
				continue
			}
			if !mc.deleted[id] && mc.priority > bestPriority {
				bestPriority = mc.priority
				valBuf = append(valBuf[:0], mc.c.Value()...)
			}
			mc.c.Next()
		}
		if bestPriority >= 0 {
			if err := b.Add(keyBuf, valBuf); err != nil {
				return err
			}
		}
	}
	for _, mc := range curs {
		if err := mc.c.Err(); err != nil {
			return err
		}
	}
	return nil
}
