package fracture

import (
	"bytes"
	"maps"
	"time"

	"upidb/internal/btree"
	"upidb/internal/storage"
	"upidb/internal/upi"
)

// mergeSnapshot is everything a merge needs from the store, captured
// under the write lock so the build can proceed without holding it.
//
// A merge folds the tail parts[first:] of the partition list into one
// partition that takes index first. The fold that starts at main
// (first 0) builds a new main; a partial fold starts at the oldest
// fracture (first 1) and builds one new fracture, leaving main as it
// is.
type mergeSnapshot struct {
	first int
	parts []*part // the partitions folded, oldest first
	// deletes[i] is parts[i]'s filter: the union of the delete sets of
	// parts[i+1:]. The RAM buffer's pending deletes are not part of it
	// (a full fold has just flushed them, and a partial fold leaves
	// them to apply at query time, like any newer partition's).
	deletes  []map[uint64]bool
	newGen   int // generation of the partition being built
	newName  string
	opts     upi.Options
	homogene bool
}

// partialMergeShare is the ratio of main's on-disk bytes to the
// fractures' below which a background merge folds the fractures into
// one another instead of into main: main is rewritten only once they
// have grown to an eighth of it.
const partialMergeShare = 8

// Merge folds every fracture (and the RAM buffer) back into a fresh
// main UPI (Section 4.3): "The merging process is essentially a
// parallel sort-merge operation. Each file is already sorted
// internally, so we open cursors on all fractures in parallel and keep
// picking the smallest key from amongst all cursors." The new files
// are written sequentially. Merge always rewrites main; only the
// background merger (StartAutoMerge) also folds fractures into one
// another.
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
func (s *Store) Merge() error { return s.merge(false) }

// merge runs one merge. With partialOK, a store whose fractures fit a
// partial fold (partialFitsLocked) folds them into one new fracture;
// otherwise, and always without partialOK, it flushes the RAM buffer
// and folds every fracture into a new main.
func (s *Store) merge(partialOK bool) error {
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
	first := 0
	if partialOK && s.partialFitsLocked() {
		first = 1
	} else if err := s.flushLocked(); err != nil {
		// Buffered changes become one final fracture so the full fold
		// only deals with on-disk partitions.
		s.mu.Unlock()
		return err
	}
	snap := s.mergeSnapshotLocked(first)
	s.mu.Unlock()

	// Build the new partition without holding the store lock. The
	// source partitions are immutable on disk, and mergeMu keeps any
	// other merge from removing them mid-read.
	var (
		merged *upi.Table
		err    error
	)
	if snap.homogene {
		merged, err = s.mergeByCursor(snap)
	} else {
		merged, err = s.mergeByRebuild(snap)
	}
	if err != nil {
		return err
	}
	written, err := s.swapMerged(snap, merged)
	if err != nil {
		return err
	}
	s.opts.Metrics.Merges.Inc()
	if snap.first == 0 {
		s.opts.Metrics.MainRewrites.Inc()
	}
	s.opts.Metrics.MergeWrittenBytes.Add(written)
	s.opts.Metrics.MergeSeconds.Observe(time.Since(mergeStart).Seconds())
	return nil
}

// partialFitsLocked reports whether a merge may fold the fractures
// into one another: there are at least two, and they weigh less than
// 1/partialMergeShare of main. Callers must hold mu (either mode).
func (s *Store) partialFitsLocked() bool {
	if len(s.parts) < 3 {
		return false
	}
	var fractures int64
	for _, p := range s.parts[1:] {
		fractures += p.table.SizeBytes()
	}
	return partialMergeShare*fractures < s.parts[0].table.SizeBytes()
}

// mergeSnapshotLocked captures the partitions parts[first:] and their
// delete filters, and claims the generation of the partition the merge
// builds. Callers must hold mu.
func (s *Store) mergeSnapshotLocked(first int) mergeSnapshot {
	s.gen++
	snap := mergeSnapshot{
		first:   first,
		parts:   s.parts[first:],
		newGen:  s.gen,
		newName: s.mainName(s.gen),
		opts:    s.opts.UPI,
	}
	if first > 0 {
		snap.newName = s.fracName(s.gen)
	}
	for i := range snap.parts {
		deleted := make(map[uint64]bool)
		for _, p := range snap.parts[i+1:] {
			maps.Copy(deleted, p.deleted)
		}
		snap.deletes = append(snap.deletes, deleted)
	}
	snap.homogene = homogeneous(snap.parts, snap.opts)
	return snap
}

// homogeneous reports whether every partition shares the
// placement-relevant parameters of o, the options the merged partition
// is built with.
func homogeneous(parts []*part, o upi.Options) bool {
	for _, p := range parts {
		if po := p.table.Options(); po.Cutoff != o.Cutoff || po.MaxPointers != o.MaxPointers {
			return false
		}
	}
	return true
}

// mergeByCursor performs the entry-level k-way merge, file by file:
// each of the new partition's files merges the same file of every
// source. Entry-level merging preserves each entry's heap-vs-cutoff
// placement, which is only correct when every partition was built with
// the same parameters as the merged result (snap.homogene).
func (s *Store) mergeByCursor(snap mergeSnapshot) (*upi.Table, error) {
	// Trees and FileNames list a UPI's files in one order.
	srcs := make([][]*btree.Tree, len(snap.parts))
	for i, p := range snap.parts {
		srcs[i] = p.table.Trees()
	}
	for f, file := range upi.FileNames(snap.newName, s.secAttrs) {
		p, err := storage.NewPager(s.fs.Create(file), snap.opts.PageSize)
		if err != nil {
			return nil, err
		}
		b, err := btree.NewBuilder(p)
		if err != nil {
			return nil, err
		}
		// Sources oldest-to-newest. Priority grows with recency; on
		// duplicate keys the newest version wins.
		curs := make([]*mergeCursor, len(srcs))
		for i, trees := range srcs {
			// Sequential read-ahead: the merge reads every source file
			// front to back, so one seek covers a whole run of pages
			// ("the cost of merging is about the same as the cost of
			// sequentially reading all files").
			curs[i] = &mergeCursor{
				c:        trees[f].View(nil, mergeReadAhead).NewCursor().First(),
				priority: i,
				deleted:  snap.deletes[i],
			}
		}
		if err := kWayMerge(curs, b); err != nil {
			return nil, err
		}
		if _, err := b.Finish(); err != nil {
			return nil, err
		}
		// upi.Open reads the file through pagers of its own, so the
		// builder's pages would sit in the pool unreachable: write them
		// and take them out.
		if err := p.DropCache(); err != nil {
			return nil, err
		}
	}
	return upi.Open(s.fs, snap.newName, s.attr, s.secAttrs, snap.opts)
}

// mergeByRebuild collects every live tuple (sequential heap scans with
// upi.ScanHeap's read-ahead, oldest partition first) and bulk-builds
// the merged partition with the current options.
func (s *Store) mergeByRebuild(snap mergeSnapshot) (*upi.Table, error) {
	tuples, err := collectLiveTuples(snap.parts, snap.deletes)
	if err != nil {
		return nil, err
	}
	return upi.BulkBuild(s.fs, snap.newName, s.attr, s.secAttrs, snap.opts, tuples)
}

// swapMerged atomically installs the merged partition at index
// snap.first — a new main, or for a partial fold a new fracture in
// front of the fractures flushed while the merge was building — and
// dooms the folded partitions' files: they disappear as soon as the
// last in-flight query over the old generation releases its snapshot.
// It returns the bytes the merge wrote.
//
// A merged fracture keeps the union of the folded fractures' delete
// sets: its own entries are already filtered by them, but they still
// kill main's superseded and deleted versions. It is written like a
// flush's fracture, with its generation, claimed at snapshot time,
// older than any fracture flushed during the build.
//
// The manifest rename is the commit point: the new partition's files
// (fsynced first on a durable store) are named in the manifest *before*
// the in-memory swap, so a failure (or crash) before the rename changes
// nothing — the new files are removed (or swept as orphans on the next
// open) and the old generation remains authoritative.
func (s *Store) swapMerged(snap mergeSnapshot, merged *upi.Table) (int64, error) {
	np := &part{gen: snap.newGen, table: merged, ref: newPartRef(s.fs)}
	var err error
	if snap.first > 0 {
		np.deleted = make(map[uint64]bool)
		for _, p := range snap.parts {
			maps.Copy(np.deleted, p.deleted)
		}
		err = s.writeDelSet(np.gen, np.deleted)
	}
	files := s.files(np)
	abort := func(err error) (int64, error) {
		for _, f := range files {
			if s.fs.Exists(f) {
				_ = s.fs.Remove(f)
			}
		}
		return 0, err
	}
	if err == nil && s.opts.Durable {
		// The new files are complete and nothing refers to them yet, so
		// they are fsynced before the lock is taken.
		for _, f := range files {
			if err = s.fs.Sync(f); err != nil {
				break
			}
		}
	}
	if err != nil {
		return abort(err)
	}

	s.mu.Lock()
	parts := append(s.parts[:snap.first:snap.first], np)
	parts = append(parts, s.parts[snap.first+len(snap.parts):]...)
	if err := writeManifest(s.fs, s.name, newCatalog(parts)); err != nil {
		s.mu.Unlock()
		return abort(err)
	}
	s.parts = parts
	s.mu.Unlock()

	for _, p := range snap.parts {
		p.ref.doom(s.files(p))
	}
	var written int64
	for _, f := range files {
		written += s.fs.Size(f)
	}
	return written, nil
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
