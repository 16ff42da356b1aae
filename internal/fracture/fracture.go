// Package fracture implements the Fractured UPI of paper Section 4.
//
// A fractured UPI buffers inserts and deletes in RAM; when the buffer
// fills, the changes are written out sequentially as a new *fracture*
// — an independent UPI (heap file + cutoff index + secondary indexes)
// plus a delete set holding the IDs of tuples deleted — or replaced by
// an upsert — since the previous flush. A partition's delete set
// applies only to *older* partitions, so inserting an existing ID
// supersedes the old version without touching it: queries consult the
// in-memory buffer, every fracture and the main UPI, union the results
// and drop tuples present in any applicable delete set.
//
// The store keeps its partitions as one list, oldest first: the main
// UPI (partition 0, with no delete set), then the fractures in flush
// order. A merge folds a tail of that list into one partition with one
// sequential k-way merge pass, restoring query performance (Figure 10)
// and physically dropping deleted and superseded versions. Merge folds
// the whole list into a new main. The background merger, started with
// StartAutoMerge and woken by flushes, runs when the fracture count
// reaches its trigger; while the fractures are small next to main it
// folds only them, into one new fracture, so main is rewritten only
// once they have grown to an eighth of it.
//
// # Concurrency
//
// Store is safe for concurrent use. An RWMutex guards the partition
// list, the RAM buffer and the delete sets: queries snapshot the
// partition set under the read lock and then scan the on-disk
// partitions — which are immutable once built — outside it, so readers
// never block each other. Insert and Delete block readers only
// momentarily; a Flush (explicit or buffer-triggered) holds the write
// lock while the new fracture is bulk-built, the paper's one
// sequential write. A query's first pull opens the per-partition
// cursors in partition order on the caller's goroutine; each partition
// records its I/O on a private sim.Tape that is replayed as one batch
// when the partition finishes, so no other query's or merge's I/O
// lands among a query's charges.
//
// Merge may run in the background (see StartAutoMerge): it snapshots
// the partitions to fold under the write lock, builds the new main
// generation (or merged fracture) without holding any lock, and
// atomically installs a new partition list with it in their place.
// Old partition files are reference-counted and removed only after the
// last in-flight query over the previous generation finishes.
//
// Queries have one executor, Prepared.Stream: per-partition pull-based
// cursors under a k-way merge, each partition's tape replayed and its
// pin released the moment its cursor is exhausted. Store.Run and
// Prepared.Collect drain it into a slice. PrepareAll runs that same
// merge over the partitions of several stores, the shards of a table.
//
// The stream never dereferences a tuple: it orders heads, applies the
// supersedence filter, counts top-k yields and names trace events from
// upi.Result's ID and Confidence alone, so a heap row travels through it
// as a validated encoding (see upi.Result) and a row that is superseded
// or cut by top-k is never built. Tuples are built where somebody
// receives them: Prepared.Collect here, Results.All/Collect and
// Row.Tuple at the facade. The files an unbuilt row points into may be
// deleted by a merge while it is held; the bytes it aliases stay.
package fracture

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"upidb/internal/obs"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// ErrClosed reports an operation on a store after Close. It is the
// shared upi.ErrClosed sentinel (the continuous UPI returns the same
// value), re-exported here for compatibility; the public facade
// aliases it, so errors.Is works across the API boundary.
var ErrClosed = upi.ErrClosed

// Config is the one canonical configuration of a fractured UPI. The
// public facade's functional options (upidb.WithCutoff, WithDurability,
// ...) all thread into this struct; nothing is duplicated above it.
type Config struct {
	// UPI are the parameters each fracture and the main UPI share.
	// (Section 4.2 notes fractures *may* use different parameters; the
	// Store applies the current value of Config.UPI to each new
	// fracture, so callers can retune between flushes.)
	UPI upi.Options
	// BufferTuples is the insert-buffer capacity; reaching it triggers
	// an automatic flush. 0 means flush only on explicit Flush calls.
	BufferTuples int
	// Durable, when true, gives the store crash-consistency: every
	// Insert/Delete is WAL-logged and fsynced before it is
	// acknowledged, flushes and merges fsync their partition files
	// before the manifest commits them, and Open replays the WAL to
	// reconstruct the RAM buffer. When false (the default), there is
	// no WAL and no partition file is fsynced, so unflushed writes do
	// not survive a reopen. Either way every flush and merge commits
	// through the manifest, which records each partition's placement
	// parameters; it is a sideband file, never charged, so modeled
	// costs do not depend on durability.
	Durable bool
	// Metrics, when set, receives engine-level observability counters
	// and histograms (inserts, flushes, merges, WAL fsync timing, pin
	// releases, ...). nil disables instrumentation at zero cost; the
	// metrics never touch the I/O tapes, so modeled query costs are
	// identical either way.
	Metrics *obs.EngineMetrics
}

// Store is a fractured UPI. It is safe for concurrent use: any number
// of concurrent readers (Query, QuerySecondary, TopK) may run alongside
// writers (Insert, Delete, Flush) and a Merge — including the
// background merger started with StartAutoMerge.
type Store struct {
	fs       *storage.FS
	name     string
	attr     string
	secAttrs []string

	// mu guards every field below. Queries hold it only while
	// snapshotting; partition scans run outside it.
	mu     sync.RWMutex
	opts   Config
	closed bool

	// parts is the partition list, oldest first: parts[0] is main and
	// the rest are the fractures in flush order. A flush or merge
	// installs a new list; an installed list is never written, so a
	// query snapshot holds it as is.
	parts []*part
	gen   int // generation counter for fracture / main file names

	// wal is the write-ahead log, present only on durable stores. Its
	// appends are serialized by mu, in buffer-mutation order.
	wal *wal

	// Insert buffer ("on RAM" in Figure 1): pending tuples by ID, plus
	// their arrival order for deterministic flushing.
	bufTuples map[uint64]*tuple.Tuple
	bufOrder  []uint64
	// Pending delete set: IDs deleted since the last flush.
	bufDeletes map[uint64]bool

	// am is the background merger, if StartAutoMerge is active.
	// amFailed holds a merger that died on a merge error until
	// StopAutoMerge collects it.
	am       *autoMerger
	amFailed *autoMerger

	// mergeMu serializes whole merges (manual and background) so at
	// most one new main generation is under construction at a time.
	mergeMu sync.Mutex
}

// part is one on-disk partition: an independent UPI and, for a
// fracture, the delete set flushed with it. The delete set applies to
// *older* partitions, never to this fracture's own inserts; main has
// none.
type part struct {
	gen     int // names the partition's files
	table   *upi.Table
	deleted map[uint64]bool // nil for main
	ref     *partRef
}

// files lists the partition's files: its UPI's, plus a fracture's
// delete set.
func (s *Store) files(p *part) []string {
	files := p.table.Files()
	if p.deleted != nil {
		files = append(files, s.delSetFile(p.gen))
	}
	return files
}

// partRef tracks the on-disk lifetime of one partition (the main UPI
// or a fracture). Query snapshots pin every partition they reference;
// a merge that replaces partitions dooms them with the list of files
// to remove, and the files disappear when the last pin is released —
// so in-flight queries always finish on the generation they started
// on, even while a background merge swaps the main underneath them.
type partRef struct {
	fs *storage.FS

	mu     sync.Mutex
	refs   int
	doomed bool
	dead   []string
}

func newPartRef(fs *storage.FS) *partRef { return &partRef{fs: fs} }

func (p *partRef) pin() {
	p.mu.Lock()
	p.refs++
	p.mu.Unlock()
}

func (p *partRef) unpin() {
	p.mu.Lock()
	p.refs--
	var dead []string
	if p.doomed && p.refs == 0 {
		dead, p.dead = p.dead, nil
	}
	p.mu.Unlock()
	p.remove(dead)
}

// doom marks the partition's files for removal once no query pins it.
func (p *partRef) doom(files []string) {
	p.mu.Lock()
	p.doomed = true
	p.dead = append(p.dead, files...)
	var dead []string
	if p.refs == 0 {
		dead, p.dead = p.dead, nil
	}
	p.mu.Unlock()
	p.remove(dead)
}

func (p *partRef) remove(files []string) {
	for _, f := range files {
		if p.fs.Exists(f) {
			// Remove on the in-memory FS only fails for missing files,
			// which Exists just excluded.
			_ = p.fs.Remove(f)
		}
	}
}

// NewStore creates an empty fractured UPI.
func NewStore(fs *storage.FS, name, attr string, secAttrs []string, opts Config) (*Store, error) {
	opts.UPI = opts.UPI.WithDefaults()
	s := newShell(fs, name, attr, secAttrs, opts)
	main, err := upi.Create(fs, s.mainName(0), attr, secAttrs, opts.UPI)
	if err != nil {
		return nil, err
	}
	if err := s.initFiles(main); err != nil {
		return nil, err
	}
	return s, nil
}

// BulkLoad creates a fractured UPI whose main partition is bulk-built
// from tuples (the initial load of the experiments).
func BulkLoad(fs *storage.FS, name, attr string, secAttrs []string, opts Config, tuples []*tuple.Tuple) (*Store, error) {
	opts.UPI = opts.UPI.WithDefaults()
	s := newShell(fs, name, attr, secAttrs, opts)
	main, err := upi.BulkBuild(fs, s.mainName(0), attr, secAttrs, opts.UPI, tuples)
	if err != nil {
		return nil, err
	}
	if err := s.initFiles(main); err != nil {
		return nil, err
	}
	return s, nil
}

// newShell builds a Store with everything but its partitions.
func newShell(fs *storage.FS, name, attr string, secAttrs []string, opts Config) *Store {
	if opts.Metrics == nil {
		// A zero EngineMetrics is an all-no-op sink (every metric
		// method is nil-safe), so instrumentation sites stay
		// unconditional.
		opts.Metrics = &obs.EngineMetrics{}
	}
	s := &Store{
		fs: fs, name: name, attr: attr,
		secAttrs:   append([]string(nil), secAttrs...),
		opts:       opts,
		bufTuples:  make(map[uint64]*tuple.Tuple),
		bufDeletes: make(map[uint64]bool),
	}
	return s
}

// initFiles installs main as a freshly created store's one partition
// and commits the manifest. A durable store fsyncs main first and
// gains an empty WAL, so it starts in a recoverable on-disk state.
func (s *Store) initFiles(main *upi.Table) error {
	s.parts = []*part{{table: main, ref: newPartRef(s.fs)}}
	if s.opts.Durable {
		if err := main.Flush(); err != nil {
			return err
		}
		if err := syncTableFiles(s.fs, main); err != nil {
			return err
		}
	}
	if err := writeManifest(s.fs, s.name, newCatalog(s.parts)); err != nil {
		return err
	}
	if !s.opts.Durable {
		return nil
	}
	w, err := createWAL(s.fs, s.name, s.opts.Metrics)
	if err != nil {
		return err
	}
	s.wal = w
	return nil
}

func (s *Store) mainName(gen int) string { return fmt.Sprintf("%s.main%d", s.name, gen) }
func (s *Store) fracName(id int) string  { return fmt.Sprintf("%s.frac%d", s.name, id) }
func (s *Store) delSetFile(id int) string {
	return fmt.Sprintf("%s.frac%d.delset", s.name, id)
}

// Main exposes the main UPI (for stats and cache control). The
// returned table is replaced — not mutated — by Merge, so it is safe
// to read concurrently; it may be one generation stale by the time the
// caller uses it.
func (s *Store) Main() *upi.Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.parts[0].table
}

// Partitions returns the current partitions: main, then the fractures
// from oldest to newest. Like Main, the list may be stale by the time
// the caller reads it.
func (s *Store) Partitions() []*upi.Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tables := make([]*upi.Table, len(s.parts))
	for i, p := range s.parts {
		tables[i] = p.table
	}
	return tables
}

// NumFractures returns the current fracture count (Nfrac in the cost
// model).
func (s *Store) NumFractures() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.parts) - 1
}

// BufferedInserts returns the number of tuples waiting in RAM.
func (s *Store) BufferedInserts() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.bufTuples)
}

// SetFractureOptions changes the UPI parameters used for fractures
// created by future flushes (Section 4.2: "each fracture can have
// different tuning parameters as long as the UPI files in the fracture
// share the same parameters... we propose to dynamically tune these
// parameters by analyzing recent query workloads... whenever the
// insert buffer is flushed"). Existing partitions are unaffected;
// a later Merge rebuilds the main UPI with the current options.
func (s *Store) SetFractureOptions(o upi.Options) error {
	if err := o.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opts.UPI = o.WithDefaults()
	return nil
}

// FractureOptions returns the UPI parameters future fractures will use.
func (s *Store) FractureOptions() upi.Options {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.opts.UPI
}

// Insert buffers a tuple, adding it if the ID is new and replacing
// any existing version otherwise (upsert): the ID joins the pending
// delete set, which applies only to partitions older than the
// fracture this buffer flushes into — so an older on-disk version is
// superseded immediately at query time and dropped physically by the
// next merge, while the new version is served from the buffer (and
// later its own fracture) untouched.
func (s *Store) Insert(tup *tuple.Tuple) error {
	if err := tup.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// WAL first: the operation is applied (and later acknowledged)
	// only once its record is durable, so recovery never holds writes
	// the caller was not promised, and a failed append changes
	// nothing.
	if s.wal != nil {
		if err := s.wal.appendInsert(tup); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	_, replacing := s.bufTuples[tup.ID]
	s.applyInsertLocked(tup)
	s.opts.Metrics.Inserts.Inc()
	if replacing {
		// Only the detectable kind is counted: a replaced still-buffered
		// version. An upsert of an on-disk version looks like an insert.
		s.opts.Metrics.Upserts.Inc()
	}
	var err error
	flushed := false
	if s.opts.BufferTuples > 0 && len(s.bufTuples) >= s.opts.BufferTuples {
		err = s.flushLocked()
		flushed = err == nil
	}
	am := s.am
	s.mu.Unlock()
	if flushed && am != nil {
		am.kick()
	}
	return err
}

// applyInsertLocked is the buffer mutation of Insert, shared with WAL
// replay. Callers must hold mu.
func (s *Store) applyInsertLocked(tup *tuple.Tuple) {
	s.bufDeletes[tup.ID] = true
	if _, exists := s.bufTuples[tup.ID]; !exists {
		s.bufOrder = append(s.bufOrder, tup.ID)
	}
	s.bufTuples[tup.ID] = tup
}

// Delete buffers a deletion by tuple ID. "Deletion is handled like
// insertion by storing a delete set which holds IDs of deleted tuples."
// Like Insert, it fails with ErrClosed once the store is closed.
func (s *Store) Delete(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.wal != nil {
		if err := s.wal.appendDelete(id); err != nil {
			return err
		}
	}
	s.applyDeleteLocked(id)
	s.opts.Metrics.Deletes.Inc()
	return nil
}

// applyDeleteLocked is the buffer mutation of Delete, shared with WAL
// replay. Callers must hold mu.
func (s *Store) applyDeleteLocked(id uint64) {
	if _, buffered := s.bufTuples[id]; buffered {
		// The buffered version never reached disk; cancel it. The ID
		// stays in the pending delete set (Insert put it there), which
		// keeps any older on-disk version deleted.
		delete(s.bufTuples, id)
		for i, bid := range s.bufOrder {
			if bid == id {
				s.bufOrder = append(s.bufOrder[:i], s.bufOrder[i+1:]...)
				break
			}
		}
		return
	}
	s.bufDeletes[id] = true
}

// Flush writes the buffered changes out as a new fracture: a bulk-built
// UPI over the buffered tuples plus a sequentially written delete-set
// file. A flush with empty buffers is a no-op.
func (s *Store) Flush() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	err := s.flushLocked()
	am := s.am
	s.mu.Unlock()
	if err == nil && am != nil {
		am.kick()
	}
	return err
}

// Close marks the store closed: it stops the background merger (if
// any) and makes every subsequent Insert, Delete, Flush, Merge and
// query fail with ErrClosed. In-flight queries finish normally on the
// snapshot they hold. Close returns the first background-merge error,
// like StopAutoMerge; closing twice is safe.
func (s *Store) Close() error {
	// Set closed before stopping the merger: a concurrent
	// StartAutoMerge either installed its merger first (and is stopped
	// below) or sees closed and refuses — no merger can slip in after
	// the stop.
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.StopAutoMerge()
}

func (s *Store) flushLocked() error {
	if len(s.bufTuples) == 0 && len(s.bufDeletes) == 0 {
		return nil
	}
	s.gen++
	id := s.gen
	tuples := make([]*tuple.Tuple, 0, len(s.bufTuples))
	for _, tid := range s.bufOrder {
		tuples = append(tuples, s.bufTuples[tid])
	}
	tab, err := upi.BulkBuild(s.fs, s.fracName(id), s.attr, s.secAttrs, s.opts.UPI, tuples)
	if err != nil {
		return err
	}
	deleted := make(map[uint64]bool, len(s.bufDeletes))
	for did := range s.bufDeletes {
		deleted[did] = true
	}
	if err := s.writeDelSet(id, deleted); err != nil {
		return err
	}
	n := len(s.parts)
	parts := append(s.parts[:n:n], &part{gen: id, table: tab, deleted: deleted, ref: newPartRef(s.fs)})
	// Durable flush ordering: fsync the fracture's files, commit the
	// new partition list through the manifest rename, and only then
	// drop the WAL records the fracture now covers. A crash at any
	// point leaves a recoverable state — before the manifest commit
	// the WAL still holds everything (the half-built fracture becomes
	// an orphan, removed on open); after it, replaying a not-yet-
	// truncated WAL merely re-applies operations the fracture already
	// holds, which upsert semantics dedupe.
	if s.opts.Durable {
		if err := syncTableFiles(s.fs, tab); err != nil {
			return err
		}
		if err := s.fs.Sync(s.delSetFile(id)); err != nil {
			return err
		}
	}
	if err := writeManifest(s.fs, s.name, newCatalog(parts)); err != nil {
		return err
	}
	s.parts = parts
	s.opts.Metrics.Flushes.Inc()
	s.bufTuples = make(map[uint64]*tuple.Tuple)
	s.bufOrder = nil
	s.bufDeletes = make(map[uint64]bool)
	if s.wal != nil {
		// The fracture is the checkpoint; its WAL records are now
		// redundant. If this truncate fails the flush has still fully
		// committed — recovery just replays records the fracture
		// already holds.
		if err := s.wal.reset(); err != nil {
			return err
		}
	}
	return nil
}

// writeDelSet writes the delete set as one sequential file: count then
// sorted IDs.
func (s *Store) writeDelSet(id int, deleted map[uint64]bool) error {
	ids := make([]uint64, 0, len(deleted))
	for d := range deleted {
		ids = append(ids, d)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := binary.BigEndian.AppendUint64(nil, uint64(len(ids)))
	for _, d := range ids {
		buf = binary.BigEndian.AppendUint64(buf, d)
	}
	return s.fs.Create(s.delSetFile(id)).WriteAt(buf, 0)
}

// SizeBytes returns the total on-disk size: main, fractures and delete
// sets.
func (s *Store) SizeBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, p := range s.parts {
		for _, f := range s.files(p) {
			total += s.fs.Size(f)
		}
	}
	return total
}

// Flush-through and cache control for cold-cache measurements.

// FlushPages writes all dirty pages of all partitions to disk.
func (s *Store) FlushPages() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, p := range s.parts {
		if err := p.table.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// DropCaches empties every partition's buffer pools, so the next query
// of any shape cold-starts.
func (s *Store) DropCaches() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, p := range s.parts {
		if err := p.table.DropCaches(); err != nil {
			return err
		}
	}
	return nil
}
