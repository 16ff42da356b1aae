// Package storage provides the file and page abstractions used by all
// index structures in this repository: a file system whose every byte
// of I/O is charged to a sim.Disk, and a Pager that exposes fixed-size
// pages through an LRU buffer pool, one per FS when it has one (see
// Pool).
//
// The bytes themselves live in a pluggable Backend: MemBackend (the
// default) keeps them in memory so modeled-cost experiments stay
// deterministic, DiskBackend keeps them in real files with real fsync
// so tables survive the process. The FS layer on top is the same
// either way — it owns the accounting.
//
// The combination stands in for BerkeleyDB's mpool + file layer in the
// paper's prototype: hot pages are served from the buffer pool for
// free, cold pages pay modeled disk time, and DropCache reproduces the
// paper's cold-cache experimental setting.
//
// Accounting travels with the reader. A query reads a Pager through
// its own View, which charges the pages it misses to the query's
// Recorder (a sim.Tape) instead of the disk, so its modeled cost is
// exactly its own I/O however many queries and merges share the file.
// Sideband files (WAL, manifest) are charged to nobody.
//
// The buffer pool allocates page bytes and nothing else on the read
// path: a hit allocates nothing, a miss one buffer for its read-ahead
// run, and no miss asks the backend for the file's size. Those buffers
// are never recycled (see Pager), which is what lets B+Tree views and
// unbuilt result rows alias them. The FS counts the hits, misses and
// evictions of every pool over it (PoolStats), one atomic add each,
// taken under the pool's own lock.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"upidb/internal/sim"
)

// FS is a file system front-end charging I/O to a simulated disk and
// storing bytes in a Backend. All methods are safe for concurrent use.
type FS struct {
	disk    *sim.Disk
	backend Backend

	mu       sync.Mutex
	sideband map[string]bool

	pool *Pool // the buffer pool of every pager over the FS, if set

	// The buffer-pool events of every pager over this file system,
	// counted under each pager's own lock (see PoolStats).
	hits, misses, evictions atomic.Int64
}

// PoolStats counts buffer-pool events.
type PoolStats struct {
	// Hits counts page reads served from a pool.
	Hits int64
	// Misses counts page reads that went to the file; a miss fetches
	// its whole read-ahead run in one transfer and counts once.
	Misses int64
	// Evictions counts pages dropped to keep a pool within its limit
	// (DropCache empties a pool without counting).
	Evictions int64
}

// PoolStats returns the buffer-pool events of every pager over this
// file system so far.
func (fs *FS) PoolStats() PoolStats {
	return PoolStats{Hits: fs.hits.Load(), Misses: fs.misses.Load(), Evictions: fs.evictions.Load()}
}

// Recorder receives the I/O charges of one reader in place of the disk
// (see View). *sim.Tape implements it.
type Recorder interface {
	Read(file string, off, n int64)
	Write(file string, off, n int64)
}

// NewFS returns an empty file system charging I/O to disk, storing
// bytes in memory.
func NewFS(disk *sim.Disk) *FS {
	return NewFSOn(disk, NewMemBackend())
}

// NewFSOn returns a file system charging I/O to disk and storing bytes
// in the given backend.
func NewFSOn(disk *sim.Disk, backend Backend) *FS {
	return &FS{disk: disk, backend: backend}
}

// SetPool makes every pager opened over the file system from now on
// draw from pool. Without one, each pager makes a private pool.
func (fs *FS) SetPool(pool *Pool) { fs.pool = pool }

// Disk returns the simulated disk backing this file system.
func (fs *FS) Disk() *sim.Disk { return fs.disk }

// Backend returns the byte store underneath this file system.
func (fs *FS) Backend() Backend { return fs.backend }

// Sideband marks the named file as accounting-exempt: its I/O is never
// charged, to the disk or to any reader's Recorder, so durability
// bookkeeping (WAL appends, manifest writes) cannot perturb modeled
// query costs. A handle's class is fixed when Create or Open returns
// it, so mark the name first. The mark survives Create/truncate and
// follows the file through Rename; Remove clears it.
func (fs *FS) Sideband(name string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.sideband == nil {
		fs.sideband = make(map[string]bool)
	}
	fs.sideband[name] = true
}

// IsSideband reports whether the named file is accounting-exempt.
func (fs *FS) IsSideband(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.sideband[name]
}

// handle returns a handle on name with its charge class resolved, and
// charges a charged file's open cost (Costinit) to the disk.
func (fs *FS) handle(name string, err error) *File {
	f := &File{fs: fs, name: name, err: err, sideband: fs.IsSideband(name)}
	if !f.sideband {
		fs.disk.Open(name)
	}
	return f
}

// Create creates (or truncates) a file and returns an open handle.
// Creating charges the file-open cost. A backend failure is carried by
// the handle and surfaces on its first read or write. The FS's pool
// drops whatever it held of an earlier file of that name.
func (fs *FS) Create(name string) *File {
	fs.pool.forget(name)
	err := fs.backend.Create(name)
	if err != nil {
		err = fmt.Errorf("storage: create %s: %w", name, err)
	}
	return fs.handle(name, err)
}

// Open opens an existing file, charging the file-open cost (Costinit).
func (fs *FS) Open(name string) (*File, error) {
	if !fs.backend.Exists(name) {
		return nil, fmt.Errorf("storage: open %s: no such file", name)
	}
	return fs.handle(name, nil), nil
}

// Exists reports whether a file with the given name exists.
func (fs *FS) Exists(name string) bool {
	return fs.backend.Exists(name)
}

// Remove deletes a file. Removing a missing file is an error. The FS's
// pool drops the file's pages, dirty or not.
func (fs *FS) Remove(name string) error {
	if err := fs.backend.Remove(name); err != nil {
		return err
	}
	fs.pool.forget(name)
	fs.mu.Lock()
	delete(fs.sideband, name)
	fs.mu.Unlock()
	return nil
}

// Rename moves a file to a new name, replacing any existing file. The
// sideband mark, if any, follows the file.
func (fs *FS) Rename(oldName, newName string) error {
	if err := fs.backend.Rename(oldName, newName); err != nil {
		return err
	}
	fs.mu.Lock()
	if fs.sideband[oldName] {
		delete(fs.sideband, oldName)
		fs.sideband[newName] = true
	} else {
		delete(fs.sideband, newName)
	}
	fs.mu.Unlock()
	return nil
}

// List returns the names of all files, sorted.
func (fs *FS) List() []string {
	return fs.backend.List()
}

// TotalSize returns the sum of all file sizes in bytes.
func (fs *FS) TotalSize() int64 {
	var total int64
	for _, name := range fs.backend.List() {
		if size, ok := fs.backend.Size(name); ok {
			total += size
		}
	}
	return total
}

// Size returns the size of the named file, or 0 if it does not exist.
func (fs *FS) Size(name string) int64 {
	size, _ := fs.backend.Size(name)
	return size
}

// Sync makes the named file's written bytes durable (uncharged; a
// no-op on memory backends).
func (fs *FS) Sync(name string) error {
	return fs.backend.Sync(name)
}

// File is a handle on one file of an FS. The handle itself carries no
// position; all access is by explicit offset. Whether its I/O is
// charged was settled when Create or Open returned it, so reads and
// writes take no lock of the FS.
type File struct {
	fs       *FS
	name     string
	err      error // deferred Create failure
	sideband bool
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Size returns the current size of the file in bytes.
func (f *File) Size() int64 {
	return f.fs.Size(f.name)
}

// ReadAt reads len(p) bytes at offset off, charging the disk. Reading
// past the end of the file is an error.
func (f *File) ReadAt(p []byte, off int64) error { return f.readAt(nil, p, off) }

// WriteAt writes len(p) bytes at offset off, growing the file if the
// write extends past its end, and charges the disk.
func (f *File) WriteAt(p []byte, off int64) error { return f.writeAt(nil, p, off) }

// readAt is ReadAt charging rec in place of the disk when rec is set.
func (f *File) readAt(rec Recorder, p []byte, off int64) error {
	if f.err != nil {
		return f.err
	}
	if err := f.fs.backend.ReadAt(f.name, p, off); err != nil {
		return err
	}
	switch {
	case f.sideband:
	case rec != nil:
		rec.Read(f.name, off, int64(len(p)))
	default:
		f.fs.disk.Read(f.name, off, int64(len(p)))
	}
	return nil
}

// writeAt is WriteAt charging rec in place of the disk when rec is set.
func (f *File) writeAt(rec Recorder, p []byte, off int64) error {
	if f.err != nil {
		return f.err
	}
	if err := f.fs.backend.WriteAt(f.name, p, off); err != nil {
		return err
	}
	switch {
	case f.sideband:
	case rec != nil:
		rec.Write(f.name, off, int64(len(p)))
	default:
		f.fs.disk.Write(f.name, off, int64(len(p)))
	}
	return nil
}

// Sync makes previously written bytes durable. It is uncharged: the
// simulated disk has no fsync model, and on the disk backend fsync
// cost is real wall-clock time, not modeled time.
func (f *File) Sync() error {
	if f.err != nil {
		return f.err
	}
	return f.fs.backend.Sync(f.name)
}

// Truncate sets the file's size, discarding bytes past it. Uncharged,
// like Sync: it exists for durability bookkeeping (WAL self-healing),
// not for modeled I/O.
func (f *File) Truncate(size int64) error {
	if f.err != nil {
		return f.err
	}
	return f.fs.backend.Truncate(f.name, size)
}
