package storage

import (
	"fmt"
	"slices"
	"sync"
)

// DefaultPageSize matches the BerkeleyDB B+Tree page size the paper's
// prototype used (Table 6 derives leaf counts as Stable / 8KB).
const DefaultPageSize = 8192

// HeapPageSize is the larger page size the continuous UPI uses for its
// heap file (Section 5: "heap pages with larger page size (e.g., 64KB)").
const HeapPageSize = 64 * 1024

// RTreePageSize is the small node page size for R-Tree structures
// (Section 5: "R-Tree nodes with small page sizes (e.g., 4KB)").
const RTreePageSize = 4096

// PageID identifies a page within one pager's file.
type PageID uint32

// InvalidPage is a sentinel PageID that never refers to a real page.
const InvalidPage PageID = ^PageID(0)

// DefaultCachePages is the size of the private pool a pager makes when
// its FS has no pool (see FS.SetPool): 512 pages, small next to the
// experiments' tables, the paper's cold-cache regime every modeled
// figure runs in. A upidb database gives its FS one pool instead.
const DefaultCachePages = 512

// Pool is a buffer pool: one LRU list of page frames, a page table
// keyed by pager and page, and a capacity in bytes. A frame of a pool
// made by NewPool costs its page plus its parsed form (see
// View.ReadParsed); a private pool charges pages only, so it holds
// exactly DefaultCachePages pages and evicts in the paper's order.
// Whatever its capacity, a pool keeps the page it has just served.
//
// Evicting a dirty page writes it through its own pager's file,
// charged to the reader whose miss evicted it. Cached bytes change
// only under the pool's lock (Write, Update, write-back), so a reader
// of one table may evict another table's page at any moment.
type Pool struct {
	mu                 sync.Mutex
	capacity, resident int64
	countParsed        bool
	frames             []frame
	head, tail         int32               // LRU list; head = most recently used, -1 = empty
	free               int32               // unused frames, linked through next; -1 = none
	files              map[string][]*Pager // an FS's pool: each file's pagers (see forget)
}

// frame is one buffer-pool slot, linked into the LRU list (or the free
// list) by index.
type frame struct {
	p          *Pager
	id         PageID
	data       []byte // nil for an Alloc'd page nobody has touched yet: zeros
	parsed     any    // ReadParsed's parse of data; nil until then and after a change
	cost       int64  // bytes charged: the page, plus parsed's size in a shared pool
	dirty      bool
	prev, next int32
}

// NewPool returns an empty pool of capacity bytes, charging each frame
// its page and the size of its parsed form.
func NewPool(capacity int64) *Pool {
	return &Pool{capacity: capacity, countParsed: true, head: -1, tail: -1, free: -1, files: make(map[string][]*Pager)}
}

// Resident returns the bytes the pool's frames cost now.
func (pl *Pool) Resident() int64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.resident
}

// SetCapacity changes the pool's capacity, evicting (and writing back)
// pages as needed.
func (pl *Pool) SetCapacity(bytes int64) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.capacity = bytes
	return pl.evictLocked(nil)
}

// Pager provides fixed-size pages over a File through a Pool.
//
// A slice returned by Read is never recycled: eviction drops the
// pool's reference and Write replaces the page's slice, so the slice
// stays readable and unchanged for as long as the caller holds it.
// Only Update changes cached bytes in place, under the pool's lock;
// its caller (the heap file) keeps its own readers out with its
// table's lock. B+Tree page views and unbuilt result rows alias these
// slices instead of copying them.
//
// A hit allocates nothing, and a miss one buffer for its whole
// read-ahead run. The pager counts the pages it has written itself, so
// a miss never asks the backend for the file size. Read and the
// mutating methods charge the disk; a reader that keeps its own
// account, or scans sequentially, reads through a View. Every method
// runs under the pool's lock, so all are safe for concurrent use.
type Pager struct {
	f        *File
	pageSize int
	pool     *Pool

	// Guarded by pool.mu.
	index map[PageID]int32 // cached page -> its frame
	nPage PageID
	// onDisk is how many pages the file holds: the size NewPager found,
	// advanced by every successful page write. Every page below nPage
	// is cached, below onDisk, or both.
	onDisk PageID
}

// NewPager creates a pager over f with the given page size, drawing
// from its FS's pool or, without one, a private pool. Any existing file
// content must be a whole number of pages.
func NewPager(f *File, pageSize int) (*Pager, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("storage: invalid page size %d", pageSize)
	}
	size := f.Size()
	if size%int64(pageSize) != 0 {
		return nil, fmt.Errorf("storage: file %s size %d not a multiple of page size %d",
			f.Name(), size, pageSize)
	}
	n := PageID(size / int64(pageSize))
	p := &Pager{f: f, pageSize: pageSize, pool: f.fs.pool, index: make(map[PageID]int32), nPage: n, onDisk: n}
	if p.pool == nil {
		p.pool = &Pool{capacity: DefaultCachePages * int64(pageSize), head: -1, tail: -1, free: -1}
	} else {
		p.pool.mu.Lock()
		p.pool.files[f.name] = append(p.pool.files[f.name], p)
		p.pool.mu.Unlock()
	}
	return p, nil
}

// View is one reader's window on a Pager: it reads through the shared
// buffer pool, and the misses it takes — and the write-backs of dirty
// pages those misses evict — are charged to its Recorder, or to the
// disk when that is nil. A page another reader cached is a free hit.
// A view is a value; taking one allocates nothing.
type View struct {
	p         *Pager
	rec       Recorder
	readAhead int
}

// View returns a view charging rec (the disk when nil) whose every read
// miss fetches up to readAhead contiguous pages in a single disk
// operation. Read-ahead models a sequential reader — a merge or a table
// scan — paying one seek per run of pages instead of one per page;
// values below 1 mean no read-ahead.
func (p *Pager) View(rec Recorder, readAhead int) View {
	return View{p: p, rec: rec, readAhead: readAhead}
}

// Read returns the contents of page id, through the buffer pool, like
// Pager.Read.
func (v View) Read(id PageID) ([]byte, error) {
	data, _, err := v.ReadParsed(id, nil)
	return data, err
}

// ReadParsed is Read that also returns parse's result for the page,
// computing it only on the first ReadParsed since the page was loaded
// or last changed. The pool keeps it, charging the size parse reports,
// until a Write or Update of the page, its eviction or DropCache; every
// reader shares it and nobody may modify it, and every caller of one
// pager must pass the same parse. parse runs under the pool's lock, so
// it must be quick and must not call back into the pager. An error from
// parse is returned and nothing is kept. A nil parse reads only.
func (v View) ReadParsed(id PageID, parse func([]byte) (any, int, error)) ([]byte, any, error) {
	pl := v.p.pool
	pl.mu.Lock()
	defer pl.mu.Unlock()
	fi, err := v.p.readLocked(v.rec, id, v.readAhead)
	if err != nil {
		return nil, nil, err
	}
	f := &pl.frames[fi]
	data := f.page()
	if f.parsed != nil || parse == nil {
		return data, f.parsed, nil
	}
	parsed, size, err := parse(data)
	if err != nil {
		return nil, nil, err
	}
	f.parsed = parsed
	if pl.countParsed {
		f.cost += int64(size)
		pl.resident += int64(size)
		// The page is the most recently used, so this never takes it.
		if err := pl.evictLocked(v.rec); err != nil {
			return nil, nil, err
		}
	}
	return data, parsed, nil
}

// PageSize returns the page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// NumPages returns the number of pages currently in the file.
func (p *Pager) NumPages() PageID { return p.nPage }

// File returns the underlying file.
func (p *Pager) File() *File { return p.f }

// Pool returns the buffer pool the pager draws from.
func (p *Pager) Pool() *Pool { return p.pool }

// Alloc appends a new zeroed page to the file and returns its ID. The
// page is born dirty in the pool, most recently used; it is written to
// disk on eviction or Flush. Fill it with Write or Update.
func (p *Pager) Alloc() (PageID, error) {
	p.pool.mu.Lock()
	defer p.pool.mu.Unlock()
	id := p.nPage
	p.nPage++
	_, err := p.insertLocked(nil, id, nil, true)
	return id, err
}

// Read returns the contents of page id, through the buffer pool,
// charging a miss to the disk. The returned slice aliases the cached
// page: never change it.
func (p *Pager) Read(id PageID) ([]byte, error) {
	return p.View(nil, 1).Read(id)
}

// readLocked serves a read of page id for a reader charging rec with
// the given read-ahead window, and returns the frame that holds it, the
// most recently used.
func (p *Pager) readLocked(rec Recorder, id PageID, readAhead int) (int32, error) {
	pl := p.pool
	if id >= p.nPage {
		return -1, fmt.Errorf("storage: read page %d of %d in %s", id, p.nPage, p.f.Name())
	}
	if fi, ok := p.index[id]; ok {
		p.f.fs.hits.Add(1)
		pl.moveToFront(fi)
		return fi, nil
	}
	p.f.fs.misses.Add(1)
	// Determine the read-ahead run: contiguous pages starting at id
	// that are on disk, not cached (cached copies may be newer), and
	// within half the pool so the run cannot evict itself.
	run := min(readAhead, int(pl.capacity/int64(p.pageSize))/2)
	if run < 1 {
		run = 1
	}
	for n := 1; n < run; n++ {
		next := id + PageID(n)
		if next >= p.onDisk {
			run = n
			break
		}
		if _, cached := p.index[next]; cached {
			run = n
			break
		}
	}
	if id+PageID(run) > p.onDisk {
		run = 1 // requested page may live only beyond the flushed tail
	}
	data := make([]byte, run*p.pageSize)
	if err := p.f.readAt(rec, data, int64(id)*int64(p.pageSize)); err != nil {
		return -1, err
	}
	// Insert read-ahead pages first, the requested page last, so the
	// requested page is the most recently used.
	for n := run - 1; n >= 1; n-- {
		if _, err := p.insertLocked(rec, id+PageID(n), data[n*p.pageSize:(n+1)*p.pageSize:(n+1)*p.pageSize], false); err != nil {
			return -1, err
		}
	}
	return p.insertLocked(rec, id, data[:p.pageSize:p.pageSize], false)
}

// Write replaces page id with data, exactly one page, and marks it
// dirty. The pool keeps data itself, so the caller must not change it
// afterwards; slices an earlier Read returned keep the old bytes.
func (p *Pager) Write(id PageID, data []byte) error {
	if len(data) != p.pageSize {
		return fmt.Errorf("storage: write page %d: got %d bytes, want %d", id, len(data), p.pageSize)
	}
	data = data[:p.pageSize:p.pageSize]
	pl := p.pool
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if id >= p.nPage {
		return fmt.Errorf("storage: write page %d of %d in %s", id, p.nPage, p.f.Name())
	}
	if fi, ok := p.index[id]; ok {
		pl.frames[fi].data = data
		pl.changed(fi)
		return nil
	}
	_, err := p.insertLocked(nil, id, data, true)
	return err
}

// Update changes page id in place: fn gets its bytes under the pool's
// lock, read first on a miss (charging the disk), and reports whether it
// changed them. fn must be quick and must not call back into the pager.
func (p *Pager) Update(id PageID, fn func(page []byte) bool) error {
	pl := p.pool
	pl.mu.Lock()
	defer pl.mu.Unlock()
	fi, err := p.readLocked(nil, id, 1)
	if err != nil {
		return err
	}
	if fn(pl.frames[fi].page()) {
		pl.changed(fi)
	}
	return nil
}

// changed records that frame fi's bytes changed: it is dirty, its
// parsed form is stale and it is the most recently used.
func (pl *Pool) changed(fi int32) {
	f := &pl.frames[fi]
	f.dirty, f.parsed = true, nil
	pl.resident -= f.cost - int64(f.p.pageSize)
	f.cost = int64(f.p.pageSize)
	pl.moveToFront(fi)
}

// page returns the frame's bytes, making an allocated page's zeros.
func (f *frame) page() []byte {
	if f.data == nil {
		f.data = make([]byte, f.p.pageSize)
	}
	return f.data
}

// insertLocked caches data as page id at the front of the LRU list,
// then evicts down to the pool's capacity, charging write-backs to rec
// (the disk when nil). It returns the page's frame, which the eviction
// never takes: it is the most recently used.
func (p *Pager) insertLocked(rec Recorder, id PageID, data []byte, dirty bool) (int32, error) {
	pl := p.pool
	fi := pl.free
	if fi >= 0 {
		pl.free = pl.frames[fi].next
	} else {
		fi = int32(len(pl.frames))
		pl.frames = append(pl.frames, frame{})
	}
	pl.frames[fi] = frame{p: p, id: id, data: data, cost: int64(p.pageSize), dirty: dirty}
	pl.pushFront(fi)
	pl.resident += int64(p.pageSize)
	p.index[id] = fi
	return fi, pl.evictLocked(rec)
}

// evictLocked evicts least recently used pages, whoever's, until the
// pool is within its capacity or holds only its most recent page. A
// write-back that fails stops it with the page still cached and dirty.
func (pl *Pool) evictLocked(rec Recorder) error {
	for pl.resident > pl.capacity && pl.tail != pl.head {
		fi := pl.tail
		f := &pl.frames[fi]
		if f.dirty {
			if err := f.p.writeBackLocked(rec, f); err != nil {
				return err
			}
		}
		f.p.f.fs.evictions.Add(1)
		pl.dropLocked(fi)
	}
	return nil
}

// dropLocked takes frame fi out of the pool without writing it.
func (pl *Pool) dropLocked(fi int32) {
	f := &pl.frames[fi]
	pl.unlink(fi)
	delete(f.p.index, f.id)
	pl.resident -= f.cost
	*f = frame{next: pl.free}
	pl.free = fi
}

// forget drops every page of the file called name, dirty or not, and
// its pagers: the file is gone or truncated, so no page of it may be
// written back. A nil pool (an FS without one) holds nothing.
func (pl *Pool) forget(name string) {
	if pl == nil {
		return
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, p := range pl.files[name] {
		for _, fi := range p.index {
			pl.dropLocked(fi)
		}
	}
	delete(pl.files, name)
}

// writeBackLocked writes a dirty frame to the file and counts the page
// as on disk once the write has succeeded.
func (p *Pager) writeBackLocked(rec Recorder, f *frame) error {
	if err := p.f.writeAt(rec, f.page(), int64(f.id)*int64(p.pageSize)); err != nil {
		return err
	}
	f.dirty = false
	if f.id >= p.onDisk {
		p.onDisk = f.id + 1
	}
	return nil
}

func (pl *Pool) pushFront(fi int32) {
	f := &pl.frames[fi]
	f.prev, f.next = -1, pl.head
	if pl.head >= 0 {
		pl.frames[pl.head].prev = fi
	} else {
		pl.tail = fi
	}
	pl.head = fi
}

func (pl *Pool) unlink(fi int32) {
	f := &pl.frames[fi]
	if f.prev >= 0 {
		pl.frames[f.prev].next = f.next
	} else {
		pl.head = f.next
	}
	if f.next >= 0 {
		pl.frames[f.next].prev = f.prev
	} else {
		pl.tail = f.prev
	}
}

func (pl *Pool) moveToFront(fi int32) {
	if pl.head != fi {
		pl.unlink(fi)
		pl.pushFront(fi)
	}
}

// Flush writes the pager's dirty pages to the file in page order (one
// mostly sequential pass), keeping them cached. Other pagers' pages
// are not touched.
func (p *Pager) Flush() error {
	p.pool.mu.Lock()
	defer p.pool.mu.Unlock()
	return p.flushLocked()
}

func (p *Pager) flushLocked() error {
	var dirty []PageID
	for id, fi := range p.index {
		if p.pool.frames[fi].dirty {
			dirty = append(dirty, id)
		}
	}
	// Write in ascending page order so flushes of bulk loads are
	// sequential on the simulated disk.
	slices.Sort(dirty)
	for _, id := range dirty {
		if err := p.writeBackLocked(nil, &p.pool.frames[p.index[id]]); err != nil {
			return err
		}
	}
	return nil
}

// DropCache flushes the pager's dirty pages and takes all its pages out
// of the pool. It is how experiments reproduce the paper's cold-cache
// setting before each measured query.
func (p *Pager) DropCache() error {
	p.pool.mu.Lock()
	defer p.pool.mu.Unlock()
	if err := p.flushLocked(); err != nil {
		return err
	}
	for _, fi := range p.index {
		p.pool.dropLocked(fi)
	}
	return nil
}

// CachedPages returns how many of the pager's pages the pool holds.
func (p *Pager) CachedPages() int {
	p.pool.mu.Lock()
	defer p.pool.mu.Unlock()
	return len(p.index)
}
