package storage

import (
	"cmp"
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

// DefaultCachePages is the buffer-pool capacity of a pager nobody
// sizes: 512 pages — 2 MiB of 4 KiB R-Tree nodes, 4 MiB at 8 KiB,
// 32 MiB of 64 KiB heap pages — small relative to the tables the
// experiments build, mirroring the paper's cold-cache regime. The
// index packages (upi, fracture, shard, cupi, ...) and the experiment
// harnesses run with it, so every modeled figure does; the upidb
// facade sizes the pools of its discrete and spatial tables in bytes
// instead.
const DefaultCachePages = 512

// Pager provides fixed-size pages over a File with an LRU buffer pool.
//
// A slice returned by Read or Alloc is never recycled: eviction only
// drops the pool's reference, so the slice stays readable for as long
// as the caller holds it. Its bytes change only through Write (which
// overwrites a cached page in place) or an in-place mutation announced
// with MarkDirty. B+Tree page views alias these slices instead of
// copying them, which is sound under the engine's rule of one writer
// per file, excluded from that file's readers by the owning table's
// lock: a reader never observes a page mid-change.
//
// A hit allocates nothing, and a miss one buffer for its whole
// read-ahead run. Besides the bytes, a frame can hold one parsed form
// of its page (see View.ReadParsed), built on the first such read after
// the page is loaded and dropped whenever the bytes may change or the
// frame is evicted. The pool's bookkeeping is a table of frames, reused
// through a free list and linked into the LRU list by index, and the
// pager counts the pages it has written to the file itself, so a miss
// never asks the backend for the file size.
//
// The pool is shared by every reader of the file; what a reader pays
// for it is its own. Read and the mutating methods charge the disk and
// fetch one page per miss. A reader that keeps its own account, or
// scans sequentially, reads through a View instead (see View).
//
// The methods themselves are safe for concurrent use (the pool is
// mutex-guarded; partition cursors of parallel queries read one pager
// concurrently).
type Pager struct {
	f        *File
	pageSize int
	maxPages int

	mu         sync.Mutex
	index      map[PageID]int32 // cached page -> its frame
	frames     []frame
	head, tail int32 // LRU list; head = most recently used, -1 = empty
	free       int32 // unused frames, linked through next; -1 = none
	nPage      PageID
	// onDisk is how many pages the file holds: the size NewPager found,
	// advanced by every successful page write. Every page below nPage
	// is cached, below onDisk, or both.
	onDisk PageID
}

// frame is one buffer-pool slot, linked into the LRU list (or the free
// list) by index.
type frame struct {
	id   PageID
	data []byte
	// parsed is what ReadParsed's parse made of data, nil until then.
	// Write, MarkDirty, eviction and DropCache reset it.
	parsed     any
	dirty      bool
	prev, next int32
}

// NewPager creates a pager over f with the given page size. Any
// existing file content must be a whole number of pages.
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
	return &Pager{
		f:        f,
		pageSize: pageSize,
		maxPages: DefaultCachePages,
		index:    make(map[PageID]int32),
		head:     -1,
		tail:     -1,
		free:     -1,
		nPage:    n,
		onDisk:   n,
	}, nil
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
	v.p.mu.Lock()
	defer v.p.mu.Unlock()
	fi, err := v.p.readLocked(v.rec, id, v.readAhead)
	if err != nil {
		return nil, err
	}
	return v.p.frames[fi].data, nil
}

// ReadParsed is Read that also returns parse's result for the page,
// computing it only on the first ReadParsed since the page was loaded
// or last changed: the pool keeps it beside the page's bytes until a
// Write or MarkDirty of the page, its eviction or DropCache. parse runs
// under the pool's lock, so it must be quick and must not call back
// into the pager. An error from parse is returned and nothing is kept.
// The kept value is shared by every reader of the page; nobody may
// modify it.
//
// Every caller of one pager must pass the same parse: the pool keeps
// one parsed form per page, whoever built it.
func (v View) ReadParsed(id PageID, parse func([]byte) (any, error)) ([]byte, any, error) {
	v.p.mu.Lock()
	defer v.p.mu.Unlock()
	fi, err := v.p.readLocked(v.rec, id, v.readAhead)
	if err != nil {
		return nil, nil, err
	}
	f := &v.p.frames[fi]
	if f.parsed == nil {
		parsed, err := parse(f.data)
		if err != nil {
			return nil, nil, err
		}
		f.parsed = parsed
	}
	return f.data, f.parsed, nil
}

// PageSize returns the page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// NumPages returns the number of pages currently in the file.
func (p *Pager) NumPages() PageID { return p.nPage }

// File returns the underlying file.
func (p *Pager) File() *File { return p.f }

// SetCacheLimit changes the buffer-pool capacity, evicting (and
// flushing) pages as needed.
func (p *Pager) SetCacheLimit(pages int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pages < 1 {
		pages = 1
	}
	p.maxPages = pages
	return p.evictLocked(nil)
}

// CacheLimit returns the buffer-pool capacity in pages.
func (p *Pager) CacheLimit() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.maxPages
}

// Alloc appends a new zeroed page to the file and returns its ID and a
// writable buffer for it. The page is born dirty in the cache; it is
// written to disk on eviction or Flush.
func (p *Pager) Alloc() (PageID, []byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.nPage
	p.nPage++
	data := make([]byte, p.pageSize)
	if _, err := p.insertLocked(nil, id, data, true); err != nil {
		return 0, nil, err
	}
	return id, data, nil
}

// Read returns the contents of page id, through the buffer pool,
// charging a miss to the disk. The returned slice aliases the cached
// page: mutate it only via Write.
func (p *Pager) Read(id PageID) ([]byte, error) {
	return p.View(nil, 1).Read(id)
}

// readLocked serves a read of page id for a reader charging rec with
// the given read-ahead window, and returns the frame that holds it.
func (p *Pager) readLocked(rec Recorder, id PageID, readAhead int) (int32, error) {
	if id >= p.nPage {
		return -1, fmt.Errorf("storage: read page %d of %d in %s", id, p.nPage, p.f.Name())
	}
	if fi, ok := p.index[id]; ok {
		p.f.fs.hits.Add(1)
		p.moveToFront(fi)
		return fi, nil
	}
	p.f.fs.misses.Add(1)
	// Determine the read-ahead run: contiguous pages starting at id
	// that are on disk, not cached (cached copies may be newer), and
	// within half the pool so the run cannot evict itself.
	run := readAhead
	if max := p.maxPages / 2; run > max {
		run = max
	}
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

// Write replaces the contents of page id and marks it dirty. data must
// be exactly one page. data may be the cached page itself (a buffer
// from Alloc or Read filled in place), in which case nothing is copied.
func (p *Pager) Write(id PageID, data []byte) error {
	if len(data) != p.pageSize {
		return fmt.Errorf("storage: write page %d: got %d bytes, want %d", id, len(data), p.pageSize)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if id >= p.nPage {
		return fmt.Errorf("storage: write page %d of %d in %s", id, p.nPage, p.f.Name())
	}
	if fi, ok := p.index[id]; ok {
		f := &p.frames[fi]
		if &f.data[0] != &data[0] {
			copy(f.data, data)
		}
		f.dirty, f.parsed = true, nil
		p.moveToFront(fi)
		return nil
	}
	_, err := p.insertLocked(nil, id, append([]byte(nil), data...), true)
	return err
}

// MarkDirty flags a cached page (previously obtained from Read or
// Alloc and mutated in place) so it is flushed before eviction.
func (p *Pager) MarkDirty(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fi, ok := p.index[id]; ok {
		p.frames[fi].dirty, p.frames[fi].parsed = true, nil
		p.moveToFront(fi)
	}
}

// insertLocked caches data as page id at the front of the LRU list,
// then evicts down to the pool's capacity, charging write-backs to rec
// (the disk when nil). It returns the page's frame, which the eviction
// never takes: the pool holds at least one page, and this one is the
// most recently used.
func (p *Pager) insertLocked(rec Recorder, id PageID, data []byte, dirty bool) (int32, error) {
	fi := p.free
	if fi >= 0 {
		p.free = p.frames[fi].next
	} else {
		fi = int32(len(p.frames))
		p.frames = append(p.frames, frame{})
	}
	p.frames[fi] = frame{id: id, data: data, dirty: dirty}
	p.pushFront(fi)
	p.index[id] = fi
	return fi, p.evictLocked(rec)
}

func (p *Pager) evictLocked(rec Recorder) error {
	for len(p.index) > p.maxPages {
		fi := p.tail
		f := &p.frames[fi]
		if f.dirty {
			if err := p.writeBackLocked(rec, f); err != nil {
				return err
			}
		}
		p.unlink(fi)
		delete(p.index, f.id)
		*f = frame{next: p.free}
		p.free = fi
		p.f.fs.evictions.Add(1)
	}
	return nil
}

// writeBackLocked writes a dirty frame to the file and counts the page
// as on disk once the write has succeeded.
func (p *Pager) writeBackLocked(rec Recorder, f *frame) error {
	if err := p.f.writeAt(rec, f.data, int64(f.id)*int64(p.pageSize)); err != nil {
		return err
	}
	f.dirty = false
	if f.id >= p.onDisk {
		p.onDisk = f.id + 1
	}
	return nil
}

func (p *Pager) pushFront(fi int32) {
	f := &p.frames[fi]
	f.prev, f.next = -1, p.head
	if p.head >= 0 {
		p.frames[p.head].prev = fi
	} else {
		p.tail = fi
	}
	p.head = fi
}

func (p *Pager) unlink(fi int32) {
	f := &p.frames[fi]
	if f.prev >= 0 {
		p.frames[f.prev].next = f.next
	} else {
		p.head = f.next
	}
	if f.next >= 0 {
		p.frames[f.next].prev = f.prev
	} else {
		p.tail = f.prev
	}
}

func (p *Pager) moveToFront(fi int32) {
	if p.head != fi {
		p.unlink(fi)
		p.pushFront(fi)
	}
}

// Flush writes all dirty pages to the file in page order (one mostly
// sequential pass), keeping them cached.
func (p *Pager) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

func (p *Pager) flushLocked() error {
	var dirty []int32
	for fi := p.head; fi >= 0; fi = p.frames[fi].next {
		if p.frames[fi].dirty {
			dirty = append(dirty, fi)
		}
	}
	// Write in ascending page order so flushes of bulk loads are
	// sequential on the simulated disk.
	slices.SortFunc(dirty, func(a, b int32) int { return cmp.Compare(p.frames[a].id, p.frames[b].id) })
	for _, fi := range dirty {
		if err := p.writeBackLocked(nil, &p.frames[fi]); err != nil {
			return err
		}
	}
	return nil
}

// DropCache flushes dirty pages and empties the buffer pool. It is how
// experiments reproduce the paper's cold-cache setting before each
// measured query.
func (p *Pager) DropCache() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.flushLocked(); err != nil {
		return err
	}
	clear(p.frames) // drop the data and parsed references; the frames stay for reuse
	p.frames = p.frames[:0]
	clear(p.index)
	p.head, p.tail, p.free = -1, -1, -1
	return nil
}

// CachedPages returns how many pages the buffer pool currently holds.
func (p *Pager) CachedPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.index)
}
