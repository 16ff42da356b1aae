package storage

import (
	"container/list"
	"fmt"
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

// DefaultCachePages is the default buffer-pool capacity per pager.
// 512 pages x 8 KiB = 4 MiB, small relative to the tables the
// experiments build, mirroring the paper's cold-cache regime.
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
// The methods themselves are safe for concurrent use (the pool is
// mutex-guarded; partition cursors of parallel queries read one pager
// concurrently).
type Pager struct {
	f        *File
	pageSize int
	maxPages int
	prefetch int // pages fetched per read miss (>=1)

	mu           sync.Mutex
	prefetchRefs int                      // active PushPrefetch holds
	cache        map[PageID]*list.Element // -> *cachedPage
	lru          *list.List               // front = most recently used
	nPage        PageID                   // number of pages in file
}

type cachedPage struct {
	id    PageID
	data  []byte
	dirty bool
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
	return &Pager{
		f:        f,
		pageSize: pageSize,
		maxPages: DefaultCachePages,
		prefetch: 1,
		cache:    make(map[PageID]*list.Element),
		lru:      list.New(),
		nPage:    PageID(size / int64(pageSize)),
	}, nil
}

// SetPrefetch sets how many contiguous pages one read miss fetches in
// a single disk operation. It models sequential read-ahead: a merge or
// table scan that enables it pays one seek per run of pages instead of
// one per page. The default of 1 disables read-ahead.
func (p *Pager) SetPrefetch(pages int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pages < 1 {
		pages = 1
	}
	p.prefetch = pages
}

// PushPrefetch raises the read-ahead window to at least pages and
// returns a release function. Holds are reference-counted: concurrent
// sequential readers of the same file (a full scan overlapping a
// merge, two overlapping scans) keep the widest requested window until
// the *last* hold releases, which restores the default of 1 — so one
// reader finishing cannot strip the read-ahead out from under another
// mid-scan.
func (p *Pager) PushPrefetch(pages int) (release func()) {
	p.mu.Lock()
	p.prefetchRefs++
	if pages > p.prefetch {
		p.prefetch = pages
	}
	p.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			p.mu.Lock()
			p.prefetchRefs--
			if p.prefetchRefs == 0 {
				p.prefetch = 1
			}
			p.mu.Unlock()
		})
	}
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
	return p.evictLocked()
}

// Alloc appends a new zeroed page to the file and returns its ID and a
// writable buffer for it. The page is born dirty in the cache; it is
// written to disk on eviction or Flush.
func (p *Pager) Alloc() (PageID, []byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.nPage
	p.nPage++
	cp := &cachedPage{id: id, data: make([]byte, p.pageSize), dirty: true}
	if err := p.insertLocked(cp); err != nil {
		return 0, nil, err
	}
	return id, cp.data, nil
}

// Read returns the contents of page id, through the buffer pool. The
// returned slice aliases the cached page: mutate it only via Write.
func (p *Pager) Read(id PageID) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.readLocked(id)
}

func (p *Pager) readLocked(id PageID) ([]byte, error) {
	if id >= p.nPage {
		return nil, fmt.Errorf("storage: read page %d of %d in %s", id, p.nPage, p.f.Name())
	}
	if el, ok := p.cache[id]; ok {
		p.lru.MoveToFront(el)
		return el.Value.(*cachedPage).data, nil
	}
	// Determine the read-ahead run: contiguous pages starting at id
	// that are on disk, not cached (cached copies may be newer), and
	// within half the pool so the run cannot evict itself.
	run := p.prefetch
	if max := p.maxPages / 2; run > max {
		run = max
	}
	if run < 1 {
		run = 1
	}
	onDisk := PageID(p.f.Size() / int64(p.pageSize))
	for n := 1; n < run; n++ {
		next := id + PageID(n)
		if next >= onDisk {
			run = n
			break
		}
		if _, cached := p.cache[next]; cached {
			run = n
			break
		}
	}
	if id+PageID(run) > onDisk {
		run = 1 // requested page may live only beyond the flushed tail
	}
	data := make([]byte, run*p.pageSize)
	if err := p.f.ReadAt(data, int64(id)*int64(p.pageSize)); err != nil {
		return nil, err
	}
	// Insert read-ahead pages first, the requested page last, so the
	// requested page is the most recently used.
	for n := run - 1; n >= 1; n-- {
		cp := &cachedPage{id: id + PageID(n), data: data[n*p.pageSize : (n+1)*p.pageSize : (n+1)*p.pageSize]}
		if err := p.insertLocked(cp); err != nil {
			return nil, err
		}
	}
	cp := &cachedPage{id: id, data: data[:p.pageSize:p.pageSize]}
	if err := p.insertLocked(cp); err != nil {
		return nil, err
	}
	return cp.data, nil
}

// Write replaces the contents of page id and marks it dirty. data must
// be exactly one page.
func (p *Pager) Write(id PageID, data []byte) error {
	if len(data) != p.pageSize {
		return fmt.Errorf("storage: write page %d: got %d bytes, want %d", id, len(data), p.pageSize)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if id >= p.nPage {
		return fmt.Errorf("storage: write page %d of %d in %s", id, p.nPage, p.f.Name())
	}
	if el, ok := p.cache[id]; ok {
		cp := el.Value.(*cachedPage)
		copy(cp.data, data)
		cp.dirty = true
		p.lru.MoveToFront(el)
		return nil
	}
	cp := &cachedPage{id: id, data: append([]byte(nil), data...), dirty: true}
	return p.insertLocked(cp)
}

// MarkDirty flags a cached page (previously obtained from Read or
// Alloc and mutated in place) so it is flushed before eviction.
func (p *Pager) MarkDirty(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.cache[id]; ok {
		el.Value.(*cachedPage).dirty = true
		p.lru.MoveToFront(el)
	}
}

func (p *Pager) insertLocked(cp *cachedPage) error {
	p.cache[cp.id] = p.lru.PushFront(cp)
	return p.evictLocked()
}

func (p *Pager) evictLocked() error {
	for p.lru.Len() > p.maxPages {
		el := p.lru.Back()
		cp := el.Value.(*cachedPage)
		if cp.dirty {
			if err := p.f.WriteAt(cp.data, int64(cp.id)*int64(p.pageSize)); err != nil {
				return err
			}
			cp.dirty = false
		}
		p.lru.Remove(el)
		delete(p.cache, cp.id)
	}
	return nil
}

// Flush writes all dirty pages to the file in page order (one mostly
// sequential pass), keeping them cached.
func (p *Pager) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

func (p *Pager) flushLocked() error {
	dirty := make([]*cachedPage, 0)
	for _, el := range p.cache {
		if cp := el.Value.(*cachedPage); cp.dirty {
			dirty = append(dirty, cp)
		}
	}
	// Write in ascending page order so flushes of bulk loads are
	// sequential on the simulated disk.
	for i := 1; i < len(dirty); i++ {
		for j := i; j > 0 && dirty[j-1].id > dirty[j].id; j-- {
			dirty[j-1], dirty[j] = dirty[j], dirty[j-1]
		}
	}
	for _, cp := range dirty {
		if err := p.f.WriteAt(cp.data, int64(cp.id)*int64(p.pageSize)); err != nil {
			return err
		}
		cp.dirty = false
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
	p.cache = make(map[PageID]*list.Element)
	p.lru.Init()
	return nil
}

// CachedPages returns how many pages the buffer pool currently holds.
func (p *Pager) CachedPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}
