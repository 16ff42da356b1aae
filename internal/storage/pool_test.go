package storage

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"upidb/internal/sim"
)

// ioEvent is one backend page transfer, as both sides of the model
// test must issue it.
type ioEvent struct {
	write bool
	name  string
	off   int64
	n     int
}

// countingBackend logs every ReadAt and WriteAt it passes on and counts
// Size calls.
type countingBackend struct {
	Backend
	mu    sync.Mutex
	log   []ioEvent
	sizes int
}

func (b *countingBackend) record(e ioEvent) {
	b.mu.Lock()
	b.log = append(b.log, e)
	b.mu.Unlock()
}

func (b *countingBackend) ReadAt(name string, p []byte, off int64) error {
	b.record(ioEvent{name: name, off: off, n: len(p)})
	return b.Backend.ReadAt(name, p, off)
}

func (b *countingBackend) WriteAt(name string, p []byte, off int64) error {
	b.record(ioEvent{write: true, name: name, off: off, n: len(p)})
	return b.Backend.WriteAt(name, p, off)
}

func (b *countingBackend) Size(name string) (int64, bool) {
	b.mu.Lock()
	b.sizes++
	b.mu.Unlock()
	return b.Backend.Size(name)
}

// lruModel is the buffer pool's specification: a container/list LRU
// that learns how many pages are on disk by asking the file on every
// miss. The Pager must make the same transfers in the same order.
type lruModel struct {
	f                  *File
	pageSize, maxPages int
	lru                *list.List // of *modelPage; front = most recent
	cache              map[PageID]*list.Element
	nPage              PageID
	stats              PoolStats // what the pager's FS must have counted
}

type modelPage struct {
	id    PageID
	data  []byte
	dirty bool
}

// read fetches up to readAhead pages on a miss.
func (m *lruModel) read(id PageID, readAhead int) ([]byte, error) {
	if id >= m.nPage {
		return nil, errors.New("model: page out of range")
	}
	if el, ok := m.cache[id]; ok {
		m.stats.Hits++
		m.lru.MoveToFront(el)
		return el.Value.(*modelPage).data, nil
	}
	m.stats.Misses++
	run := max(min(readAhead, m.maxPages/2), 1)
	onDisk := PageID(m.f.Size() / int64(m.pageSize))
	for n := 1; n < run; n++ {
		if next := id + PageID(n); next >= onDisk || m.cache[next] != nil {
			run = n
			break
		}
	}
	if id+PageID(run) > onDisk {
		run = 1
	}
	data := make([]byte, run*m.pageSize)
	if err := m.f.ReadAt(data, int64(id)*int64(m.pageSize)); err != nil {
		return nil, err
	}
	for n := run - 1; n >= 0; n-- {
		if err := m.insert(&modelPage{id: id + PageID(n), data: data[n*m.pageSize : (n+1)*m.pageSize]}); err != nil {
			return nil, err
		}
	}
	return data[:m.pageSize], nil
}

func (m *lruModel) insert(pg *modelPage) error {
	m.cache[pg.id] = m.lru.PushFront(pg)
	return m.evict()
}

func (m *lruModel) evict() error {
	for m.lru.Len() > m.maxPages {
		pg := m.lru.Back().Value.(*modelPage)
		if pg.dirty {
			if err := m.f.WriteAt(pg.data, int64(pg.id)*int64(m.pageSize)); err != nil {
				return err
			}
			pg.dirty = false
		}
		m.lru.Remove(m.cache[pg.id])
		delete(m.cache, pg.id)
		m.stats.Evictions++
	}
	return nil
}

func (m *lruModel) write(id PageID, data []byte) error {
	if el, ok := m.cache[id]; ok {
		pg := el.Value.(*modelPage)
		copy(pg.data, data)
		pg.dirty = true
		m.lru.MoveToFront(el)
		return nil
	}
	return m.insert(&modelPage{id: id, data: bytes.Clone(data), dirty: true})
}

func (m *lruModel) flush() error {
	var dirty []*modelPage
	for el := m.lru.Front(); el != nil; el = el.Next() {
		if pg := el.Value.(*modelPage); pg.dirty {
			dirty = append(dirty, pg)
		}
	}
	slices.SortFunc(dirty, func(a, b *modelPage) int { return int(a.id) - int(b.id) })
	for _, pg := range dirty {
		if err := m.f.WriteAt(pg.data, int64(pg.id)*int64(m.pageSize)); err != nil {
			return err
		}
		pg.dirty = false
	}
	return nil
}

// poolPair drives a Pager and the model through the same history, each
// over its own logging backend.
type poolPair struct {
	t      *testing.T
	p      *Pager
	m      *lruModel
	pb, mb *countingBackend // pager's and model's backends
	pf, mf *FaultBackend
	ahead  int // read-ahead window of the current reader's view
	truth  map[PageID][]byte
}

const modelPageSize = 64

func newPoolPair(t *testing.T) *poolPair {
	t.Helper()
	side := func() (*File, *countingBackend, *FaultBackend) {
		fb := NewFaultBackend(NewMemBackend())
		cb := &countingBackend{Backend: fb}
		return NewFSOn(sim.NewDisk(sim.DefaultParams()), cb).Create("t"), cb, fb
	}
	pfile, pb, pf := side()
	mfile, mb, mf := side()
	p, err := NewPager(pfile, modelPageSize)
	if err != nil {
		t.Fatal(err)
	}
	pb.sizes = 0 // NewPager's one Size is allowed
	return &poolPair{
		t: t, p: p, pb: pb, mb: mb, pf: pf, mf: mf, ahead: 1,
		m: &lruModel{f: mfile, pageSize: modelPageSize, maxPages: DefaultCachePages,
			lru: list.New(), cache: make(map[PageID]*list.Element)},
		truth: make(map[PageID][]byte),
	}
}

// sameErr fails unless both sides failed alike.
func (pp *poolPair) sameErr(step string, perr, merr error) {
	pp.t.Helper()
	if (perr == nil) != (merr == nil) || (perr != nil && errors.Is(perr, ErrInjected) != errors.Is(merr, ErrInjected)) {
		pp.t.Fatalf("%s: pager err %v, model err %v", step, perr, merr)
	}
}

// check asserts the two sides agree after a step.
func (pp *poolPair) check(step string) {
	pp.t.Helper()
	p, m := pp.p, pp.m
	if !slices.Equal(pp.pb.log, pp.mb.log) {
		pp.t.Fatalf("%s: backend transfers diverge\npager %v\nmodel %v", step, tail(pp.pb.log), tail(pp.mb.log))
	}
	if got, want := p.CachedPages(), m.lru.Len(); got != want {
		pp.t.Fatalf("%s: CachedPages %d, model %d", step, got, want)
	}
	if got := p.f.fs.PoolStats(); got != m.stats {
		pp.t.Fatalf("%s: pool counters %+v, model %+v", step, got, m.stats)
	}
	if pp.pb.sizes != 0 {
		pp.t.Fatalf("%s: pager asked the backend for the file size %d times", step, pp.pb.sizes)
	}
	if size, _ := pp.pf.Size("t"); p.onDisk != PageID(size/modelPageSize) {
		pp.t.Fatalf("%s: onDisk %d, file holds %d pages", step, p.onDisk, size/modelPageSize)
	}
	// The frame table's LRU list is the model's, page for page.
	el := m.lru.Front()
	n := 0
	pl := p.pool
	for fi := pl.head; fi >= 0; fi = pl.frames[fi].next {
		f := &pl.frames[fi]
		mp := el.Value.(*modelPage)
		if f.id != mp.id || f.dirty != mp.dirty || !bytes.Equal(f.data, mp.data) || p.index[f.id] != fi {
			pp.t.Fatalf("%s: LRU position %d: pager page %d dirty=%v, model page %d dirty=%v",
				step, n, f.id, f.dirty, mp.id, mp.dirty)
		}
		if want := f.prev; (n == 0 && want != -1) || (n > 0 && pl.frames[want].next != fi) {
			pp.t.Fatalf("%s: broken back link at LRU position %d", step, n)
		}
		el = el.Next()
		n++
	}
	if len(p.index) != n || el != nil {
		pp.t.Fatalf("%s: list walks %d frames, index holds %d", step, n, len(p.index))
	}
}

func tail(log []ioEvent) []ioEvent { return log[max(0, len(log)-4):] }

func (pp *poolPair) read(id PageID) {
	pp.t.Helper()
	got, perr := pp.p.View(nil, pp.ahead).Read(id)
	want, merr := pp.m.read(id, pp.ahead)
	step := fmt.Sprintf("Read(%d, ahead %d)", id, pp.ahead)
	pp.sameErr(step, perr, merr)
	if perr == nil && (!bytes.Equal(got, want) || !bytes.Equal(got, pp.truth[id])) {
		pp.t.Fatalf("%s: pager %x, model %x, last written %x", step, got[:8], want[:8], pp.truth[id][:8])
	}
	pp.check(step)
}

func (pp *poolPair) alloc(fill byte) error {
	pp.t.Helper()
	_, perr := pp.p.Alloc()
	id := pp.m.nPage
	pp.m.nPage++
	mp := &modelPage{id: id, data: make([]byte, modelPageSize), dirty: true}
	pp.sameErr("Alloc", perr, pp.m.insert(mp))
	// Even when the eviction it caused failed, the new page is cached,
	// dirty and most recent: fill it in place on both sides.
	pp.p.pool.frames[pp.p.pool.head].page()[0], mp.data[0] = fill, fill
	pp.truth[id] = append([]byte{fill}, make([]byte, modelPageSize-1)...)
	pp.check("Alloc")
	return perr
}

func (pp *poolPair) write(id PageID, fill byte) {
	pp.t.Helper()
	data := bytes.Repeat([]byte{fill}, modelPageSize)
	perr := pp.p.Write(id, data)
	merr := pp.m.write(id, data)
	pp.sameErr(fmt.Sprintf("Write(%d)", id), perr, merr)
	pp.truth[id] = data
	pp.check(fmt.Sprintf("Write(%d)", id))
}

// update reads page id, then mutates it in place through Update, which
// finds it cached.
func (pp *poolPair) update(id PageID, fill byte) {
	pp.t.Helper()
	_, perr := pp.p.View(nil, pp.ahead).Read(id)
	want, merr := pp.m.read(id, pp.ahead)
	pp.sameErr(fmt.Sprintf("Read(%d) for Update", id), perr, merr)
	if perr != nil {
		pp.check("Update")
		return
	}
	pp.sameErr(fmt.Sprintf("Update(%d)", id), pp.p.Update(id, func(page []byte) bool {
		page[1] = fill
		return true
	}), nil)
	want[1] = fill
	pp.truth[id][1] = fill
	if el, ok := pp.m.cache[id]; ok {
		pp.m.stats.Hits++
		el.Value.(*modelPage).dirty = true
		pp.m.lru.MoveToFront(el)
	}
	pp.check(fmt.Sprintf("Update(%d)", id))
}

func (pp *poolPair) setCacheLimit(n int) {
	pp.t.Helper()
	perr := pp.p.Pool().SetCapacity(int64(n) * modelPageSize)
	pp.m.maxPages = max(n, 1)
	merr := pp.m.evict()
	pp.sameErr(fmt.Sprintf("SetCacheLimit(%d)", n), perr, merr)
	pp.check(fmt.Sprintf("SetCacheLimit(%d)", n))
}

func (pp *poolPair) flush() {
	pp.t.Helper()
	pp.sameErr("Flush", pp.p.Flush(), pp.m.flush())
	pp.check("Flush")
}

func (pp *poolPair) dropCache() {
	pp.t.Helper()
	perr := pp.p.DropCache()
	merr := pp.m.flush()
	if merr == nil {
		pp.m.lru.Init()
		clear(pp.m.cache)
	}
	pp.sameErr("DropCache", perr, merr)
	pp.check("DropCache")
}

// step runs one random operation of a history.
func (pp *poolPair) step(rng *rand.Rand, last *PageID) {
	pp.t.Helper()
	n := pp.p.nPage
	pick := func() PageID { return PageID(rng.Intn(int(n))) }
	switch op := rng.Intn(100); {
	case op < 40:
		if n == 0 {
			return
		}
		var id PageID
		switch r := rng.Intn(10); {
		case r < 4: // likely a hit
			id = *last
		case r < 7: // the next page: extends or starts a read-ahead run
			id = min(*last+1, n-1)
		case r < 9:
			id = pick()
		default: // out of range: an error, no transfer
			id = n + PageID(rng.Intn(3))
		}
		pp.read(id)
		if id < n {
			*last = id
		}
	case op < 55:
		_ = pp.alloc(byte(rng.Intn(256)))
	case op < 65:
		if n > 0 {
			pp.write(pick(), byte(rng.Intn(256)))
		}
	case op < 72:
		if n > 0 {
			pp.update(pick(), byte(rng.Intn(256)))
		}
	case op < 80:
		pp.setCacheLimit(rng.Intn(14))
	case op < 88: // the next reads come from another reader's view
		if pp.ahead = 1; rng.Intn(2) == 0 {
			pp.ahead = 2 + rng.Intn(10)
		}
	case op < 95:
		pp.flush()
	default:
		pp.dropCache()
	}
}

// TestPagerMatchesLRUModel drives the frame-table pool and the
// container/list model through seeded histories of every pool
// operation and requires the same backend transfers, the same pool
// contents in the same LRU order and the same bytes after every step.
func TestPagerMatchesLRUModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pp := newPoolPair(t)
			pp.setCacheLimit(8)
			var last PageID
			for i := 0; i < 1500; i++ {
				pp.step(rng, &last)
			}
			if len(pp.pb.log) < 100 {
				t.Fatalf("history made only %d transfers", len(pp.pb.log))
			}
		})
	}
}

// TestPagerEvictionWriteFailure fails the write-back of a dirty page
// the pool is evicting: the error surfaces, the page stays cached and
// dirty, the pager does not count it as on disk, and the rest of the
// history still matches the model.
func TestPagerEvictionWriteFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pp := newPoolPair(t)
	pp.setCacheLimit(6)
	var last PageID
	for i := 0; i < 300; i++ {
		pp.step(rng, &last)
	}
	pp.ahead = 1
	pp.setCacheLimit(4)
	for i := 0; i < 4; i++ { // the pool now holds four dirty pages
		if err := pp.alloc(byte(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	pl := pp.p.pool
	victim := pl.frames[pl.tail].id
	onDisk := pp.p.onDisk
	if victim < onDisk || !pl.frames[pl.tail].dirty {
		t.Fatalf("setup: victim %d (dirty=%v) already on disk (%d pages)", victim, pl.frames[pl.tail].dirty, onDisk)
	}
	fault := Fault{Op: OpWrite, Name: "t"}
	pp.pf.Arm(fault)
	pp.mf.Arm(fault)
	if err := pp.alloc(0xAB); !errors.Is(err, ErrInjected) {
		t.Fatalf("eviction write: want ErrInjected, got %v", err)
	}
	if pp.p.onDisk != onDisk {
		t.Fatalf("failed write advanced onDisk %d -> %d", onDisk, pp.p.onDisk)
	}
	fi, ok := pp.p.index[victim]
	if !ok || !pl.frames[fi].dirty {
		t.Fatalf("page %d whose write failed: cached=%v, want cached and dirty", victim, ok)
	}
	if got := pp.p.CachedPages(); got != 5 {
		t.Fatalf("CachedPages %d, want 5 (over the limit until a write succeeds)", got)
	}
	for i := 0; i < 1000; i++ { // later evictions retry the write
		pp.step(rng, &last)
	}
	pp.read(victim)
}

// TestPagerReadMissNeverStatsTheFile: a miss, single page or read-ahead
// run, asks the backend for bytes and nothing else.
func TestPagerReadMissNeverStatsTheFile(t *testing.T) {
	cb := &countingBackend{Backend: NewMemBackend()}
	p, err := NewPager(NewFSOn(sim.NewDisk(sim.DefaultParams()), cb).Create("t"), modelPageSize)
	if err != nil {
		t.Fatal(err)
	}
	fillPages(t, p, 64)
	cb.sizes = 0
	for _, ahead := range []int{1, 4, 16} {
		v := p.View(nil, ahead)
		if err := p.DropCache(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			got, err := v.Read(PageID(i))
			if err != nil || got[0] != byte(i) {
				t.Fatalf("page %d: %v %d", i, err, got[0])
			}
		}
	}
	if cb.sizes != 0 {
		t.Fatalf("192 reads (misses and read-ahead runs) called Backend.Size %d times, want 0", cb.sizes)
	}
}

// TestPagerReadAllocations: a hit allocates nothing; a miss allocates
// the page bytes only, one buffer for a whole read-ahead run.
func TestPagerReadAllocations(t *testing.T) {
	p, _ := newPrefetchPager(t)
	fillPages(t, p, 400)
	if _, err := p.Read(7); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := p.Read(7); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Read hit: %v allocations, want 0", allocs)
	}
	if err := p.Pool().SetCapacity(16 * 64); err != nil {
		t.Fatal(err)
	}
	for _, run := range []int{1, 4} {
		v := p.View(sim.NewTape(), run)
		if err := p.DropCache(); err != nil {
			t.Fatal(err)
		}
		next := PageID(0)
		if allocs := testing.AllocsPerRun(300, func() {
			if _, err := v.Read(next); err != nil {
				t.Fatal(err)
			}
			next = (next + PageID(run)) % 400 // every read misses
		}); allocs != 1 {
			t.Fatalf("Read miss with a %d-page run: %v allocations, want 1", run, allocs)
		}
	}
}

// newBenchPager returns a cold pager of the given number of 8 KiB pages
// over real files, where a file-size query is a stat system call.
func newBenchPager(b *testing.B, pages int) *Pager {
	b.Helper()
	disk, err := NewDiskBackend(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { disk.Close() })
	p, err := NewPager(NewFSOn(sim.NewDisk(sim.DefaultParams()), disk).Create("t"), DefaultPageSize)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if _, err := p.Alloc(); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.DropCache(); err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkPagerReadHit(b *testing.B) {
	p := newBenchPager(b, 256)
	for i := 0; i < 256; i++ {
		if _, err := p.Read(PageID(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Read(PageID(i % 256)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPagerReadMiss cycles through twice the pool's pages, so
// every read misses and evicts.
func BenchmarkPagerReadMiss(b *testing.B) {
	p := newBenchPager(b, 2*DefaultCachePages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Read(PageID(i % (2 * DefaultCachePages))); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPagerConcurrentReaders: four readers over overlapping page ranges
// (hits, misses, read-ahead runs), each through views of its own with
// its own recorder and windows, a writer allocating, rewriting and
// flushing, and a goroutine moving the pool limit. What changes page
// bytes (Alloc and its fill, Write) holds rw exclusively, the way a
// table's writer excludes that file's readers; SetCapacity, whose
// evictions write dirty pages back, takes no lock at all. Every read
// returns the bytes last written. Run it under -race.
func TestPagerConcurrentReaders(t *testing.T) {
	p, _ := newPrefetchPager(t)
	fillPages(t, p, 64)
	var (
		rw    sync.RWMutex
		truth = make(map[PageID]byte) // guarded by rw
		pages = PageID(64)            // readable pages; guarded by rw
		wg    sync.WaitGroup
		errc  = make(chan error, 6)
	)
	for i := 0; i < 64; i++ {
		truth[PageID(i)] = byte(i)
	}
	var seed int64
	run := func(n int, op func(i int, rng *rand.Rand) error) {
		wg.Add(1)
		seed++
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				if err := op(i, rng); err != nil {
					errc <- err
					return
				}
			}
		}(seed)
	}
	for r := 0; r < 4; r++ {
		tape := sim.NewTape()
		run(2000, func(i int, rng *rand.Rand) error {
			rw.RLock()
			defer rw.RUnlock()
			id := PageID(r*8+i%40+rng.Intn(4)) % pages // overlapping sequential sweeps
			if i%5 == 0 {
				id = pages - 1 - PageID(rng.Intn(8)) // freshly allocated pages
			}
			got, err := p.View(tape, 1+rng.Intn(6)).Read(id)
			if err == nil && got[0] != truth[id] {
				err = fmt.Errorf("reader %d: page %d holds %d, last written %d", r, id, got[0], truth[id])
			}
			return err
		})
	}
	run(1500, func(i int, rng *rand.Rand) error {
		switch i % 3 {
		case 0:
			rw.Lock()
			defer rw.Unlock()
			id, err := p.Alloc()
			if err == nil {
				err = p.Update(id, func(page []byte) bool { page[0] = byte(i); return true })
				truth[id], pages = byte(i), id+1
			}
			return err
		case 1:
			rw.Lock()
			defer rw.Unlock()
			id := PageID(rng.Intn(int(pages)))
			truth[id] = byte(i)
			return p.Write(id, bytes.Repeat([]byte{byte(i)}, p.PageSize()))
		default:
			return p.Flush()
		}
	})
	run(1500, func(i int, rng *rand.Rand) error {
		return p.Pool().SetCapacity(int64(4+rng.Intn(20)) * 64)
	})
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestPoolCountersUnderConcurrentReaders: readers sharing two pagers of
// one FS through views of their own count every read exactly once, as
// a hit or a miss, and every page a miss brought in and the pool let go
// as an eviction, however the readers interleave. Run it under -race.
func TestPoolCountersUnderConcurrentReaders(t *testing.T) {
	fs := NewFS(sim.NewDisk(sim.DefaultParams()))
	var pagers []*Pager
	for _, name := range []string{"a", "b"} {
		p, err := NewPager(fs.Create(name), 64)
		if err != nil {
			t.Fatal(err)
		}
		fillPages(t, p, 96)
		if err := p.Pool().SetCapacity(24 * 64); err != nil {
			t.Fatal(err)
		}
		pagers = append(pagers, p)
	}
	before := fs.PoolStats() // fillPages' evictions
	const readers, reads = 4, 3000
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < reads; i++ {
				p := pagers[rng.Intn(len(pagers))]
				id := PageID(rng.Intn(32)) // mostly cached: hits and misses both
				if rng.Intn(4) == 0 {
					id = PageID(rng.Intn(96))
				}
				if _, err := p.View(nil, 1).Read(id); err != nil {
					errc <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	got := fs.PoolStats()
	hits, misses, evictions := got.Hits-before.Hits, got.Misses-before.Misses, got.Evictions-before.Evictions
	if hits+misses != readers*reads || hits == 0 || misses == 0 {
		t.Fatalf("%d hits + %d misses, want %d reads of both kinds", hits, misses, readers*reads)
	}
	// Without read-ahead a miss caches one page: what is not cached at
	// the end was evicted.
	cached := int64(pagers[0].CachedPages() + pagers[1].CachedPages())
	if evictions != misses-cached {
		t.Fatalf("%d evictions, want %d misses - %d cached", evictions, misses, cached)
	}
}

// TestSharedPoolRules: two pagers drawing from one FS's pool. A miss of
// one evicts the other's least recently used pages, writing a dirty one
// back through its own pager's file and charging the evicting reader's
// Recorder; Flush and DropCache touch only their own pager's pages; and
// FS.Remove drops the removed file's pages, dirty or not, so nothing
// writes to it again.
func TestSharedPoolRules(t *testing.T) {
	cb := &countingBackend{Backend: NewMemBackend()}
	fs := NewFSOn(sim.NewDisk(sim.DefaultParams()), cb)
	pool := NewPool(4 * 64)
	fs.SetPool(pool)
	a, err := NewPager(fs.Create("a"), 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPager(fs.Create("b"), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		allocPage(t, b, byte(i))
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		allocPage(t, a, byte(10+i)) // a's pages 0 and 1, dirty and never written
	}
	// The pool holds b's pages 6 and 7, then a's 0 and 1 (most recent).
	// Two misses of b's evict them both; b's misses are charged to b's
	// reader, and so is the write-back of a's dirty pages.
	var log opLog
	v := b.View(&log, 1)
	for _, id := range []PageID{0, 1, 2, 3} {
		if _, err := v.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	want := opLog{"read b@0+64", "read b@64+64", "read b@128+64", "write a@0+64", "read b@192+64", "write a@64+64"}
	if !slices.Equal(log, want) {
		t.Fatalf("evicting reader was charged\n%v\nwant\n%v", log, want)
	}
	if a.CachedPages() != 0 || a.onDisk != 2 {
		t.Fatalf("a: %d pages cached, %d on disk; want 0 and 2", a.CachedPages(), a.onDisk)
	}
	for i := 0; i < 2; i++ {
		if got, err := a.Read(PageID(i)); err != nil || got[0] != byte(10+i) {
			t.Fatalf("a's page %d after its write-back: %v, %v", i, got, err)
		}
	}

	// Flush and DropCache leave the other pager's pages alone.
	if err := a.Update(0, func(page []byte) bool { page[1] = 1; return true }); err != nil {
		t.Fatal(err)
	}
	if err := b.Update(3, func(page []byte) bool { page[1] = 1; return true }); err != nil {
		t.Fatal(err)
	}
	writes := func() (n int) {
		for _, e := range cb.log {
			if e.write {
				n++
			}
		}
		return n
	}
	before := writes()
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := writes() - before; got != 1 || !pool.frames[b.index[3]].dirty {
		t.Fatalf("a's Flush made %d writes and left b's page 3 dirty=%v; want 1 and true", got, pool.frames[b.index[3]].dirty)
	}
	bCached := b.CachedPages()
	if err := a.DropCache(); err != nil {
		t.Fatal(err)
	}
	if a.CachedPages() != 0 || b.CachedPages() != bCached {
		t.Fatalf("a's DropCache: a holds %d pages, b %d of %d", a.CachedPages(), b.CachedPages(), bCached)
	}

	// Removing b drops its pages, dirty page 3 included.
	resident, mark := pool.Resident(), len(cb.log)
	if err := fs.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if b.CachedPages() != 0 || pool.Resident() != resident-int64(bCached*64) || pool.Resident() != 0 {
		t.Fatalf("after Remove: b holds %d pages, pool %d B of %d", b.CachedPages(), pool.Resident(), resident)
	}
	for i := 0; i < 6; i++ { // fill the pool and evict from it
		allocPage(t, a, byte(i))
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, e := range cb.log[mark:] {
		if e.name == "b" {
			t.Fatalf("a transfer named the removed file: %+v", e)
		}
	}
}
