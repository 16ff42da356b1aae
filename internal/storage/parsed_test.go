package storage

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upidb/internal/sim"
)

// parseCounter is a ReadParsed parse function that counts its calls and
// returns a copy of the page's first byte, so a stale parsed value is
// visible as a byte that differs from the page's. It reports the value
// as parsedSize bytes.
type parseCounter struct {
	calls atomic.Int64
	fail  atomic.Bool
}

var errParse = errors.New("parse refused the page")

const parsedSize = 40

func (c *parseCounter) parse(buf []byte) (any, int, error) {
	c.calls.Add(1)
	if c.fail.Load() {
		return nil, 0, errParse
	}
	b := buf[0]
	return &b, parsedSize, nil
}

// readParsed reads page id through v and checks that the parsed value
// describes the bytes returned with it.
func readParsed(t *testing.T, v View, c *parseCounter, id PageID) byte {
	t.Helper()
	data, parsed, err := v.ReadParsed(id, c.parse)
	if err != nil {
		t.Fatalf("page %d: %v", id, err)
	}
	if got := *parsed.(*byte); got != data[0] {
		t.Fatalf("page %d: parsed value %d, page holds %d", id, got, data[0])
	}
	return data[0]
}

// TestReadParsedOncePerLoad: a page is parsed on the first ReadParsed
// after it enters the pool, by a miss, a read-ahead run or Alloc, and
// every later ReadParsed and Read of it is served without parsing,
// through any view.
func TestReadParsedOncePerLoad(t *testing.T) {
	p, _ := newPrefetchPager(t)
	fillPages(t, p, 16)
	var c parseCounter
	v := p.View(nil, 4) // page 0's miss brings in pages 0-3
	for range 3 {
		if got := readParsed(t, v, &c, 0); got != 0 {
			t.Fatalf("page 0 holds %d", got)
		}
	}
	if n := c.calls.Load(); n != 1 {
		t.Fatalf("three reads of page 0: %d parses, want 1", n)
	}
	if _, err := p.Read(1); err != nil { // a plain read parses nothing
		t.Fatal(err)
	}
	for id := PageID(1); id < 4; id++ {
		readParsed(t, p.View(nil, 1), &c, id)
		readParsed(t, v, &c, id)
	}
	if n := c.calls.Load(); n != 4 {
		t.Fatalf("read-ahead pages: %d parses in all, want 4", n)
	}
	id := allocPage(t, p, 7)
	readParsed(t, v, &c, id)
	readParsed(t, v, &c, id)
	if n := c.calls.Load(); n != 5 {
		t.Fatalf("allocated page: %d parses in all, want 5", n)
	}
}

// TestReadParsedInvalidation: after anything that may change a page's
// bytes or takes it out of the pool — Write, an Update that changed it,
// eviction, DropCache — the next ReadParsed parses the page again and
// sees its current bytes.
func TestReadParsedInvalidation(t *testing.T) {
	p, _ := newPrefetchPager(t)
	fillPages(t, p, 16)
	if err := p.Pool().SetCapacity(4 * 64); err != nil {
		t.Fatal(err)
	}
	var c parseCounter
	v := p.View(nil, 1)
	want := int64(0)
	expect := func(step string, id PageID, fill byte, parsed bool) {
		t.Helper()
		if parsed {
			want++
		}
		if got := readParsed(t, v, &c, id); got != fill {
			t.Fatalf("%s: page %d holds %d, want %d", step, id, got, fill)
		}
		if n := c.calls.Load(); n != want {
			t.Fatalf("%s: %d parses, want %d", step, n, want)
		}
	}
	expect("first read", 2, 2, true)
	expect("warm read", 2, 2, false)

	if err := p.Write(2, bytes.Repeat([]byte{42}, p.PageSize())); err != nil {
		t.Fatal(err)
	}
	expect("after Write", 2, 42, true)
	update := func(b byte, changed bool) {
		t.Helper()
		if err := p.Update(2, func(page []byte) bool { page[0] = b; return changed }); err != nil {
			t.Fatal(err)
		}
	}
	update(42, false)
	expect("after an Update that changed nothing", 2, 42, false)
	update(44, true)
	expect("after Update", 2, 44, true)
	expect("warm read", 2, 44, false)

	for id := PageID(10); id < 14; id++ { // four other pages evict page 2
		if _, err := p.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	expect("after eviction", 2, 44, true)
	expect("warm read", 2, 44, false)

	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	expect("after DropCache", 2, 44, true)
	expect("warm read", 2, 44, false)
}

// TestReadParsedErrorIsNotKept: a page parse refuses fails every
// ReadParsed, each of which parses it again; the page's bytes stay
// cached, and once parse accepts them the value is kept.
func TestReadParsedErrorIsNotKept(t *testing.T) {
	p, _ := newPrefetchPager(t)
	fillPages(t, p, 4)
	var c parseCounter
	c.fail.Store(true)
	v := p.View(nil, 1)
	for i := range 3 {
		if _, _, err := v.ReadParsed(1, c.parse); !errors.Is(err, errParse) {
			t.Fatalf("read %d: err %v, want the parse error", i, err)
		}
	}
	if n := c.calls.Load(); n != 3 {
		t.Fatalf("three failing reads: %d parses, want 3", n)
	}
	if p.CachedPages() != 1 {
		t.Fatalf("%d pages cached, want the one read", p.CachedPages())
	}
	c.fail.Store(false)
	readParsed(t, v, &c, 1)
	readParsed(t, v, &c, 1)
	if n := c.calls.Load(); n != 4 {
		t.Fatalf("after parse recovered: %d parses, want 4", n)
	}
}

// TestReadParsedConcurrentColdPage: readers released together to read
// one cold page through views of their own parse it once and share the
// value, though the parse is slow enough for all of them to arrive
// while it runs. Run it under -race.
func TestReadParsedConcurrentColdPage(t *testing.T) {
	p, _ := newPrefetchPager(t)
	fillPages(t, p, 8)
	var c parseCounter
	slowParse := func(buf []byte) (any, int, error) {
		time.Sleep(5 * time.Millisecond)
		return c.parse(buf)
	}
	const readers = 8
	values := make([]any, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range 50 {
				_, parsed, err := p.View(nil, 1+r%3).ReadParsed(5, slowParse)
				if err != nil {
					t.Error(err)
					return
				}
				values[r] = parsed
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := c.calls.Load(); n != 1 {
		t.Fatalf("%d readers of one cold page: %d parses, want 1", readers, n)
	}
	for r, v := range values {
		if v != values[0] || *v.(*byte) != 5 {
			t.Fatalf("reader %d got parsed value %v, reader 0 %v", r, v, values[0])
		}
	}
}

// cachedBytes sums what p's cached pages cost its pool.
func cachedBytes(p *Pager) int64 {
	p.pool.mu.Lock()
	defer p.pool.mu.Unlock()
	var n int64
	for _, fi := range p.index {
		n += p.pool.frames[fi].cost
	}
	return n
}

// TestReadParsedCostsItsSize: in a pool made by NewPool a page costs
// its bytes, plus the size its parse reported once it is parsed; a
// write gives the parsed size back, and eviction and DropCache give
// back both. A private pool charges the page only.
func TestReadParsedCostsItsSize(t *testing.T) {
	const pageSize = 64
	fs := NewFS(sim.NewDisk(sim.DefaultParams()))
	pool := NewPool(4*pageSize + 2*parsedSize)
	fs.SetPool(pool)
	p, err := NewPager(fs.Create("t"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	fillPages(t, p, 16)
	var c parseCounter
	v := p.View(nil, 1)
	resident := func(step string, want int64) {
		t.Helper()
		if got := pool.Resident(); got != want || cachedBytes(p) != want {
			t.Fatalf("%s: resident %d, pager's frames %d, want %d", step, got, cachedBytes(p), want)
		}
	}
	resident("empty", 0)
	if _, err := p.Read(0); err != nil {
		t.Fatal(err)
	}
	resident("one page read", pageSize)
	readParsed(t, v, &c, 0)
	resident("one page parsed", pageSize+parsedSize)
	readParsed(t, v, &c, 1)
	readParsed(t, v, &c, 2)
	resident("three pages parsed", 3*(pageSize+parsedSize))
	if err := p.Write(2, make([]byte, pageSize)); err != nil {
		t.Fatal(err)
	}
	resident("page 2 rewritten", 3*pageSize+2*parsedSize)
	if _, err := p.Read(3); err != nil {
		t.Fatal(err)
	}
	resident("four pages, two parsed", 4*pageSize+2*parsedSize)
	readParsed(t, v, &c, 3) // over capacity: page 0, the oldest, goes with its parsed form
	if _, ok := p.index[0]; ok {
		t.Fatal("page 0 still cached past the pool's capacity")
	}
	resident("page 0 evicted", 3*pageSize+2*parsedSize)
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	resident("after DropCache", 0)

	private, _ := newPrefetchPager(t)
	fillPages(t, private, 4)
	readParsed(t, private.View(nil, 1), &c, 1)
	if got := cachedBytes(private); got != pageSize {
		t.Fatalf("private pool charged %d for a parsed page, want the page's %d", got, pageSize)
	}
}
