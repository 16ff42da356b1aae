package storage

import (
	"bytes"
	"testing"

	"upidb/internal/sim"
)

func newPrefetchPager(t *testing.T) (*Pager, *sim.Disk) {
	t.Helper()
	disk := sim.NewDisk(sim.DefaultParams())
	fs := NewFS(disk)
	p, err := NewPager(fs.Create("t"), 64)
	if err != nil {
		t.Fatal(err)
	}
	return p, disk
}

func fillPages(t *testing.T, p *Pager, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		allocPage(t, p, byte(i))
	}
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchReadsRunInOneOp(t *testing.T) {
	p, disk := newPrefetchPager(t)
	fillPages(t, p, 100)
	v := p.View(nil, 16)
	before := disk.Stats()
	for i := 0; i < 32; i++ {
		got, err := v.Read(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("page %d corrupted by prefetch", i)
		}
	}
	d := disk.Stats().Sub(before)
	// 32 pages with a 16-page window: 2 disk ops, contiguous.
	if d.Seeks+d.SequentialIO > 3 {
		t.Fatalf("prefetch did not batch: %+v", d)
	}
	if d.BytesRead != 32*64 {
		t.Fatalf("read %d bytes", d.BytesRead)
	}
}

func TestPrefetchStopsAtCachedPage(t *testing.T) {
	p, disk := newPrefetchPager(t)
	fillPages(t, p, 20)
	// Warm page 5 and dirty it with a value newer than disk.
	if _, err := p.Read(5); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(5, append(make([]byte, 63), 0xEE)); err != nil {
		t.Fatal(err)
	}
	_ = disk
	// Reading page 0 with a 16-page window must not clobber cached
	// page 5.
	if _, err := p.View(nil, 16).Read(0); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if got[63] != 0xEE {
		t.Fatal("prefetch clobbered a dirty cached page")
	}
}

func TestPrefetchClampsToFileEnd(t *testing.T) {
	p, _ := newPrefetchPager(t)
	fillPages(t, p, 10)
	got, err := p.View(nil, 64).Read(8) // only pages 8,9 remain on disk
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 8 {
		t.Fatalf("page 8 = %d", got[0])
	}
	if _, err := p.Read(9); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchClampsToCache(t *testing.T) {
	p, _ := newPrefetchPager(t)
	fillPages(t, p, 50)
	if err := p.Pool().SetCapacity(8 * 64); err != nil {
		t.Fatal(err)
	}
	// A window larger than the pool is clamped to maxPages/2.
	got, err := p.View(nil, 100).Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("requested page evicted by its own read-ahead")
	}
	if p.CachedPages() > 8 {
		t.Fatalf("cache over limit: %d", p.CachedPages())
	}
}

func TestPrefetchDisabledByDefault(t *testing.T) {
	p, disk := newPrefetchPager(t)
	fillPages(t, p, 10)
	before := disk.Stats()
	if _, err := p.Read(0); err != nil {
		t.Fatal(err)
	}
	if d := disk.Stats().Sub(before); d.BytesRead != 64 {
		t.Fatalf("default read fetched %d bytes", d.BytesRead)
	}
	before = disk.Stats()
	if _, err := p.View(nil, 0).Read(1); err != nil { // invalid windows clamp to 1
		t.Fatal(err)
	}
	if d := disk.Stats().Sub(before); d.BytesRead != 64 {
		t.Fatalf("a zero window fetched %d bytes", d.BytesRead)
	}
}

// TestEvictedPageSliceStaysIntact pins the contract B+Tree page views
// rely on: a slice handed out by Read is never recycled, so it reads
// the same after its page was evicted (and re-read into a new buffer),
// whether it was the requested page of a read-ahead run or one of the
// pages that came along with it.
func TestEvictedPageSliceStaysIntact(t *testing.T) {
	p, _ := newPrefetchPager(t)
	fillPages(t, p, 200)
	if err := p.Pool().SetCapacity(8 * 64); err != nil {
		t.Fatal(err)
	}
	v := p.View(nil, 4)
	held := make(map[PageID][]byte)
	want := make(map[PageID][]byte)
	for _, id := range []PageID{0, 1, 3} { // 0 requested; 1 and 3 read ahead
		got, err := v.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != p.PageSize() || cap(got) != p.PageSize() {
			t.Fatalf("page %d: len %d cap %d, want both %d", id, len(got), cap(got), p.PageSize())
		}
		held[id] = got
		want[id] = bytes.Clone(got)
	}
	for i := 100; i < 200; i++ { // evicts pages 0..3 many times over
		if _, err := p.Read(PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if p.CachedPages() > 8 {
		t.Fatalf("pool holds %d pages, limit 8", p.CachedPages())
	}
	for id, got := range held {
		if !bytes.Equal(got, want[id]) {
			t.Fatalf("page %d: held slice changed after eviction", id)
		}
		again, err := p.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if &again[0] == &got[0] {
			t.Fatalf("page %d was not evicted; the test forces nothing", id)
		}
		if !bytes.Equal(again, got) {
			t.Fatalf("page %d: re-read differs from held slice", id)
		}
	}
}
