package storage

import (
	"bytes"
	"testing"

	"upidb/internal/sim"
)

func newTestFS() *FS {
	return NewFS(sim.NewDisk(sim.DefaultParams()))
}

func TestFSCreateOpenRemove(t *testing.T) {
	fs := newTestFS()
	f := fs.Create("a")
	if f.Name() != "a" || f.Size() != 0 {
		t.Fatalf("fresh file: name=%q size=%d", f.Name(), f.Size())
	}
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("open missing file should fail")
	}
	if !fs.Exists("a") || fs.Exists("b") {
		t.Fatal("Exists wrong")
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("a"); err == nil {
		t.Fatal("double remove should fail")
	}
}

func TestFSReadWrite(t *testing.T) {
	fs := newTestFS()
	f := fs.Create("a")
	if err := f.WriteAt([]byte("hello world"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt([]byte("!!"), 20); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 22 {
		t.Fatalf("size = %d, want 22", f.Size())
	}
	buf := make([]byte, 5)
	if err := f.ReadAt(buf, 6); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("read %q", buf)
	}
	if err := f.ReadAt(make([]byte, 5), 20); err == nil {
		t.Fatal("read past EOF should fail")
	}
	// Hole between 11 and 20 must read as zeroes.
	hole := make([]byte, 9)
	if err := f.ReadAt(hole, 11); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hole, make([]byte, 9)) {
		t.Fatalf("hole not zero: %v", hole)
	}
}

func TestFSRename(t *testing.T) {
	fs := newTestFS()
	f := fs.Create("a")
	if err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("a") || !fs.Exists("b") {
		t.Fatal("rename did not move file")
	}
	g, err := fs.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := g.ReadAt(buf, 0); err != nil || buf[0] != 'x' {
		t.Fatalf("content lost: %v %q", err, buf)
	}
	if err := fs.Rename("zzz", "y"); err == nil {
		t.Fatal("rename of missing file should fail")
	}
}

func TestFSListAndSizes(t *testing.T) {
	fs := newTestFS()
	fs.Create("b").WriteAt(make([]byte, 10), 0)
	fs.Create("a").WriteAt(make([]byte, 5), 0)
	names := fs.List()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("list = %v", names)
	}
	if fs.TotalSize() != 15 {
		t.Fatalf("total = %d", fs.TotalSize())
	}
	if fs.Size("a") != 5 || fs.Size("nope") != 0 {
		t.Fatal("Size wrong")
	}
}

func TestFSChargesDisk(t *testing.T) {
	disk := sim.NewDisk(sim.DefaultParams())
	fs := NewFS(disk)
	f := fs.Create("a")
	if got := disk.Stats().FileOpens; got != 1 {
		t.Fatalf("create should charge open, got %d", got)
	}
	f.WriteAt(make([]byte, 100), 0)
	if got := disk.Stats().BytesWritten; got != 100 {
		t.Fatalf("written = %d", got)
	}
	f.ReadAt(make([]byte, 50), 0)
	if got := disk.Stats().BytesRead; got != 50 {
		t.Fatalf("read = %d", got)
	}
}

func newTestPager(t *testing.T, pageSize int) *Pager {
	t.Helper()
	fs := newTestFS()
	p, err := NewPager(fs.Create("t"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// allocPage allocates a page of p and sets its first byte to b.
func allocPage(t testing.TB, p *Pager, b byte) PageID {
	t.Helper()
	id, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Update(id, func(page []byte) bool { page[0] = b; return true }); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestPagerAllocReadWrite(t *testing.T) {
	p := newTestPager(t, 128)
	id0, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if buf0, err := p.Read(id0); err != nil || id0 != 0 || len(buf0) != 128 || buf0[0] != 0 {
		t.Fatalf("alloc: id=%d page %v, %v", id0, buf0, err)
	}
	id1, _ := p.Alloc()
	if id1 != 1 || p.NumPages() != 2 {
		t.Fatalf("second alloc id=%d n=%d", id1, p.NumPages())
	}
	data := make([]byte, 128)
	copy(data, "page one")
	if err := p.Write(id1, data); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(id1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:8]) != "page one" {
		t.Fatalf("read back %q", got[:8])
	}
	if _, err := p.Read(99); err == nil {
		t.Fatal("read of unallocated page should fail")
	}
	if err := p.Write(0, make([]byte, 5)); err == nil {
		t.Fatal("short write should fail")
	}
}

func TestPagerPersistsThroughEviction(t *testing.T) {
	p := newTestPager(t, 64)
	if err := p.Pool().SetCapacity(2 * 64); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		allocPage(t, p, byte(i))
	}
	if p.CachedPages() > 2 {
		t.Fatalf("cache over limit: %d", p.CachedPages())
	}
	for i := 0; i < n; i++ {
		got, err := p.Read(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("page %d lost: got %d", i, got[0])
		}
	}
}

func TestPagerDropCacheColdReads(t *testing.T) {
	disk := sim.NewDisk(sim.DefaultParams())
	fs := NewFS(disk)
	p, _ := NewPager(fs.Create("t"), 64)
	id := allocPage(t, p, 42)

	// Warm read: served from cache, no disk traffic.
	before := disk.Stats()
	p.Read(id)
	if d := disk.Stats().Sub(before); d.BytesRead != 0 {
		t.Fatalf("warm read hit disk: %+v", d)
	}

	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	if p.CachedPages() != 0 {
		t.Fatal("cache not empty after drop")
	}
	before = disk.Stats()
	got, err := p.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatal("data lost across DropCache")
	}
	if d := disk.Stats().Sub(before); d.BytesRead != 64 {
		t.Fatalf("cold read should hit disk: %+v", d)
	}
}

func TestPagerFlushWritesInPageOrder(t *testing.T) {
	disk := sim.NewDisk(sim.DefaultParams())
	fs := NewFS(disk)
	p, _ := NewPager(fs.Create("t"), 64)
	for i := 0; i < 10; i++ {
		p.Alloc()
	}
	before := disk.Stats()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	d := disk.Stats().Sub(before)
	// 10 contiguous pages: first write seeks, rest are sequential.
	if d.Seeks != 1 || d.SequentialIO != 9 {
		t.Fatalf("flush not sequential: %+v", d)
	}
}

func TestPagerReopenExistingFile(t *testing.T) {
	fs := newTestFS()
	f := fs.Create("t")
	p, _ := NewPager(f, 64)
	allocPage(t, p, 7)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	f2, err := fs.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPager(f2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p2.NumPages() != 1 {
		t.Fatalf("reopened pager pages = %d", p2.NumPages())
	}
	got, err := p2.Read(0)
	if err != nil || got[0] != 7 {
		t.Fatalf("reopen read: %v %v", err, got[0])
	}

	// Non-page-multiple file must be rejected.
	f3 := fs.Create("bad")
	f3.WriteAt(make([]byte, 65), 0)
	if _, err := NewPager(f3, 64); err == nil {
		t.Fatal("expected error for ragged file")
	}
}
