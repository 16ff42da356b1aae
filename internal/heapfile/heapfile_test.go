package heapfile

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"upidb/internal/sim"
	"upidb/internal/storage"
)

func newTestHeap(t *testing.T, pageSize int) (*Heap, *sim.Disk, *storage.Pager) {
	t.Helper()
	disk := sim.NewDisk(sim.DefaultParams())
	fs := storage.NewFS(disk)
	p, err := storage.NewPager(fs.Create("h"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	return h, disk, p
}

func rec(i int) []byte { return []byte(fmt.Sprintf("record-%06d-payload", i)) }

func TestAppendGet(t *testing.T) {
	h, _, _ := newTestHeap(t, 256)
	var ids []RowID
	for i := 0; i < 100; i++ {
		id, err := h.Append(rec(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	for i, id := range ids {
		got, ok, err := h.Get(id)
		if err != nil || !ok || !bytes.Equal(got, rec(i)) {
			t.Fatalf("get %d: %q %v %v", i, got, ok, err)
		}
	}
	if h.NumPages() < 10 {
		t.Fatalf("expected multiple pages, got %d", h.NumPages())
	}
}

func TestRowIDsAreMonotonic(t *testing.T) {
	h, _, _ := newTestHeap(t, 256)
	var prev RowID
	for i := 0; i < 200; i++ {
		id, err := h.Append(rec(i))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !prev.Less(id) {
			t.Fatalf("RowID went backwards: %v then %v", prev, id)
		}
		prev = id
	}
}

func TestDelete(t *testing.T) {
	h, _, _ := newTestHeap(t, 256)
	id0, _ := h.Append(rec(0))
	id1, _ := h.Append(rec(1))
	del, err := h.Delete(id0)
	if err != nil || !del {
		t.Fatalf("delete: %v %v", del, err)
	}
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if _, ok, _ := h.Get(id0); ok {
		t.Fatal("deleted record still readable")
	}
	if got, ok, _ := h.Get(id1); !ok || !bytes.Equal(got, rec(1)) {
		t.Fatal("sibling record damaged by delete")
	}
	if del, _ := h.Delete(id0); del {
		t.Fatal("double delete reported true")
	}
	if _, _, err := h.Get(RowID{Page: 0, Slot: 99}); err == nil {
		t.Fatal("bad slot should error")
	}
}

func TestScan(t *testing.T) {
	h, _, _ := newTestHeap(t, 256)
	var ids []RowID
	for i := 0; i < 50; i++ {
		id, _ := h.Append(rec(i))
		ids = append(ids, id)
	}
	h.Delete(ids[10])
	h.Delete(ids[20])
	seen := 0
	err := h.Scan(func(id RowID, r []byte) bool {
		if bytes.Equal(r, rec(10)) || bytes.Equal(r, rec(20)) {
			t.Fatal("scan returned deleted record")
		}
		seen++
		return true
	})
	if err != nil || seen != 48 {
		t.Fatalf("scan: %v, saw %d", err, seen)
	}
	// Early termination.
	n := 0
	h.Scan(func(RowID, []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestAppendIsSequentialDeleteIsNot(t *testing.T) {
	h, disk, p := newTestHeap(t, 256)
	p.Pool().SetCapacity(4 * 256)
	var ids []RowID
	for i := 0; i < 2000; i++ {
		id, err := h.Append(rec(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	p.Flush()
	apStats := disk.Stats()
	if apStats.Seeks*10 > apStats.SequentialIO {
		t.Fatalf("appends too seeky: %+v", apStats)
	}

	// Random deletes touch random pages: mostly seeks.
	p.DropCache()
	before := disk.Stats()
	rng := rand.New(rand.NewSource(9))
	for _, i := range rng.Perm(2000)[:200] {
		if _, err := h.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	d := disk.Stats().Sub(before)
	if d.Seeks < 100 {
		t.Fatalf("random deletes should seek heavily: %+v", d)
	}
}

func TestRecordTooLarge(t *testing.T) {
	h, _, _ := newTestHeap(t, 256)
	if _, err := h.Append(make([]byte, 300)); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestOpenRecounts(t *testing.T) {
	disk := sim.NewDisk(sim.DefaultParams())
	fs := storage.NewFS(disk)
	p, _ := storage.NewPager(fs.Create("h"), 256)
	h, _ := Create(p)
	var ids []RowID
	for i := 0; i < 60; i++ {
		id, _ := h.Append(rec(i))
		ids = append(ids, id)
	}
	h.Delete(ids[0])
	p.Flush()

	f2, _ := fs.Open("h")
	p2, _ := storage.NewPager(f2, 256)
	h2, err := Open(p2)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Count() != 59 {
		t.Fatalf("reopened count = %d", h2.Count())
	}
	// Appends continue on the tail page without corrupting old data.
	if _, err := h2.Append(rec(999)); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := h2.Get(ids[59])
	if !ok || !bytes.Equal(got, rec(59)) {
		t.Fatal("old record damaged after reopen+append")
	}
}

// TestCorruptSlotFails overwrites, on a flushed page, one slot so its
// record leaves the page, then the slot count so the slot table does,
// and requires every reader to report the slot instead of slicing past
// the page.
func TestCorruptSlotFails(t *testing.T) {
	h, _, p := newTestHeap(t, 256)
	var ids []RowID
	for i := 0; i < 40; i++ {
		id, err := h.Append(rec(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	victim := ids[len(ids)/2]
	cached, err := p.Read(victim.Page)
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Clone(cached) // Write overwrites the cached page in place
	readers := map[string]func() error{
		"Get":    func() error { _, _, err := h.Get(victim); return err },
		"Reader": func() error { r := h.View(nil, 1).Reader(); _, _, err := r.Get(victim); return err },
		"Delete": func() error { _, err := h.Delete(victim); return err },
		"Scan":   func() error { return h.Scan(func(RowID, []byte) bool { return true }) },
		"Open":   func() error { _, err := Open(p); return err },
	}
	want := fmt.Sprintf("heapfile: slot %d on page %d out of bounds", victim.Slot, victim.Page)
	for _, c := range []struct {
		what    string
		corrupt func(b []byte)
	}{
		{"record offset past the page", func(b []byte) { setSlot(b, int(victim.Slot), 250, 20) }},
		{"record length past the page", func(b []byte) { setSlot(b, int(victim.Slot), 200, 0xFFFE) }},
	} {
		bad := bytes.Clone(page)
		c.corrupt(bad)
		if err := p.Write(victim.Page, bad); err != nil {
			t.Fatal(err)
		}
		for name, read := range readers {
			if err := read(); err == nil || err.Error() != want {
				t.Errorf("%s, %s: error %v, want %q", c.what, name, err, want)
			}
		}
	}
	// A slot count past the page: the slot table itself leaves it.
	bad := bytes.Clone(page)
	writeHeader(bad, 0xFFFF, 0)
	if err := p.Write(victim.Page, bad); err != nil {
		t.Fatal(err)
	}
	if err := h.Scan(func(RowID, []byte) bool { return true }); err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Errorf("slot count past the page, Scan: error %v, want out of bounds", err)
	}
	if _, _, err := h.Get(RowID{Page: victim.Page, Slot: 0xFFF0}); err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Errorf("slot count past the page, Get: error %v, want out of bounds", err)
	}
	if err := p.Write(victim.Page, page); err != nil {
		t.Fatal(err)
	}
	for name, read := range readers {
		if name == "Delete" {
			continue
		}
		if err := read(); err != nil {
			t.Errorf("%s on the restored page: %v", name, err)
		}
	}
}

// TestChangesSurviveAnotherFilesEvictions: one heap appends and deletes
// while readers of another file over the same pool evict its pages at
// any moment. Every acknowledged append is found afterwards and no
// deleted record is. Run it under -race: a page changed outside the
// pool's lock shows up as a race with its write-back, or as a lost
// change.
func TestChangesSurviveAnotherFilesEvictions(t *testing.T) {
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	fs.SetPool(storage.NewPool(4 * 256))
	other, err := storage.NewPager(fs.Create("other"), 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := other.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	p, err := storage.NewPager(fs.Create("h"), 256)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	stop := sync.OnceFunc(func() { close(done) })
	defer stop() // a failing append still stops the readers
	errc := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			for i := r; ; i++ {
				select {
				case <-done:
					errc <- nil
					return
				default:
				}
				if _, err := other.Read(storage.PageID(i % 64)); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	live := make(map[RowID]int)
	var ids []RowID
	for i := 0; i < 3000; i++ {
		id, err := h.Append(rec(i))
		if err != nil {
			t.Fatal(err)
		}
		live[id] = i
		ids = append(ids, id)
		if i%3 == 2 {
			victim := ids[len(ids)/2]
			if ok, err := h.Delete(victim); err != nil || (ok != (live[victim] >= 0)) {
				t.Fatalf("Delete(%v): %v, %v", victim, ok, err)
			}
			live[victim] = -1
		}
	}
	stop()
	for range 2 {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	if err := h.Scan(func(id RowID, got []byte) bool {
		if i, ok := live[id]; !ok || i < 0 || !bytes.Equal(got, rec(i)) {
			t.Errorf("scan found %v = %q, want live=%v record %d", id, got, ok, i)
		}
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, i := range live {
		if i >= 0 {
			want++
		}
	}
	if seen != want || h.Count() != int64(want) {
		t.Fatalf("scan found %d records, count says %d, want %d", seen, h.Count(), want)
	}
}

// TestReader: a Reader returns what Get returns, across pages and back,
// reads a page from the pool once per run of Gets on it, reports a
// tombstone and a bad slot as Get does, and a new Reader sees a change
// Update made to a page an older one kept.
func TestReader(t *testing.T) {
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	p, err := storage.NewPager(fs.Create("h"), 256)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	var ids []RowID
	for i := 0; i < 60; i++ {
		id, err := h.Append(rec(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	last := ids[len(ids)-1].Page
	if last < 3 {
		t.Fatalf("records span pages 0..%d, want more", last)
	}
	r := h.View(nil, 1).Reader()
	reads := func() int64 { s := fs.PoolStats(); return s.Hits + s.Misses }
	before := reads()
	// The last page, the first, then every record in heap order.
	order := []int{len(ids) - 1, 0}
	for i := range ids {
		order = append(order, i)
	}
	for _, i := range order {
		got, ok, err := r.Get(ids[i])
		if err != nil || !ok || !bytes.Equal(got, rec(i)) {
			t.Fatalf("Reader.Get(%v): %q %v %v", ids[i], got, ok, err)
		}
	}
	if got, want := reads()-before, int64(last)+2; got != want {
		t.Errorf("the reader took %d pool reads, want one per run of Gets on a page (%d)", got, want)
	}

	victim := ids[len(ids)/2]
	if _, ok, err := r.Get(victim); err != nil || !ok {
		t.Fatalf("Reader.Get(%v) before the delete: %v %v", victim, ok, err)
	}
	if ok, err := h.Delete(victim); err != nil || !ok {
		t.Fatalf("Delete(%v): %v %v", victim, ok, err)
	}
	fresh := h.View(nil, 1).Reader()
	if got, ok, err := fresh.Get(victim); err != nil || ok || got != nil {
		t.Fatalf("a new Reader over the tombstone: %q %v %v, want ok=false", got, ok, err)
	}

	for _, bad := range []RowID{
		{Page: victim.Page, Slot: 200},
		{Page: last + 1, Slot: 0},
	} {
		_, _, want := h.View(nil, 1).Get(bad)
		if want == nil {
			t.Fatalf("View.Get(%v) succeeded", bad)
		}
		if _, _, err := fresh.Get(bad); err == nil || err.Error() != want.Error() {
			t.Errorf("Reader.Get(%v): error %v, want %v", bad, err, want)
		}
	}
}
