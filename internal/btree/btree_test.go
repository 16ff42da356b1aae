package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"upidb/internal/sim"
	"upidb/internal/storage"
)

func newTestTree(t *testing.T, pageSize int) *Tree {
	t.Helper()
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	p, err := storage.NewPager(fs.Create("t"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func k(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }
func v(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func TestEmptyTree(t *testing.T) {
	tr := newTestTree(t, 256)
	if tr.Count() != 0 || tr.Height() != 1 || tr.Leaves() != 1 {
		t.Fatalf("empty tree: count=%d h=%d leaves=%d", tr.Count(), tr.Height(), tr.Leaves())
	}
	if _, ok, err := tr.Get([]byte("x")); err != nil || ok {
		t.Fatalf("get on empty: %v %v", ok, err)
	}
	c := tr.NewCursor().First()
	if c.Valid() {
		t.Fatal("cursor valid on empty tree")
	}
	if del, err := tr.Delete([]byte("x")); err != nil || del {
		t.Fatalf("delete on empty: %v %v", del, err)
	}
}

func TestPutGetSmall(t *testing.T) {
	tr := newTestTree(t, 256)
	for i := 0; i < 10; i++ {
		if ins, err := tr.Put(k(i), v(i)); err != nil || !ins {
			t.Fatalf("put %d: ins=%v err=%v", i, ins, err)
		}
	}
	for i := 0; i < 10; i++ {
		got, ok, err := tr.Get(k(i))
		if err != nil || !ok || !bytes.Equal(got, v(i)) {
			t.Fatalf("get %d: %q %v %v", i, got, ok, err)
		}
	}
	if tr.Count() != 10 {
		t.Fatalf("count = %d", tr.Count())
	}
}

func TestPutOverwrite(t *testing.T) {
	tr := newTestTree(t, 256)
	tr.Put([]byte("a"), []byte("1"))
	ins, err := tr.Put([]byte("a"), []byte("2"))
	if err != nil || ins {
		t.Fatalf("overwrite reported as insert: %v %v", ins, err)
	}
	got, _, _ := tr.Get([]byte("a"))
	if string(got) != "2" {
		t.Fatalf("got %q", got)
	}
	if tr.Count() != 1 {
		t.Fatalf("count = %d", tr.Count())
	}
}

func TestSplitsAndHeightGrowth(t *testing.T) {
	tr := newTestTree(t, 256) // tiny pages force deep trees
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := tr.Put(k(i), v(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("expected height >= 3 with 256B pages, got %d", tr.Height())
	}
	if tr.Count() != n {
		t.Fatalf("count = %d", tr.Count())
	}
	for i := 0; i < n; i++ {
		got, ok, err := tr.Get(k(i))
		if err != nil || !ok || !bytes.Equal(got, v(i)) {
			t.Fatalf("get %d after splits: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestRandomOrderInsert(t *testing.T) {
	tr := newTestTree(t, 256)
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(3000)
	for _, i := range perm {
		if _, err := tr.Put(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Full scan must be in sorted order with all entries present.
	i := 0
	err := tr.Scan(nil, nil, func(key, val []byte) bool {
		if !bytes.Equal(key, k(i)) {
			t.Fatalf("scan position %d: got %q want %q", i, key, k(i))
		}
		i++
		return true
	})
	if err != nil || i != 3000 {
		t.Fatalf("scan: %v, visited %d", err, i)
	}
}

func TestDeleteWithRebalancing(t *testing.T) {
	tr := newTestTree(t, 256)
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Put(k(i), v(i))
	}
	rng := rand.New(rand.NewSource(11))
	perm := rng.Perm(n)
	// Delete 90% in random order.
	for _, i := range perm[:n*9/10] {
		del, err := tr.Delete(k(i))
		if err != nil || !del {
			t.Fatalf("delete %d: %v %v", i, del, err)
		}
	}
	if tr.Count() != n/10 {
		t.Fatalf("count = %d, want %d", tr.Count(), n/10)
	}
	// Remaining keys still retrievable, deleted ones gone.
	deleted := make(map[int]bool)
	for _, i := range perm[:n*9/10] {
		deleted[i] = true
	}
	for i := 0; i < n; i++ {
		_, ok, err := tr.Get(k(i))
		if err != nil {
			t.Fatal(err)
		}
		if ok == deleted[i] {
			t.Fatalf("key %d: ok=%v deleted=%v", i, ok, deleted[i])
		}
	}
	// Scan order still correct.
	var prev []byte
	count := 0
	tr.Scan(nil, nil, func(key, _ []byte) bool {
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			t.Fatal("scan out of order after deletes")
		}
		prev = append(prev[:0], key...)
		count++
		return true
	})
	if count != n/10 {
		t.Fatalf("scan count = %d", count)
	}
}

func TestDeleteAll(t *testing.T) {
	tr := newTestTree(t, 256)
	const n = 500
	for i := 0; i < n; i++ {
		tr.Put(k(i), v(i))
	}
	for i := 0; i < n; i++ {
		if del, err := tr.Delete(k(i)); err != nil || !del {
			t.Fatalf("delete %d: %v %v", i, del, err)
		}
	}
	if tr.Count() != 0 {
		t.Fatalf("count = %d", tr.Count())
	}
	if tr.Height() != 1 {
		t.Fatalf("height = %d after deleting all", tr.Height())
	}
	if c := tr.NewCursor().First(); c.Valid() {
		t.Fatal("cursor valid after deleting everything")
	}
}

func TestCursorSeek(t *testing.T) {
	tr := newTestTree(t, 256)
	for i := 0; i < 100; i += 2 { // even keys only
		tr.Put(k(i), v(i))
	}
	c := tr.NewCursor().Seek(k(10))
	if !c.Valid() || !bytes.Equal(c.Key(), k(10)) {
		t.Fatalf("seek exact: %q", c.Key())
	}
	c.Seek(k(11)) // absent; lands on 12
	if !c.Valid() || !bytes.Equal(c.Key(), k(12)) {
		t.Fatalf("seek between: %q", c.Key())
	}
	c.Seek([]byte("zzz"))
	if c.Valid() {
		t.Fatal("seek past end should be invalid")
	}
	c.Seek([]byte(""))
	if !c.Valid() || !bytes.Equal(c.Key(), k(0)) {
		t.Fatal("seek to empty key should land on first")
	}
}

func TestScanRange(t *testing.T) {
	tr := newTestTree(t, 256)
	for i := 0; i < 100; i++ {
		tr.Put(k(i), v(i))
	}
	var got []string
	tr.Scan(k(10), k(20), func(key, _ []byte) bool {
		got = append(got, string(key))
		return true
	})
	if len(got) != 10 || got[0] != string(k(10)) || got[9] != string(k(19)) {
		t.Fatalf("range scan got %d entries: %v", len(got), got)
	}
	// Early stop.
	n := 0
	tr.Scan(nil, nil, func(_, _ []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestOpenPersistedTree(t *testing.T) {
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	p, _ := storage.NewPager(fs.Create("t"), 256)
	tr, _ := Create(p)
	for i := 0; i < 300; i++ {
		tr.Put(k(i), v(i))
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	f2, _ := fs.Open("t")
	p2, _ := storage.NewPager(f2, 256)
	tr2, err := Open(p2)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Count() != 300 || tr2.Height() != tr.Height() {
		t.Fatalf("reopened: count=%d h=%d", tr2.Count(), tr2.Height())
	}
	for i := 0; i < 300; i++ {
		got, ok, err := tr2.Get(k(i))
		if err != nil || !ok || !bytes.Equal(got, v(i)) {
			t.Fatalf("reopened get %d: %v %v", i, ok, err)
		}
	}
	// Open of a non-btree file must fail.
	g := fs.Create("junk")
	g.WriteAt(make([]byte, 256), 0)
	pj, _ := storage.NewPager(g, 256)
	if _, err := Open(pj); err == nil {
		t.Fatal("open of junk should fail")
	}
}

func TestEntryTooLarge(t *testing.T) {
	tr := newTestTree(t, 256)
	if _, err := tr.Put(make([]byte, 300), []byte("v")); err == nil {
		t.Fatal("oversized entry accepted")
	}
}

func TestBulkLoad(t *testing.T) {
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	p, _ := storage.NewPager(fs.Create("t"), 256)
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if err := b.Add(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != n {
		t.Fatalf("count = %d", tr.Count())
	}
	for _, i := range []int{0, 1, n / 2, n - 2, n - 1} {
		got, ok, err := tr.Get(k(i))
		if err != nil || !ok || !bytes.Equal(got, v(i)) {
			t.Fatalf("bulk get %d: %v %v", i, ok, err)
		}
	}
	i := 0
	tr.Scan(nil, nil, func(key, _ []byte) bool {
		if !bytes.Equal(key, k(i)) {
			t.Fatalf("bulk scan position %d: %q", i, key)
		}
		i++
		return true
	})
	if i != n {
		t.Fatalf("bulk scan visited %d", i)
	}
	// Tree must accept further inserts after bulk load.
	if _, err := tr.Put([]byte("zzzz"), []byte("after")); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := tr.Get([]byte("zzzz"))
	if !ok || string(got) != "after" {
		t.Fatal("insert after bulk load lost")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	p, _ := storage.NewPager(fs.Create("t"), 256)
	b, _ := NewBuilder(p)
	tr, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 0 || tr.NewCursor().First().Valid() {
		t.Fatal("empty bulk load not empty")
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	p, _ := storage.NewPager(fs.Create("t"), 256)
	b, _ := NewBuilder(p)
	b.Add([]byte("b"), nil)
	if err := b.Add([]byte("a"), nil); err == nil {
		t.Fatal("descending key accepted")
	}
	if err := b.Add([]byte("b"), nil); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestBulkLoadIsSequentialOnDisk(t *testing.T) {
	disk := sim.NewDisk(sim.DefaultParams())
	fs := storage.NewFS(disk)
	p, _ := storage.NewPager(fs.Create("t"), 256)
	p.Pool().SetCapacity(4 * 256) // force continuous eviction during the build
	b, _ := NewBuilder(p)
	for i := 0; i < 5000; i++ {
		if err := b.Add(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := disk.Stats()
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	d := disk.Stats().Sub(before)
	total := disk.Stats()
	// A bulk load must be overwhelmingly sequential writes.
	if total.Seeks > total.SequentialIO/10+5 {
		t.Fatalf("bulk load too seeky: %+v (finish delta %+v)", total, d)
	}
}

// TestAgainstReferenceModel drives random Put/Delete/Get against a map
// and checks full equivalence, including scan order.
func TestAgainstReferenceModel(t *testing.T) {
	tr := newTestTree(t, 512)
	ref := make(map[string]string)
	rng := rand.New(rand.NewSource(42))
	const ops = 20000
	for op := 0; op < ops; op++ {
		key := fmt.Sprintf("k%04d", rng.Intn(2000))
		switch rng.Intn(3) {
		case 0: // put
			val := fmt.Sprintf("v%d", rng.Intn(1000000))
			ins, err := tr.Put([]byte(key), []byte(val))
			if err != nil {
				t.Fatal(err)
			}
			_, existed := ref[key]
			if ins == existed {
				t.Fatalf("op %d: insert=%v but existed=%v", op, ins, existed)
			}
			ref[key] = val
		case 1: // delete
			del, err := tr.Delete([]byte(key))
			if err != nil {
				t.Fatal(err)
			}
			_, existed := ref[key]
			if del != existed {
				t.Fatalf("op %d: deleted=%v but existed=%v", op, del, existed)
			}
			delete(ref, key)
		case 2: // get
			got, ok, err := tr.Get([]byte(key))
			if err != nil {
				t.Fatal(err)
			}
			want, existed := ref[key]
			if ok != existed || (ok && string(got) != want) {
				t.Fatalf("op %d: get %q = %q,%v want %q,%v", op, key, got, ok, want, existed)
			}
		}
	}
	if tr.Count() != int64(len(ref)) {
		t.Fatalf("count = %d, ref has %d", tr.Count(), len(ref))
	}
	// Verify scan equals sorted reference.
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	err := tr.Scan(nil, nil, func(key, val []byte) bool {
		if string(key) != keys[i] || string(val) != ref[keys[i]] {
			t.Fatalf("scan %d: got %q=%q want %q=%q", i, key, val, keys[i], ref[keys[i]])
		}
		i++
		return true
	})
	if err != nil || i != len(keys) {
		t.Fatalf("scan: err=%v visited=%d want=%d", err, i, len(keys))
	}
}

// TestFragmentationObservable checks the physical property Figure 9
// depends on: a freshly bulk-loaded tree scans with fewer seeks than
// the same tree after heavy random insertion.
func TestFragmentationObservable(t *testing.T) {
	build := func(randomInserts bool) int64 {
		disk := sim.NewDisk(sim.DefaultParams())
		fs := storage.NewFS(disk)
		p, _ := storage.NewPager(fs.Create("t"), 256)
		p.Pool().SetCapacity(8 * 256)
		var tr *Tree
		if randomInserts {
			tr, _ = Create(p)
			rng := rand.New(rand.NewSource(3))
			for _, i := range rng.Perm(4000) {
				tr.Put(k(i), v(i))
			}
		} else {
			b, _ := NewBuilder(p)
			for i := 0; i < 4000; i++ {
				b.Add(k(i), v(i))
			}
			tr, _ = b.Finish()
		}
		p.DropCache()
		before := disk.Stats()
		n := 0
		tr.Scan(nil, nil, func(_, _ []byte) bool { n++; return true })
		if n != 4000 {
			t.Fatalf("scan visited %d", n)
		}
		return disk.Stats().Sub(before).Seeks
	}
	seqSeeks := build(false)
	fragSeeks := build(true)
	if fragSeeks < seqSeeks*2 {
		t.Fatalf("fragmentation not observable: bulk=%d random=%d seeks", seqSeeks, fragSeeks)
	}
}
