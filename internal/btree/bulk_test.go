package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"upidb/internal/sim"
	"upidb/internal/storage"
)

type entry struct{ key, val []byte }

// buildCase bulk-loads entries into a fresh pager of the given page
// size and cache limit.
func buildCase(t testing.TB, pageSize, cachePages int, entries []entry) (*storage.Pager, *Tree) {
	t.Helper()
	p, err := storage.NewPager(storage.NewFS(sim.NewDisk(sim.DefaultParams())).Create("t"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Pool().SetCapacity(int64(cachePages * pageSize)); err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := b.Add(e.key, e.val); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p, tr
}

// sizedEntry returns entry i with a leaf footprint of exactly size
// bytes (size >= 4+11).
func sizedEntry(i, size int) entry {
	key := k(i)
	return entry{key, bytes.Repeat([]byte{byte(i)}, size-leafEntrySize(key, nil))}
}

// TestBuilderLeavesEqualSerializedNodes: every leaf the builder writes
// in place is byte for byte the page node.serialize makes of its parsed
// content, the leaf chain holds exactly the input entries in order, and
// the meta page, Count and Leaves describe the tree that was built.
func TestBuilderLeavesEqualSerializedNodes(t *testing.T) {
	pageSize := 512
	limit := int(float64(pageSize) * bulkFill)
	maxEntry := pageSize - leafHeader
	exact := (limit - leafHeader) / 3 // three of these fill a leaf to the limit exactly
	rng := rand.New(rand.NewSource(3))
	random := func(n int) []entry {
		seen := make(map[string]bool)
		var out []entry
		for len(out) < n {
			key := make([]byte, 1+rng.Intn(40))
			rng.Read(key)
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			val := make([]byte, rng.Intn(200))
			rng.Read(val)
			out = append(out, entry{key, val})
		}
		slices.SortFunc(out, func(a, b entry) int { return bytes.Compare(a.key, b.key) })
		return out
	}
	var mixed []entry
	for i := 0; i < 300; i++ {
		switch rng.Intn(4) {
		case 0:
			mixed = append(mixed, sizedEntry(i, maxEntry))
		case 1:
			mixed = append(mixed, sizedEntry(i, exact))
		default:
			mixed = append(mixed, sizedEntry(i, 15+rng.Intn(120)))
		}
	}
	cases := []struct {
		name    string
		entries []entry
		// exactLeaves and fullPages count the leaves whose entries end
		// exactly at the fill limit and at the page end.
		exactLeaves, fullPages bool
	}{
		{name: "empty"},
		{name: "single", entries: []entry{{[]byte("only"), []byte("one")}}},
		{name: "empty-key-and-value", entries: []entry{{[]byte{}, nil}, {[]byte{0}, nil}}},
		{name: "random", entries: random(3000)},
		{name: "max-size", entries: []entry{sizedEntry(0, maxEntry), sizedEntry(1, maxEntry), sizedEntry(2, maxEntry)}, fullPages: true},
		{name: "exact-fit", entries: func() (out []entry) {
			for i := 0; i < 30; i++ {
				out = append(out, sizedEntry(i, exact))
			}
			return out
		}(), exactLeaves: true},
		{name: "mixed", entries: mixed, fullPages: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, cachePages := range []int{1, 3, storage.DefaultCachePages} {
				p, tr := buildCase(t, pageSize, cachePages, tc.entries)
				if err := p.DropCache(); err != nil { // every page now comes from the file
					t.Fatal(err)
				}
				reopened, err := Open(p)
				if err != nil {
					t.Fatal(err)
				}
				// Every field the meta page stores (a Tree's value check
				// makes the struct incomparable, and neither has one).
				type meta struct {
					pager         *storage.Pager
					root          storage.PageID
					height        int
					count, leaves int64
				}
				read, built := meta{reopened.pager, reopened.root, reopened.height, reopened.count, reopened.leaves},
					meta{tr.pager, tr.root, tr.height, tr.count, tr.leaves}
				if read != built || reopened.check != nil || tr.check != nil {
					t.Fatalf("meta page %+v, built tree %+v", read, built)
				}
				if tr.Count() != int64(len(tc.entries)) {
					t.Fatalf("Count %d, added %d", tr.Count(), len(tc.entries))
				}
				// Descend to the first leaf, then walk the chain.
				id := tr.root
				for h := 1; h < tr.Height(); h++ {
					pg, err := tr.View(nil, 1).readPage(id)
					if err != nil || pg.leaf {
						t.Fatalf("level %d: %v leaf=%v", h, err, pg.leaf)
					}
					id = pg.child(0)
				}
				var got []entry
				var leaves int64
				sawExact, sawFull := false, false
				for id != storage.InvalidPage {
					raw, err := p.Read(id)
					if err != nil {
						t.Fatal(err)
					}
					pg, err := parsePage(id, raw)
					if err != nil || !pg.leaf {
						t.Fatalf("leaf %d: %v leaf=%v", id, err, pg.leaf)
					}
					n := pg.node()
					want, err := n.serialize(pageSize)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(raw, want) {
						t.Fatalf("leaf %d differs from node.serialize of its content", id)
					}
					sawExact = sawExact || n.size() == limit
					sawFull = sawFull || n.size() == pageSize
					for i := range n.keys {
						got = append(got, entry{n.keys[i], n.vals[i]})
					}
					leaves++
					id = pg.next
				}
				if leaves != tr.Leaves() {
					t.Fatalf("chain has %d leaves, Leaves() = %d", leaves, tr.Leaves())
				}
				if !slices.EqualFunc(got, tc.entries, func(a, b entry) bool {
					return bytes.Equal(a.key, b.key) && bytes.Equal(a.val, b.val)
				}) {
					t.Fatalf("leaf chain holds %d entries, not the %d added", len(got), len(tc.entries))
				}
				if tc.exactLeaves && !sawExact || tc.fullPages && !sawFull {
					t.Fatalf("no leaf filled exactly: at limit %v, full page %v", sawExact, sawFull)
				}
				for _, e := range tc.entries {
					if v, ok, err := tr.Get(e.key); err != nil || !ok || !bytes.Equal(v, e.val) {
						t.Fatalf("Get(%x): %v %v", e.key, ok, err)
					}
				}
			}
		})
	}
}

// TestBuilderAddAllocations: an added entry is copied into its leaf
// page and allocates nothing; a new leaf costs its page from the pool.
func TestBuilderAddAllocations(t *testing.T) {
	keys := make([][]byte, 20000)
	for i := range keys {
		keys[i] = k(i)
	}
	val := []byte("a value of a few dozen bytes, like a short tuple")
	p, err := storage.NewPager(storage.NewFS(sim.NewDisk(sim.DefaultParams())).Create("t"), storage.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(keys)-1, func() {
		if err := b.Add(keys[i], val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Builder.Add: %v allocations per entry, want 0 (amortized over %d leaves)", allocs, b.leaves)
	}
}

func BenchmarkTreeGet(b *testing.B) {
	const n = 20000
	keys := make([][]byte, n)
	entries := make([]entry, n)
	for i := range entries {
		keys[i] = k(i)
		entries[i] = entry{keys[i], v(i)}
	}
	_, tr := buildCase(b, storage.DefaultPageSize, storage.DefaultCachePages, entries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := tr.Get(keys[(i*7919)%n]); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}

// BenchmarkCursorScan is a warm full scan: the leaf-chain walk of
// Scan over a tree whose pages all stay in the pool.
func BenchmarkCursorScan(b *testing.B) {
	const n = 20000
	entries := make([]entry, n)
	for i := range entries {
		entries[i] = entry{k(i), v(i)}
	}
	_, tr := buildCase(b, storage.DefaultPageSize, storage.DefaultCachePages, entries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen := 0
		if err := tr.Scan(nil, nil, func(_, _ []byte) bool { seen++; return true }); err != nil || seen != n {
			b.Fatal(seen, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
}

func BenchmarkBulkBuild(b *testing.B) {
	const n = 20000
	entries := make([]entry, n)
	for i := range entries {
		entries[i] = entry{k(i), []byte(fmt.Sprintf("value-%d-of-some-tuple-bytes", i))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := buildCase(b, storage.DefaultPageSize, storage.DefaultCachePages, entries)
		if err := p.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
}
