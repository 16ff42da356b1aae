package rtree

// Search, SearchLeaves and Leaves read the decoded nodes the pager keeps
// beside their pages (nodeView); insert and split clone them
// (readNode). These tests hold the searches to the materialized
// traversal, to their allocation budget, to seeing every write, and to
// failing — not panicking — on a corrupt page.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"upidb/internal/prob"
	"upidb/internal/storage"
)

// refLeaves is the materializing traversal the scans replaced: every
// visited node built through readNode, matches grown by append.
// match == nil visits every leaf whole.
func refLeaves(t *testing.T, tr *Tree, id storage.PageID, match *prob.Rect, fn func(storage.PageID, []Entry)) {
	t.Helper()
	n, err := tr.readNode(id)
	if err != nil {
		t.Fatal(err)
	}
	if n.leaf {
		if match == nil {
			fn(n.id, n.entries)
			return
		}
		var matches []Entry
		for _, e := range n.entries {
			if e.MBR.Intersects(*match) {
				matches = append(matches, e)
			}
		}
		if len(matches) > 0 {
			fn(n.id, matches)
		}
		return
	}
	for _, e := range n.entries {
		if match == nil || e.MBR.Intersects(*match) {
			refLeaves(t, tr, e.Child, match, fn)
		}
	}
}

// grownTree bulk-loads a tenth of n entries on small pages, then
// inserts the rest so leaves and the root split.
func grownTree(t testing.TB, n int) (*Tree, *rand.Rand) {
	t.Helper()
	tr := newTestTree(t, 512) // fan-out 7
	rng := rand.New(rand.NewSource(19))
	es := randomEntries(rng, n, 1000)
	for i := range es {
		es[i].Aux = [AuxSize]float64{rng.Float64(), 2, 3, float64(i)}
	}
	if err := tr.BulkLoad(es[:n/10], nil); err != nil {
		t.Fatal(err)
	}
	bulkHeight := tr.Height()
	for _, e := range es[n/10:] {
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() <= bulkHeight || tr.Height() < 3 {
		t.Fatalf("height %d after bulk load, %d after inserts: the root never split", bulkHeight, tr.Height())
	}
	return tr, rng
}

// leafHit is one leaf a traversal visited and the entries it reported.
type leafHit struct {
	Leaf    storage.PageID
	Matches []Entry
}

func TestInPlaceScansMatchMaterializedTraversal(t *testing.T) {
	tr, rng := grownTree(t, 600)

	var want, got []leafHit
	refLeaves(t, tr, tr.root, nil, func(id storage.PageID, es []Entry) { want = append(want, leafHit{Leaf: id, Matches: es}) })
	if err := tr.Leaves(func(id storage.PageID, es []Entry) bool {
		got = append(got, leafHit{Leaf: id, Matches: es})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Leaves: %d leaves, materialized traversal %d, or their entries differ", len(got), len(want))
	}

	for i := 0; i < 200; i++ {
		query := rectAt(rng.Float64()*1000, rng.Float64()*1000, 5+rng.Float64()*120)
		want, got = nil, nil
		var wantFlat, gotFlat []Entry
		refLeaves(t, tr, tr.root, &query, func(id storage.PageID, es []Entry) {
			want = append(want, leafHit{Leaf: id, Matches: es})
			wantFlat = append(wantFlat, es...)
		})
		if err := tr.SearchLeaves(query, func(id storage.PageID, es []Entry) bool {
			// matches is valid only until the callback returns.
			got = append(got, leafHit{Leaf: id, Matches: slices.Clone(es)})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: SearchLeaves and the materialized traversal differ (%d vs %d leaves)", i, len(got), len(want))
		}
		if err := tr.Search(query, func(e Entry) bool {
			gotFlat = append(gotFlat, e)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotFlat, wantFlat) {
			t.Fatalf("query %d: Search returned %d entries, materialized traversal %d, or their order differs", i, len(gotFlat), len(wantFlat))
		}
	}
}

func TestSearchAllocations(t *testing.T) {
	tr, _ := grownTree(t, 600)
	query := rectAt(500, 500, 150)
	leaves, entries := 0, 0
	if err := tr.SearchLeaves(query, func(_ storage.PageID, es []Entry) bool {
		leaves++
		entries += len(es)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if leaves < 5 {
		t.Fatalf("query matches only %d leaves; the budget below would be vacuous", leaves)
	}
	n := 0
	count := func(Entry) bool { n++; return true }
	allocs := testing.AllocsPerRun(20, func() {
		if err := tr.Search(query, count); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Search over %d matching leaves (%d entries): %.0f allocations, want O(1)", leaves, entries, allocs)
	}
	visit := func(storage.PageID, []Entry) bool { return true }
	allocs = testing.AllocsPerRun(20, func() {
		if err := tr.SearchLeaves(query, visit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("SearchLeaves over %d matching leaves: %.0f allocations, want O(1)", leaves, allocs)
	}
}

// TestSearchSeesWriteAfterParse caches a leaf's decoded form with a
// search, then inserts into that leaf — first without a split, then
// with one — and requires the next Search and SearchLeaves to see every
// inserted entry: a write must drop the decoded node with the page.
func TestSearchSeesWriteAfterParse(t *testing.T) {
	tr := newTestTree(t, 512) // fan-out 7
	rng := rand.New(rand.NewSource(23))
	es := randomEntries(rng, 60, 1000)
	if err := tr.BulkLoad(es, nil); err != nil {
		t.Fatal(err)
	}
	// The fullest leaf, and a point inside its first entry.
	var leaf storage.PageID
	var target Entry
	fullest := 0
	if err := tr.Leaves(func(id storage.PageID, es []Entry) bool {
		if len(es) > fullest {
			leaf, target, fullest = id, es[0], len(es)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fullest >= tr.MaxEntries() {
		t.Fatalf("fullest leaf holds %d of %d entries: no room for an insert without a split", fullest, tr.MaxEntries())
	}
	c := target.MBR.Center()
	query := rectAt(c.X, c.Y, 0.5)
	nextID := uint64(len(es) + 1)
	var inserted []uint64
	check := func(stage string) {
		t.Helper()
		found := make(map[uint64]int)
		if err := tr.Search(query, func(e Entry) bool { found[e.Data]++; return true }); err != nil {
			t.Fatal(err)
		}
		leafFound := make(map[uint64]int)
		if err := tr.SearchLeaves(query, func(_ storage.PageID, ms []Entry) bool {
			for _, e := range ms {
				leafFound[e.Data]++
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, id := range append([]uint64{target.Data}, inserted...) {
			if found[id] != 1 || leafFound[id] != 1 {
				t.Fatalf("%s: entry %d seen %d times by Search, %d by SearchLeaves; want once each", stage, id, found[id], leafFound[id])
			}
		}
	}
	check("before any insert") // caches the decoded leaf
	insert := func() {
		t.Helper()
		e := Entry{MBR: rectAt(c.X, c.Y, 0.25), Data: nextID}
		nextID++
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, e.Data)
	}
	leafHolds := func(id uint64) (holds bool, n int) {
		t.Helper()
		node, err := tr.readNode(leaf)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range node.entries {
			holds = holds || e.Data == id
		}
		return holds, len(node.entries)
	}
	pages := tr.pager.NumPages()
	insert()
	if tr.pager.NumPages() != pages {
		t.Fatalf("the first insert allocated %d pages; the leaf had room", tr.pager.NumPages()-pages)
	}
	if holds, _ := leafHolds(inserted[0]); !holds {
		t.Fatalf("entry %d did not go into the cached leaf %d", inserted[0], leaf)
	}
	check("after an insert into the cached leaf")
	for tr.pager.NumPages() == pages {
		insert()
	}
	if _, n := leafHolds(0); n > fullest+len(inserted)-1 {
		t.Fatalf("leaf %d holds %d entries after the split; it did not split", leaf, n)
	}
	check("after the insert that split the leaf")
}

// TestCorruptNodePageFails overwrites the entry count (then the type
// byte) of a flushed leaf page and requires every traversal, in place
// or materializing, to report the page instead of indexing past it.
func TestCorruptNodePageFails(t *testing.T) {
	tr, _ := grownTree(t, 200)
	if err := tr.pager.Flush(); err != nil {
		t.Fatal(err)
	}
	var leaf storage.PageID
	if err := tr.Leaves(func(id storage.PageID, _ []Entry) bool { leaf = id; return false }); err != nil {
		t.Fatal(err)
	}
	everything := prob.Rect{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}
	traversals := map[string]func() error{
		"Search":       func() error { return tr.Search(everything, func(Entry) bool { return true }) },
		"SearchLeaves": func() error { return tr.SearchLeaves(everything, func(storage.PageID, []Entry) bool { return true }) },
		"Leaves":       func() error { return tr.Leaves(func(storage.PageID, []Entry) bool { return true }) },
		"readNode":     func() error { _, err := tr.readNode(leaf); return err },
	}
	cached, err := tr.pager.Read(leaf)
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Clone(cached) // Write overwrites the cached page in place
	for _, c := range []struct {
		what    string
		corrupt func(page []byte)
		want    string
	}{
		{"count past the page", func(b []byte) { binary.BigEndian.PutUint16(b[1:], 0xFFFF) }, "claims 65535 entries, max 7"},
		{"count one past the fan-out", func(b []byte) { binary.BigEndian.PutUint16(b[1:], 8) }, "claims 8 entries, max 7"},
		{"unknown node type", func(b []byte) { b[0] = 9 }, "bad node type 9"},
	} {
		bad := bytes.Clone(page)
		c.corrupt(bad)
		if err := tr.pager.Write(leaf, bad); err != nil {
			t.Fatal(err)
		}
		for name, run := range traversals {
			err := run()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s, %s: error %v, want one naming page %d with %q", c.what, name, err, leaf, c.want)
			}
		}
		if err := tr.pager.Write(leaf, page); err != nil {
			t.Fatal(err)
		}
	}
	for name, run := range traversals {
		if err := run(); err != nil {
			t.Errorf("%s on the restored page: %v", name, err)
		}
	}
}

func BenchmarkRTreeSearch(b *testing.B) {
	tr, _ := grownTree(b, 4000)
	query := rectAt(500, 500, 60)
	n := 0
	count := func(Entry) bool { n++; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Search(query, count); err != nil {
			b.Fatal(err)
		}
	}
}
