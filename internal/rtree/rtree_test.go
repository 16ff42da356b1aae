package rtree

import (
	"errors"
	"math/rand"
	"testing"

	"upidb/internal/prob"
	"upidb/internal/sim"
	"upidb/internal/storage"
)

func newTestTree(t testing.TB, pageSize int) *Tree {
	t.Helper()
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	p, err := storage.NewPager(fs.Create("r"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func rectAt(x, y, half float64) prob.Rect {
	return prob.Rect{MinX: x - half, MinY: y - half, MaxX: x + half, MaxY: y + half}
}

// randomEntries returns n entries with centers in [0, extent)².
func randomEntries(rng *rand.Rand, n int, extent float64) []Entry {
	es := make([]Entry, n)
	for i := range es {
		x := rng.Float64() * extent
		y := rng.Float64() * extent
		es[i] = Entry{MBR: rectAt(x, y, 1+rng.Float64()*3), Data: uint64(i + 1)}
	}
	return es
}

// bruteMatches returns the IDs of entries intersecting q.
func bruteMatches(es []Entry, q prob.Rect) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, e := range es {
		if e.MBR.Intersects(q) {
			out[e.Data] = true
		}
	}
	return out
}

func checkSearch(t *testing.T, tr *Tree, es []Entry, queries int, rng *rand.Rand, extent float64) {
	t.Helper()
	for q := 0; q < queries; q++ {
		query := rectAt(rng.Float64()*extent, rng.Float64()*extent, 5+rng.Float64()*40)
		want := bruteMatches(es, query)
		got := make(map[uint64]bool)
		err := tr.Search(query, func(e Entry) bool {
			got[e.Data] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d matches, want %d", q, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("query %d: missing id %d", q, id)
			}
		}
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr := newTestTree(t, 4096)
	es := []Entry{
		{MBR: rectAt(10, 10, 2), Data: 1},
		{MBR: rectAt(50, 50, 2), Data: 2},
		{MBR: rectAt(90, 10, 2), Data: 3},
	}
	for _, e := range es {
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Count() != 3 {
		t.Fatalf("count = %d", tr.Count())
	}
	got := 0
	tr.Search(rectAt(10, 10, 5), func(e Entry) bool {
		if e.Data != 1 {
			t.Fatalf("wrong match %d", e.Data)
		}
		got++
		return true
	})
	if got != 1 {
		t.Fatalf("matches = %d", got)
	}
	// Disjoint query.
	tr.Search(rectAt(200, 200, 5), func(Entry) bool {
		t.Fatal("unexpected match")
		return false
	})
}

func TestInsertManyWithSplits(t *testing.T) {
	tr := newTestTree(t, 512) // small pages force splits
	rng := rand.New(rand.NewSource(3))
	es := randomEntries(rng, 2000, 1000)
	for _, e := range es {
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("expected splits, height = %d", tr.Height())
	}
	checkSearch(t, tr, es, 40, rng, 1000)
}

func TestBulkLoadMatchesBrute(t *testing.T) {
	tr := newTestTree(t, 512)
	rng := rand.New(rand.NewSource(5))
	es := randomEntries(rng, 3000, 1000)
	if err := tr.BulkLoad(es, nil); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 3000 {
		t.Fatalf("count = %d", tr.Count())
	}
	checkSearch(t, tr, es, 40, rng, 1000)
}

func TestBulkLoadThenInsert(t *testing.T) {
	tr := newTestTree(t, 512)
	rng := rand.New(rand.NewSource(7))
	es := randomEntries(rng, 500, 500)
	if err := tr.BulkLoad(es, nil); err != nil {
		t.Fatal(err)
	}
	extra := randomEntries(rng, 300, 500)
	for i := range extra {
		extra[i].Data = uint64(10000 + i)
		if err := tr.Insert(extra[i]); err != nil {
			t.Fatal(err)
		}
	}
	all := append(append([]Entry(nil), es...), extra...)
	checkSearch(t, tr, all, 30, rng, 500)
}

func TestSearchEarlyStop(t *testing.T) {
	tr := newTestTree(t, 512)
	rng := rand.New(rand.NewSource(9))
	es := randomEntries(rng, 500, 100)
	tr.BulkLoad(es, nil)
	n := 0
	tr.Search(prob.Rect{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}, func(Entry) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestLeavesDFSCoversAll(t *testing.T) {
	tr := newTestTree(t, 512)
	rng := rand.New(rand.NewSource(11))
	es := randomEntries(rng, 1500, 800)
	tr.BulkLoad(es, nil)
	seen := make(map[uint64]bool)
	leafCount := 0
	err := tr.Leaves(func(id storage.PageID, entries []Entry) bool {
		leafCount++
		if len(entries) == 0 {
			t.Fatal("empty leaf")
		}
		for _, e := range entries {
			if seen[e.Data] {
				t.Fatalf("duplicate data %d", e.Data)
			}
			seen[e.Data] = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1500 {
		t.Fatalf("leaves covered %d entries", len(seen))
	}
	if leafCount < 10 {
		t.Fatalf("suspiciously few leaves: %d", leafCount)
	}
}

// TestBulkLoadLeafOrderIsPhysicalOrder: DFS leaf order must equal
// increasing page order after an STR bulk load — the invariant the
// continuous UPI heap clustering depends on.
func TestBulkLoadLeafOrderIsPhysicalOrder(t *testing.T) {
	tr := newTestTree(t, 512)
	rng := rand.New(rand.NewSource(13))
	tr.BulkLoad(randomEntries(rng, 2000, 1000), nil)
	var prev storage.PageID
	first := true
	tr.Leaves(func(id storage.PageID, _ []Entry) bool {
		if !first && id <= prev {
			t.Fatalf("leaf pages out of order: %d then %d", prev, id)
		}
		prev, first = id, false
		return true
	})
}

// TestBulkLoadPlacesEachLeafInLeafOrder: BulkLoad hands place every
// entry once, a leaf at a time in DFS leaf order, and the written
// leaves hold the Data place rewrote: numbering the entries as they are
// placed numbers them in leaf order.
func TestBulkLoadPlacesEachLeafInLeafOrder(t *testing.T) {
	tr := newTestTree(t, 512)
	es := randomEntries(rand.New(rand.NewSource(17)), 2000, 1000)
	placed := make(map[uint64]bool) // the entries' Data as given
	if err := tr.BulkLoad(es, func(leaf []Entry) error {
		for i := range leaf {
			placed[leaf[i].Data] = true
			leaf[i].Data = uint64(len(placed))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(placed) != len(es) {
		t.Fatalf("placed %d distinct entries of %d", len(placed), len(es))
	}
	want := uint64(1)
	if err := tr.Leaves(func(_ storage.PageID, entries []Entry) bool {
		for _, e := range entries {
			if e.Data != want {
				t.Fatalf("entry holds Data %d, want %d", e.Data, want)
			}
			want++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}

	failed := errors.New("place failed")
	if err := newTestTree(t, 512).BulkLoad(es, func([]Entry) error { return failed }); !errors.Is(err, failed) {
		t.Fatalf("BulkLoad with a failing place: %v", err)
	}
}

// TestBulkLoadClustering: neighbors in space should mostly share or
// neighbor leaves, measured by average leaf MBR area versus the whole
// extent.
func TestBulkLoadClustering(t *testing.T) {
	tr := newTestTree(t, 512)
	rng := rand.New(rand.NewSource(15))
	es := randomEntries(rng, 4000, 1000)
	tr.BulkLoad(es, nil)
	var totalArea float64
	leaves := 0
	tr.Leaves(func(_ storage.PageID, entries []Entry) bool {
		r := entries[0].MBR
		for _, e := range entries[1:] {
			r = r.Union(e.MBR)
		}
		totalArea += r.Area()
		leaves++
		return true
	})
	avg := totalArea / float64(leaves)
	if avg > 1000*1000/8 {
		t.Fatalf("leaves badly clustered: avg MBR area %v", avg)
	}
}

func TestAuxRoundTrip(t *testing.T) {
	tr := newTestTree(t, 4096)
	e := Entry{MBR: rectAt(5, 5, 1), Data: 42, Aux: [AuxSize]float64{1.5, 2.5, 3.5, 4.5}}
	if err := tr.Insert(e); err != nil {
		t.Fatal(err)
	}
	found := false
	tr.Search(rectAt(5, 5, 2), func(got Entry) bool {
		found = true
		if got.Aux != e.Aux || got.Data != 42 {
			t.Fatalf("aux lost: %+v", got)
		}
		return true
	})
	if !found {
		t.Fatal("entry not found")
	}
}

func TestOpenPersisted(t *testing.T) {
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	p, _ := storage.NewPager(fs.Create("r"), 512)
	tr, _ := Create(p)
	rng := rand.New(rand.NewSource(17))
	es := randomEntries(rng, 400, 300)
	tr.BulkLoad(es, nil)
	p.Flush()

	f, _ := fs.Open("r")
	p2, _ := storage.NewPager(f, 512)
	tr2, err := Open(p2)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Count() != 400 || tr2.Height() != tr.Height() {
		t.Fatalf("reopened: count=%d height=%d", tr2.Count(), tr2.Height())
	}
	checkSearch(t, tr2, es, 20, rng, 300)

	junk := fs.Create("junk")
	junk.WriteAt(make([]byte, 512), 0)
	pj, _ := storage.NewPager(junk, 512)
	if _, err := Open(pj); err == nil {
		t.Fatal("junk accepted")
	}
}
