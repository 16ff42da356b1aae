package fracture

import (
	"math/rand"
	"testing"

	"upidb/internal/storage"
	"upidb/internal/upi"
)

// newMergeStore returns a store of a bulk-loaded main and three
// fractures, with deletes, on 8 KiB pages, and the snapshot a Merge of
// it would build from.
func newMergeStore(tb testing.TB) (*Store, mergeSnapshot, int64) {
	tb.Helper()
	opts := Config{UPI: upi.Options{Cutoff: 0.1, PageSize: storage.DefaultPageSize}}
	rng := rand.New(rand.NewSource(21))
	s, err := BulkLoad(newFS(), "t", "X", []string{"Y"}, opts, randomTuples(tb, rng, 1, 6000))
	if err != nil {
		tb.Fatal(err)
	}
	for f := 0; f < 3; f++ {
		for _, tup := range randomTuples(tb, rng, uint64(10000+f*1000), 500) {
			if err := s.Insert(tup); err != nil {
				tb.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			if err := s.Delete(uint64(1 + rng.Intn(6000))); err != nil {
				tb.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.mergeSnapshotLocked(0)
	var entries int64
	for _, part := range snap.parts {
		sec, _ := part.table.Secondary("Y")
		entries += part.table.Heap().Count() + part.table.CutoffIndex().Count() + sec.Count()
	}
	return s, snap, entries
}

// TestMergeByCursorAllocations: the entry-level merge allocates per
// page it writes or reads ahead, not per entry it moves.
func TestMergeByCursorAllocations(t *testing.T) {
	s, snap, entries := newMergeStore(t)
	var pages int64
	allocs := testing.AllocsPerRun(1, func() {
		m, err := s.mergeByCursor(snap)
		if err != nil {
			t.Fatal(err)
		}
		pages = m.SizeBytes() / storage.DefaultPageSize
	})
	t.Logf("%d entries, %d pages written, %.0f allocations", entries, pages, allocs)
	if entries < 20*pages {
		t.Fatalf("setup: %d entries on %d pages do not tell entries from pages", entries, pages)
	}
	if limit := 2*pages + 300; int64(allocs) > limit {
		t.Fatalf("merging %d entries into %d pages: %.0f allocations, want <= %d", entries, pages, allocs, limit)
	}
}

func BenchmarkKWayMerge(b *testing.B) {
	s, snap, entries := newMergeStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.mergeByCursor(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*entries), "ns/entry")
}
