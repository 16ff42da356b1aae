package fracture

import (
	"math/rand"
	"testing"

	"upidb/internal/upi"
)

// checkPools fails unless every file of every partition of s has a
// buffer pool of wantBytes.
func checkPools(t *testing.T, step string, s *Store, wantBytes int) {
	t.Helper()
	for _, part := range s.Partitions() {
		for _, tr := range part.Trees() {
			p := tr.Pager()
			if got := p.CacheLimit() * p.PageSize(); got != wantBytes {
				t.Fatalf("%s: %s has a pool of %d pages x %d B, want %d B",
					step, p.File().Name(), p.CacheLimit(), p.PageSize(), wantBytes)
			}
		}
	}
}

// TestPoolSizeReachesEveryPartition: the pool size a store is
// configured with reaches every file of every partition, whichever
// path built it — bulk load, flush, partial merge, full merge by cursor
// and by rebuild — and every partition Open reopens. Retuning the
// fractures keeps the pool's size in bytes unless it says otherwise.
func TestPoolSizeReachesEveryPartition(t *testing.T) {
	const pages = 800
	wantBytes := pages * 512
	rng := rand.New(rand.NewSource(31))
	fs := newFS()
	cfg := defaultOpts()
	cfg.UPI.CachePages = pages
	cfg.Durable = true
	s, err := BulkLoad(fs, "t", "X", []string{"Y"}, cfg, randomTuples(t, rng, 1, 400))
	if err != nil {
		t.Fatal(err)
	}
	checkPools(t, "bulk load", s, wantBytes)
	id := uint64(1000)
	flush := func() {
		t.Helper()
		for _, tup := range randomTuples(t, rng, id, 10) {
			if err := s.Insert(tup); err != nil {
				t.Fatal(err)
			}
		}
		id += 10
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	flush()
	flush()
	checkPools(t, "flush", s, wantBytes)
	if err := s.merge(true); err != nil {
		t.Fatal(err)
	}
	if s.NumFractures() != 1 {
		t.Fatalf("partial merge left %d fractures, want 1", s.NumFractures())
	}
	checkPools(t, "partial merge", s, wantBytes)
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	checkPools(t, "merge by cursor", s, wantBytes)

	// A fracture under another cutoff makes the next merge rebuild.
	if err := s.SetFractureOptions(upi.Options{Cutoff: 0.3, PageSize: 512}); err != nil {
		t.Fatal(err)
	}
	if got := s.FractureOptions().CachePages; got != pages {
		t.Fatalf("retuned fractures get %d pool pages, want %d", got, pages)
	}
	flush()
	checkPools(t, "retuned flush", s, wantBytes)
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	if got := s.Main().Options().Cutoff; got != 0.3 {
		t.Fatalf("merged main has cutoff %v, want the rebuild's 0.3", got)
	}
	checkPools(t, "merge by rebuild", s, wantBytes)
	flush()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(fs, "t", "X", []string{"Y"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumFractures() != 1 {
		t.Fatalf("reopened store has %d fractures, want 1", re.NumFractures())
	}
	checkPools(t, "reopen", re, wantBytes)

	// Retuning the page size keeps the bytes; an explicit size wins.
	if err := re.SetFractureOptions(upi.Options{Cutoff: 0.3, PageSize: 1024}); err != nil {
		t.Fatal(err)
	}
	if got := re.FractureOptions().CachePages * 1024; got != wantBytes {
		t.Fatalf("1 KiB pages get a %d B pool, want %d", got, wantBytes)
	}
	if err := re.SetFractureOptions(upi.Options{Cutoff: 0.3, CachePages: 5}); err != nil {
		t.Fatal(err)
	}
	if got := re.FractureOptions().CachePages; got != 5 {
		t.Fatalf("explicit CachePages 5 became %d", got)
	}
}
