package fracture

import (
	"math/rand"
	"testing"

	"upidb/internal/storage"
	"upidb/internal/upi"
)

// checkPools fails unless every file of every partition of s draws
// from pool.
func checkPools(t *testing.T, step string, s *Store, pool *storage.Pool) {
	t.Helper()
	for _, part := range s.Partitions() {
		for _, tr := range part.Trees() {
			if p := tr.Pager(); p.Pool() != pool {
				t.Fatalf("%s: %s draws from a pool of its own, not the file system's", step, p.File().Name())
			}
		}
	}
}

// TestEveryPartitionDrawsFromTheFSPool: every file of every partition
// of a store over a file system with a pool draws from that one pool,
// whichever path built it — bulk load, flush, partial merge, full
// merge by cursor and by rebuild under retuned options — and every
// partition Open reopens.
func TestEveryPartitionDrawsFromTheFSPool(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	fs := newFS()
	pool := storage.NewPool(1 << 20)
	fs.SetPool(pool)
	cfg := defaultOpts()
	cfg.Durable = true
	s, err := BulkLoad(fs, "t", "X", []string{"Y"}, cfg, randomTuples(t, rng, 1, 400))
	if err != nil {
		t.Fatal(err)
	}
	checkPools(t, "bulk load", s, pool)
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
	checkPools(t, "flush", s, pool)
	if err := s.merge(true); err != nil {
		t.Fatal(err)
	}
	if s.NumFractures() != 1 {
		t.Fatalf("partial merge left %d fractures, want 1", s.NumFractures())
	}
	checkPools(t, "partial merge", s, pool)
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	checkPools(t, "merge by cursor", s, pool)

	// A fracture under another cutoff makes the next merge rebuild.
	if err := s.SetFractureOptions(upi.Options{Cutoff: 0.3, PageSize: 512}); err != nil {
		t.Fatal(err)
	}
	flush()
	checkPools(t, "retuned flush", s, pool)
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	if got := s.Main().Options().Cutoff; got != 0.3 {
		t.Fatalf("merged main has cutoff %v, want the rebuild's 0.3", got)
	}
	checkPools(t, "merge by rebuild", s, pool)
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
	checkPools(t, "reopen", re, pool)
}
