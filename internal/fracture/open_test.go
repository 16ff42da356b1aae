package fracture

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"upidb/internal/upi"
)

func TestOpenRoundTrip(t *testing.T) {
	fs := newFS()
	rng := rand.New(rand.NewSource(19))
	s, err := NewStore(fs, "t", "X", []string{"Y"}, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[uint64]bool)
	for b := 0; b < 4; b++ {
		for _, tup := range randomTuples(t, rng, uint64(b*1000+1), 120) {
			if err := s.Insert(tup); err != nil {
				t.Fatal(err)
			}
			live[tup.ID] = true
		}
		// Delete a few already-flushed tuples.
		if b > 0 {
			for id := range live {
				s.Delete(id)
				delete(live, id)
				break
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushPages(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(fs, "t", "X", []string{"Y"}, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if re.NumFractures() != s.NumFractures() {
		t.Fatalf("fractures: %d vs %d", re.NumFractures(), s.NumFractures())
	}
	for _, qt := range []float64{0.05, 0.3, 0.7} {
		for v := 0; v < 14; v++ {
			val := fmt.Sprintf("v%02d", v)
			a, _, err := s.Query(context.Background(), val, qt)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := re.Query(context.Background(), val, qt)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("%s@%v: %d vs %d after reopen", val, qt, len(a), len(b))
			}
			for i := range a {
				if a[i].Tuple.ID != b[i].Tuple.ID || math.Abs(a[i].Confidence-b[i].Confidence) > 1e-9 {
					t.Fatalf("%s@%v result %d differs after reopen", val, qt, i)
				}
			}
		}
	}
	// The reopened store must be fully operational: insert, flush,
	// merge.
	for _, tup := range randomTuples(t, rng, 90000, 30) {
		if err := re.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := re.Merge(); err != nil {
		t.Fatal(err)
	}
	if re.NumFractures() != 0 {
		t.Fatal("merge after reopen failed")
	}
}

func TestOpenAfterMerge(t *testing.T) {
	fs := newFS()
	rng := rand.New(rand.NewSource(23))
	s, _ := NewStore(fs, "t", "X", []string{"Y"}, defaultOpts())
	for _, tup := range randomTuples(t, rng, 1, 150) {
		s.Insert(tup)
	}
	s.Flush()
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushPages(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(fs, "t", "X", []string{"Y"}, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if re.NumFractures() != 0 {
		t.Fatalf("fractures after reopen: %d", re.NumFractures())
	}
	total := 0
	for v := 0; v < 14; v++ {
		rs, _, err := re.Query(context.Background(), fmt.Sprintf("v%02d", v), 0)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rs)
	}
	if total < 150 {
		t.Fatalf("tuples lost: %d", total)
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(newFS(), "nope", "X", nil, defaultOpts()); err == nil {
		t.Fatal("open of missing store accepted")
	}
}

// TestOpenDropsUnflushedBuffer documents the durability contract: RAM
// buffer contents do not survive a reopen.
func TestOpenDropsUnflushedBuffer(t *testing.T) {
	fs := newFS()
	rng := rand.New(rand.NewSource(29))
	s, _ := NewStore(fs, "t", "X", []string{"Y"}, defaultOpts())
	flushed := randomTuples(t, rng, 1, 50)
	for _, tup := range flushed {
		s.Insert(tup)
	}
	s.Flush()
	for _, tup := range randomTuples(t, rng, 1000, 50) { // never flushed
		s.Insert(tup)
	}
	s.FlushPages()
	re, err := Open(fs, "t", "X", []string{"Y"}, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for v := 0; v < 14; v++ {
		rs, _, _ := re.Query(context.Background(), fmt.Sprintf("v%02d", v), 0)
		total += len(rs)
	}
	if total < 50 || total >= 100 {
		t.Fatalf("reopened store has %d results; want only the flushed ~50+", total)
	}
	if re.BufferedInserts() != 0 {
		t.Fatal("buffer should be empty after reopen")
	}
}

// sweep answers every PTQ of the randomTuples value universe at a low,
// a middle and a high threshold and renders each answer, so two stores
// (or one store at two moments) compare with one string equality.
func sweep(t *testing.T, s *Store) string {
	t.Helper()
	var b strings.Builder
	for _, qt := range []float64{0.05, 0.3, 0.7} {
		for v := 0; v < 14; v++ {
			val := fmt.Sprintf("v%02d", v)
			rs, _, err := s.Query(context.Background(), val, qt)
			if err != nil {
				t.Fatalf("%s@%v: %v", val, qt, err)
			}
			fmt.Fprintf(&b, "%s@%v:", val, qt)
			for _, r := range rs {
				fmt.Fprintf(&b, " %d/%.9f", r.Tuple.ID, r.Confidence)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestReopenWithDifferentCutoff: a durable store's partitions were
// built at cutoff 0.4; reopening it at cutoff 0.01 must not make
// queries between the two trust the new value and skip the cutoff
// index. The manifest records each partition's own parameters; the
// caller's apply to the next flush and to the next merge, which
// rebuilds the main UPI with them.
func TestReopenWithDifferentCutoff(t *testing.T) {
	fs := newFS()
	rng := rand.New(rand.NewSource(31))
	built := Config{UPI: upi.Options{Cutoff: 0.4, PageSize: 512}, Durable: true}
	s, err := BulkLoad(fs, "t", "X", []string{"Y"}, built, randomTuples(t, rng, 1, 400))
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range randomTuples(t, rng, 1000, 100) {
		if err := s.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := sweep(t, s)
	if err := s.FlushPages(); err != nil {
		t.Fatal(err)
	}

	retuned := Config{UPI: upi.Options{Cutoff: 0.01, PageSize: 512}, Durable: true}
	re, err := Open(fs, "t", "X", []string{"Y"}, retuned)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweep(t, re); got != want {
		t.Fatalf("answers changed across a reopen with another cutoff:\n got %s\nwant %s", got, want)
	}
	if got := re.Main().Options().Cutoff; got != 0.4 {
		t.Fatalf("main reopened at cutoff %v, built at 0.4", got)
	}
	if got := re.FractureOptions().Cutoff; got != 0.01 {
		t.Fatalf("future fractures use cutoff %v, caller asked for 0.01", got)
	}
	// The merge sees partitions unlike the current options and rebuilds.
	if err := re.Merge(); err != nil {
		t.Fatal(err)
	}
	if got := re.Main().Options().Cutoff; got != 0.01 {
		t.Fatalf("merged main has cutoff %v, want the retuned 0.01", got)
	}
	if got := sweep(t, re); got != want {
		t.Fatalf("answers changed across the retuning merge:\n got %s\nwant %s", got, want)
	}
	// And the rebuilt main's own cutoff is what the next open sees.
	if err := re.FlushPages(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(fs, "t", "X", []string{"Y"}, built)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Main().Options().Cutoff; got != 0.01 {
		t.Fatalf("second reopen: main at cutoff %v, rebuilt at 0.01", got)
	}
	if got := sweep(t, again); got != want {
		t.Fatal("answers changed across the second reopen")
	}
}

// TestOldManifestStillOpens: a manifest written before placement
// parameters were recorded has bare "main <gen>" / "frac <gen>" lines;
// it opens with the caller's options, and the next commit records them.
func TestOldManifestStillOpens(t *testing.T) {
	fs := newFS()
	rng := rand.New(rand.NewSource(37))
	cfg := defaultOpts()
	cfg.Durable = true
	s, err := BulkLoad(fs, "t", "X", []string{"Y"}, cfg, randomTuples(t, rng, 1, 120))
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range randomTuples(t, rng, 1000, 40) {
		if err := s.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := sweep(t, s)
	if err := s.FlushPages(); err != nil {
		t.Fatal(err)
	}
	old := fmt.Sprintf("main %d\nfrac %d\n", s.parts[0].gen, s.parts[1].gen)
	fs.Sideband(manifestName("t")) // as writeManifest does: never charged
	if err := fs.Create(manifestName("t")).WriteAt([]byte(old), 0); err != nil {
		t.Fatal(err)
	}

	re, err := Open(fs, "t", "X", []string{"Y"}, cfg)
	if err != nil {
		t.Fatalf("old-format manifest refused: %v", err)
	}
	if re.NumFractures() != 1 {
		t.Fatalf("%d fractures from the old manifest, want 1", re.NumFractures())
	}
	if got := sweep(t, re); got != want {
		t.Fatal("answers changed across a reopen from an old-format manifest")
	}
	if err := re.Merge(); err != nil {
		t.Fatal(err)
	}
	cat, err := readManifest(fs, "t", upi.Options{Cutoff: 0.9})
	if err != nil || cat.built == nil || len(cat.fracs) != 0 {
		t.Fatalf("manifest after merge: %v, fractures %v, err %v", cat.built, cat.fracs, err)
	}
	if got := cat.built[cat.main].Cutoff; got != cfg.UPI.Cutoff {
		t.Fatalf("merge committed cutoff %v for the main, built at %v", got, cfg.UPI.Cutoff)
	}
	for _, bad := range []string{
		"main 1 cutoff=0.1\n", "main 1 cutoff=x maxptr=0\n", "main 1 maxptr=0 cutoff=0.1\n", "main 1 cutoff=NaN maxptr=0\n", "main\n",
		"main 1\n" + strings.Repeat("x", 70000) + "\nfrac 2\n", // longer than a bufio.Scanner line
		"main 1\nfrac 2\nfrac 2\n",                             // a partition scanned twice
		"main 1\nfrac 1\n",                                     // a fracture reusing the main's generation
		"main 1\nfrac -2\n",
		"main 1\nmain 2\n", // the first main's files would become orphans
	} {
		if err := fs.Create(manifestName("t")).WriteAt([]byte(bad), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := readManifest(fs, "t", cfg.UPI); err == nil {
			t.Fatalf("corrupt manifest %.40q accepted", bad)
		}
	}
}
