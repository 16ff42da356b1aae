package fracture

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"upidb/internal/prob"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

func newFS() *storage.FS { return storage.NewFS(sim.NewDisk(sim.DefaultParams())) }

func mkTuple(t testing.TB, id uint64, exist float64, alts ...prob.Alternative) *tuple.Tuple {
	t.Helper()
	d, err := prob.NewDiscrete(alts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := prob.NewDiscrete([]prob.Alternative{{Value: "c" + alts[0].Value, Prob: 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	return &tuple.Tuple{ID: id, Existence: exist, Unc: []tuple.UncField{
		{Name: "X", Dist: d}, {Name: "Y", Dist: c},
	}}
}

func defaultOpts() Config {
	return Config{UPI: upi.Options{Cutoff: 0.1, PageSize: 512}}
}

func randomTuples(t testing.TB, rng *rand.Rand, startID uint64, n int) []*tuple.Tuple {
	t.Helper()
	out := make([]*tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		v1 := fmt.Sprintf("v%02d", rng.Intn(12))
		v2 := fmt.Sprintf("v%02d", (rng.Intn(12)+5)%14)
		p := 0.3 + rng.Float64()*0.6
		alts := []prob.Alternative{{Value: v1, Prob: p}}
		if v2 != v1 {
			alts = append(alts, prob.Alternative{Value: v2, Prob: (1 - p) * 0.9})
		}
		out = append(out, mkTuple(t, startID+uint64(i), 0.5+rng.Float64()/2, alts...))
	}
	return out
}

func TestInsertBufferedThenFlushed(t *testing.T) {
	s, err := NewStore(newFS(), "t", "X", []string{"Y"}, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	tup := mkTuple(t, 1, 1.0, prob.Alternative{Value: "A", Prob: 0.9})
	if err := s.Insert(tup); err != nil {
		t.Fatal(err)
	}
	if s.BufferedInserts() != 1 || s.NumFractures() != 0 {
		t.Fatalf("buffer=%d fractures=%d", s.BufferedInserts(), s.NumFractures())
	}
	// Visible from the buffer before any flush.
	res, st, err := s.Query(context.Background(), "A", 0.5)
	if err != nil || len(res) != 1 || st.BufferHits != 1 {
		t.Fatalf("buffered query: %v %d %+v", err, len(res), st)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.BufferedInserts() != 0 || s.NumFractures() != 1 {
		t.Fatalf("after flush: buffer=%d fractures=%d", s.BufferedInserts(), s.NumFractures())
	}
	res, st, err = s.Query(context.Background(), "A", 0.5)
	if err != nil || len(res) != 1 || st.BufferHits != 0 {
		t.Fatalf("flushed query: %v %d %+v", err, len(res), st)
	}
}

func TestAutoFlushAtCapacity(t *testing.T) {
	opts := defaultOpts()
	opts.BufferTuples = 3
	s, _ := NewStore(newFS(), "t", "X", []string{"Y"}, opts)
	for i := 1; i <= 7; i++ {
		s.Insert(mkTuple(t, uint64(i), 1.0, prob.Alternative{Value: "A", Prob: 0.9}))
	}
	if s.NumFractures() != 2 || s.BufferedInserts() != 1 {
		t.Fatalf("fractures=%d buffered=%d", s.NumFractures(), s.BufferedInserts())
	}
	res, _, err := s.Query(context.Background(), "A", 0.5)
	if err != nil || len(res) != 7 {
		t.Fatalf("%v %d", err, len(res))
	}
}

func TestDeleteSemantics(t *testing.T) {
	s, _ := NewStore(newFS(), "t", "X", []string{"Y"}, defaultOpts())
	// Tuple 1 flushed in fracture 1.
	s.Insert(mkTuple(t, 1, 1.0, prob.Alternative{Value: "A", Prob: 0.9}))
	s.Flush()
	// Delete it while buffered, then flush the delete set.
	s.Delete(1)
	res, _, _ := s.Query(context.Background(), "A", 0.1)
	if len(res) != 0 {
		t.Fatalf("pending delete not applied: %d", len(res))
	}
	s.Flush()
	res, _, _ = s.Query(context.Background(), "A", 0.1)
	if len(res) != 0 {
		t.Fatalf("flushed delete not applied: %d", len(res))
	}
	// Deleting a buffered-only tuple cancels the insert; the ID stays
	// tombstoned (upsert semantics — an older on-disk version of the
	// same ID, if any, must not resurface).
	s.Insert(mkTuple(t, 2, 1.0, prob.Alternative{Value: "B", Prob: 0.9}))
	s.Delete(2)
	if s.BufferedInserts() != 0 || !s.bufDeletes[2] {
		t.Fatalf("buffered delete should cancel the insert and keep the tombstone: deletes=%v inserts=%d",
			s.bufDeletes, s.BufferedInserts())
	}
	if res, _, _ := s.Query(context.Background(), "B", 0.1); len(res) != 0 {
		t.Fatalf("cancelled insert still visible: %+v", res)
	}
	// Re-insert after delete revives the ID in newer data only.
	s.Insert(mkTuple(t, 1, 1.0, prob.Alternative{Value: "C", Prob: 0.9}))
	s.Flush()
	res, _, _ = s.Query(context.Background(), "C", 0.5)
	if len(res) != 1 || res[0].Tuple.ID != 1 {
		t.Fatalf("revived tuple missing: %+v", res)
	}
	res, _, _ = s.Query(context.Background(), "A", 0.1)
	if len(res) != 0 {
		t.Fatal("old version of revived tuple leaked")
	}
}

// TestUpsertSupersedesOnDisk: inserting an existing ID replaces the
// on-disk version immediately — exactly one version answers queries at
// every stage (buffered, flushed, merged), and the old version's
// alternatives stop matching.
func TestUpsertSupersedesOnDisk(t *testing.T) {
	s, err := NewStore(newFS(), "t", "X", []string{"Y"}, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(mkTuple(t, 1, 1.0, prob.Alternative{Value: "A", Prob: 0.9})); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Update while the old version is on disk: A drops to 0.5, B appears.
	if err := s.Insert(mkTuple(t, 1, 1.0,
		prob.Alternative{Value: "A", Prob: 0.5}, prob.Alternative{Value: "B", Prob: 0.4})); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		res, _, err := s.Query(context.Background(), "A", 0.1)
		if err != nil || len(res) != 1 || res[0].Confidence != 0.5 {
			t.Fatalf("%s: want exactly the new version of A (conf 0.5): %v %+v", stage, err, res)
		}
		res, _, err = s.Query(context.Background(), "B", 0.1)
		if err != nil || len(res) != 1 {
			t.Fatalf("%s: new alternative B missing: %v %+v", stage, err, res)
		}
	}
	check("buffered")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flushed")
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	if s.NumFractures() != 0 {
		t.Fatalf("fractures after merge: %d", s.NumFractures())
	}
	check("merged")
}

// TestMatchesPlainUPI: a fractured UPI must give exactly the answers a
// plain UPI gives after the same operation sequence.
func TestMatchesPlainUPI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tuples := randomTuples(t, rng, 1, 600)

	plain, err := upi.BulkBuild(newFS(), "p", "X", []string{"Y"}, upi.Options{Cutoff: 0.1, PageSize: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(newFS(), "f", "X", []string{"Y"}, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[uint64]*tuple.Tuple)
	for i, tup := range tuples {
		if err := plain.Insert(tup); err != nil {
			t.Fatal(err)
		}
		if err := s.Insert(tup); err != nil {
			t.Fatal(err)
		}
		live[tup.ID] = tup
		if i%97 == 0 {
			s.Flush()
		}
		if i%13 == 0 && i > 0 {
			// Delete a random live tuple from both.
			for id, victim := range live {
				if err := plain.Delete(victim); err != nil {
					t.Fatal(err)
				}
				s.Delete(id)
				delete(live, id)
				break
			}
		}
	}
	if s.NumFractures() < 3 {
		t.Fatalf("want several fractures, got %d", s.NumFractures())
	}
	compare := func(stage string) {
		t.Helper()
		for _, qt := range []float64{0.05, 0.3, 0.7} {
			for v := 0; v < 14; v++ {
				val := fmt.Sprintf("v%02d", v)
				a, _, err := plain.Query(context.Background(), val, qt)
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := s.Query(context.Background(), val, qt)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("%s %s@%v: plain %d vs fractured %d", stage, val, qt, len(a), len(b))
				}
				for i := range a {
					if a[i].Tuple.ID != b[i].Tuple.ID || math.Abs(a[i].Confidence-b[i].Confidence) > 1e-9 {
						t.Fatalf("%s %s@%v result %d: %+v vs %+v", stage, val, qt, i, a[i], b[i])
					}
				}
				// Secondary query equivalence.
				sa, _, err := plain.QuerySecondary(context.Background(), "Y", "c"+val, qt, true)
				if err != nil {
					t.Fatal(err)
				}
				sb, _, err := s.QuerySecondary(context.Background(), "Y", "c"+val, qt)
				if err != nil {
					t.Fatal(err)
				}
				if len(sa) != len(sb) {
					t.Fatalf("%s secondary %s@%v: %d vs %d", stage, val, qt, len(sa), len(sb))
				}
			}
		}
	}
	compare("before merge")
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	if s.NumFractures() != 0 {
		t.Fatalf("fractures after merge: %d", s.NumFractures())
	}
	compare("after merge")
}

func TestMergeRemovesOldFiles(t *testing.T) {
	fs := newFS()
	s, _ := NewStore(fs, "t", "X", []string{"Y"}, defaultOpts())
	rng := rand.New(rand.NewSource(7))
	for _, tup := range randomTuples(t, rng, 1, 100) {
		s.Insert(tup)
	}
	s.Flush()
	for _, tup := range randomTuples(t, rng, 1000, 100) {
		s.Insert(tup)
	}
	s.Flush()
	filesBefore := len(fs.List())
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	filesAfter := len(fs.List())
	if filesAfter >= filesBefore {
		t.Fatalf("merge did not shrink file count: %d -> %d", filesBefore, filesAfter)
	}
	// All tuples still present.
	total := 0
	for v := 0; v < 14; v++ {
		res, _, err := s.Query(context.Background(), fmt.Sprintf("v%02d", v), 0.0)
		if err != nil {
			t.Fatal(err)
		}
		total += len(res)
	}
	if total < 200 { // every tuple appears under >= 1 value
		t.Fatalf("tuples lost in merge: %d", total)
	}
}

func TestTopKAcrossFractures(t *testing.T) {
	s, _ := NewStore(newFS(), "t", "X", []string{"Y"}, defaultOpts())
	s.Insert(mkTuple(t, 1, 1.0, prob.Alternative{Value: "A", Prob: 0.9}))
	s.Flush()
	s.Insert(mkTuple(t, 2, 1.0, prob.Alternative{Value: "A", Prob: 0.95}))
	s.Flush()
	s.Insert(mkTuple(t, 3, 1.0, prob.Alternative{Value: "A", Prob: 0.8})) // buffered
	res, _, err := s.TopK(context.Background(), "A", 2)
	if err != nil || len(res) != 2 {
		t.Fatalf("%v %d", err, len(res))
	}
	if res[0].Tuple.ID != 2 || res[1].Tuple.ID != 1 {
		t.Fatalf("top2: %d %d", res[0].Tuple.ID, res[1].Tuple.ID)
	}
	if res, _, _ := s.TopK(context.Background(), "A", 0); res != nil {
		t.Fatal("k=0")
	}
}

// TestTopKAfterBestDelete: the k of a top-k bounds live rows, counted
// after the supersedence filter — not the heap entries a partition
// scans. Deleting a value's best tuple, wherever it lives (main, a
// flushed fracture, the RAM buffer) and whether the tombstone is still
// buffered or already flushed, leaves TopK returning the oracle's
// first k rows rather than k minus the superseded ones.
func TestTopKAfterBestDelete(t *testing.T) {
	ctx := context.Background()
	live := map[uint64]*tuple.Tuple{}
	// Eight tuples per value, confidences 0.90 down to 0.55; each value
	// lives in one kind of partition.
	batch := func(firstID uint64, value string) []*tuple.Tuple {
		var out []*tuple.Tuple
		for i := 0; i < 8; i++ {
			tup := mkTuple(t, firstID+uint64(i), 1.0, prob.Alternative{Value: value, Prob: 0.9 - float64(i)*0.05})
			live[tup.ID] = tup
			out = append(out, tup)
		}
		return out
	}
	s, err := BulkLoad(newFS(), "t", "X", []string{"Y"}, defaultOpts(), batch(1, "inMain"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range batch(100, "inFracture") {
		if err := s.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, tup := range batch(200, "inBuffer") {
		if err := s.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}

	values := []string{"inMain", "inFracture", "inBuffer"}
	check := func(stage, value string) {
		t.Helper()
		got, _, err := s.TopK(ctx, value, 3)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleRows(live, "X", Req{Kind: KindTopK, Value: value, K: 3}); !sameRows(got, want) {
			t.Fatalf("%s, top-3 of %s: got %v, oracle has %v", stage, value, resultKeys(got), want)
		}
	}
	for _, value := range values {
		for round := 0; round < 2; round++ {
			best := uint64(oracleRows(live, "X", Req{Kind: KindTopK, Value: value, K: 1})[0][0])
			if err := s.Delete(best); err != nil {
				t.Fatal(err)
			}
			delete(live, best)
			check(fmt.Sprintf("tombstone of %d buffered", best), value)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, value := range values {
		check("tombstones flushed", value)
	}
}

// TestFlushIsSequentialInsertIsFree reproduces the Table 7 property:
// fractured-UPI maintenance is buffered RAM work plus sequential
// writes, never random I/O.
func TestFlushIsSequentialInsertIsFree(t *testing.T) {
	disk := sim.NewDisk(sim.DefaultParams())
	fs := storage.NewFS(disk)
	s, _ := NewStore(fs, "t", "X", []string{"Y"}, defaultOpts())
	rng := rand.New(rand.NewSource(9))
	tuples := randomTuples(t, rng, 1, 2000)

	before := disk.Stats()
	for _, tup := range tuples {
		if err := s.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	d := disk.Stats().Sub(before)
	if d.BytesWritten != 0 || d.BytesRead != 0 {
		t.Fatalf("buffered inserts touched disk: %+v", d)
	}

	before = disk.Stats()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	d = disk.Stats().Sub(before)
	if d.Seeks > d.SequentialIO/5+10 {
		t.Fatalf("flush not sequential: %+v", d)
	}
}

// TestMergeCostIsLinear verifies Costmerge ≈ read + write of the whole
// table: merging must not be seek-dominated.
func TestMergeCostIsLinear(t *testing.T) {
	disk := sim.NewDisk(sim.DefaultParams())
	fs := storage.NewFS(disk)
	s, _ := NewStore(fs, "t", "X", []string{"Y"}, defaultOpts())
	rng := rand.New(rand.NewSource(11))
	for b := 0; b < 5; b++ {
		for _, tup := range randomTuples(t, rng, uint64(b*1000+1), 400) {
			s.Insert(tup)
		}
		s.Flush()
	}
	s.FlushPages()
	s.DropCaches()
	before := disk.Stats()
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	d := disk.Stats().Sub(before)
	// Read-ahead must amortize seeks: far fewer seeks than pages read.
	pagesRead := d.BytesRead / 512
	if d.Seeks > pagesRead/8 {
		t.Fatalf("merge seeks not amortized: %d seeks for %d pages (%+v)", d.Seeks, pagesRead, d)
	}
}

func TestQueryCostGrowsWithFractures(t *testing.T) {
	disk := sim.NewDisk(sim.DefaultParams())
	fs := storage.NewFS(disk)
	s, _ := NewStore(fs, "t", "X", []string{"Y"}, defaultOpts())
	rng := rand.New(rand.NewSource(13))

	measure := func() int64 {
		s.FlushPages()
		s.DropCaches()
		sp := sim.StartSpan(disk)
		if _, _, err := s.Query(context.Background(), "v01", 0.3); err != nil {
			t.Fatal(err)
		}
		return int64(sp.End().Elapsed)
	}
	for b := 0; b < 6; b++ {
		for _, tup := range randomTuples(t, rng, uint64(b*1000+1), 150) {
			s.Insert(tup)
		}
		s.Flush()
	}
	costMany := measure()
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	costMerged := measure()
	if costMerged >= costMany {
		t.Fatalf("merge should restore performance: %d -> %d", costMany, costMerged)
	}
}

func TestBulkLoadStore(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tuples := randomTuples(t, rng, 1, 300)
	s, err := BulkLoad(newFS(), "t", "X", []string{"Y"}, defaultOpts(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for v := 0; v < 14; v++ {
		res, _, err := s.Query(context.Background(), fmt.Sprintf("v%02d", v), 0.0)
		if err != nil {
			t.Fatal(err)
		}
		total += len(res)
	}
	if total < 300 {
		t.Fatalf("bulk load lost tuples: %d", total)
	}
}

// TestSizeBytesCountsOnlyItsOwnDeleteSets: a store's size counts the
// delete sets of its own fractures and none of another store's, even
// one whose name it prefixes.
func TestSizeBytesCountsOnlyItsOwnDeleteSets(t *testing.T) {
	fs := newFS()
	a, err := NewStore(fs, "a", "X", []string{"Y"}, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	ab, err := NewStore(fs, "ab", "X", []string{"Y"}, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	empty := a.SizeBytes()
	for _, tup := range randomTuples(t, rand.New(rand.NewSource(44)), 1, 2000) {
		if err := ab.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := ab.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := a.SizeBytes(); got != empty {
		t.Fatalf("store a: %d bytes after store ab flushed, %d before", got, empty)
	}
	if ab.NumFractures() != 1 {
		t.Fatalf("store ab has %d fractures, want 1", ab.NumFractures())
	}
	f := ab.parts[1]
	delSet := fs.Size(ab.delSetFile(f.gen))
	if delSet == 0 {
		t.Fatal("store ab's delete set is empty; the check is vacuous")
	}
	if got, want := ab.SizeBytes(), ab.Main().SizeBytes()+f.table.SizeBytes()+delSet; got != want {
		t.Fatalf("store ab: %d bytes, want main + fracture + its delete set = %d", got, want)
	}
}
