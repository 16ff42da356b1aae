package fracture

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"upidb/internal/prob"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// concTuple builds a deterministic two-alternative tuple for value
// index v of a small value universe.
func concTuple(id uint64, v int) *tuple.Tuple {
	p := 0.3 + float64((id*7+uint64(v)*13)%60)/100
	alts := []prob.Alternative{{Value: concValue(v), Prob: p}}
	if other := (v + 1) % concValues; other != v {
		alts = append(alts, prob.Alternative{Value: concValue(other), Prob: (1 - p) * 0.9})
	}
	x, err := prob.NewDiscrete(alts)
	if err != nil {
		panic(err)
	}
	y, err := prob.NewDiscrete([]prob.Alternative{{Value: "y" + concValue(v), Prob: 1}})
	if err != nil {
		panic(err)
	}
	return &tuple.Tuple{
		ID: id, Existence: 0.9,
		Unc: []tuple.UncField{{Name: "X", Dist: x}, {Name: "Y", Dist: y}},
	}
}

const concValues = 8

func concValue(v int) string { return fmt.Sprintf("v%02d", v%concValues) }

// setProcs runs the rest of the test at GOMAXPROCS(n) and restores the
// previous value when the test ends. A stream opens its partitions on
// the caller's goroutine at any n; the tests that loop over n check
// that nothing they report moves with it.
func setProcs(t testing.TB, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// buildConcStore creates a fractured store with nFrac fractures of
// batch tuples each, plus a bulk-loaded base. Identical inputs produce
// byte-identical files, caches and disk state.
func buildConcStore(t testing.TB, nFrac, batch int) (*Store, *sim.Disk) {
	t.Helper()
	disk := sim.NewDisk(sim.DefaultParams())
	fs := storage.NewFS(disk)
	var base []*tuple.Tuple
	id := uint64(1)
	for i := 0; i < 4*batch; i++ {
		base = append(base, concTuple(id, int(id)))
		id++
	}
	s, err := BulkLoad(fs, "conc", "X", []string{"Y"}, Config{UPI: upi.Options{Cutoff: 0.15}}, base)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < nFrac; f++ {
		for i := 0; i < batch; i++ {
			if err := s.Insert(concTuple(id, int(id))); err != nil {
				t.Fatal(err)
			}
			id++
		}
		// Delete one older tuple per batch so delete sets are exercised.
		s.Delete(uint64(f*batch + 1))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return s, disk
}

// TestParallelismInvariance: two byte-identical stores, one queried
// serially and one with maximum fan-out, must report identical
// results, identical QueryStats and identical modeled disk time.
func TestParallelismInvariance(t *testing.T) {
	serial, serialDisk := buildConcStore(t, 6, 40)
	parallel, parallelDisk := buildConcStore(t, 6, 40)
	setProcs(t, 1) // restores the host's width at the end

	if got, want := serialDisk.Stats(), parallelDisk.Stats(); got != want {
		t.Fatalf("builds diverged before queries: %v vs %v", got, want)
	}

	type run func(s *Store) ([]upi.Result, Stats, error)
	cases := []struct {
		name string
		run  run
	}{
		{"ptq", func(s *Store) ([]upi.Result, Stats, error) { return s.Query(context.Background(), concValue(3), 0.1) }},
		{"ptq-high", func(s *Store) ([]upi.Result, Stats, error) { return s.Query(context.Background(), concValue(5), 0.5) }},
		{"secondary", func(s *Store) ([]upi.Result, Stats, error) {
			return s.QuerySecondary(context.Background(), "Y", "y"+concValue(3), 0.1)
		}},
		{"topk", func(s *Store) ([]upi.Result, Stats, error) { return s.TopK(context.Background(), concValue(2), 5) }},
	}
	for _, tc := range cases {
		runtime.GOMAXPROCS(1)
		rs1, st1, err1 := tc.run(serial)
		runtime.GOMAXPROCS(5) // deliberately not a divisor of the 7 partitions
		rs2, st2, err2 := tc.run(parallel)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: errors %v / %v", tc.name, err1, err2)
		}
		if st1 != st2 {
			t.Errorf("%s: stats diverged: serial %+v parallel %+v", tc.name, st1, st2)
		}
		if len(rs1) != len(rs2) {
			t.Fatalf("%s: %d results serial vs %d parallel", tc.name, len(rs1), len(rs2))
		}
		for i := range rs1 {
			if rs1[i].Tuple.ID != rs2[i].Tuple.ID || rs1[i].Confidence != rs2[i].Confidence {
				t.Fatalf("%s: result %d diverged: %v vs %v", tc.name, i, rs1[i], rs2[i])
			}
		}
		if got, want := serialDisk.Stats(), parallelDisk.Stats(); got != want {
			t.Errorf("%s: modeled disk activity diverged:\n serial   %v\n parallel %v", tc.name, got, want)
		}
	}
}

// TestInFlightQuerySurvivesMerge: a query snapshot taken before a merge
// keeps the old generation's files alive until released, then they
// disappear.
func TestInFlightQuerySurvivesMerge(t *testing.T) {
	s, _ := buildConcStore(t, 3, 20)
	fracFile := upi.HeapFileName(s.fracName(1))
	if !s.fs.Exists(fracFile) {
		t.Fatalf("expected fracture file %s", fracFile)
	}

	prep, err := s.Prepare(context.Background(), Req{Kind: KindPTQ, Value: concValue(3), QT: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	if !s.fs.Exists(fracFile) {
		t.Fatal("merged fracture file removed while a query snapshot pins it")
	}
	// The snapshot must still answer from the old generation; draining
	// it releases the last pins.
	rs, _, err := prep.Collect(context.Background())
	if err != nil {
		t.Fatalf("query over pinned old generation: %v", err)
	}
	if len(rs) == 0 {
		t.Fatal("pinned old generation returned nothing")
	}
	if s.fs.Exists(fracFile) {
		t.Fatal("old generation files not removed after last pin released")
	}
	for _, name := range s.fs.List() {
		if strings.Contains(name, ".frac") {
			t.Fatalf("stale fracture file after merge: %s", name)
		}
	}
}

// TestConcurrentQueriesAndMerges hammers one store with readers while
// merges and flushes run; meant for -race.
func TestConcurrentQueriesAndMerges(t *testing.T) {
	s, _ := buildConcStore(t, 4, 20)
	setProcs(t, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(3) {
				case 0:
					if _, _, err := s.Query(context.Background(), concValue(rng.Intn(concValues)), 0.1); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, _, err := s.QuerySecondary(context.Background(), "Y", "y"+concValue(rng.Intn(concValues)), 0.1); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, _, err := s.TopK(context.Background(), concValue(rng.Intn(concValues)), 3); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(r))
	}

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		id := uint64(1_000_000)
		for i := 0; i < 6; i++ {
			for j := 0; j < 30; j++ {
				if err := s.Insert(concTuple(id, int(id))); err != nil {
					errs <- err
					return
				}
				id++
			}
			if err := s.Flush(); err != nil {
				errs <- err
				return
			}
			if err := s.Merge(); err != nil {
				errs <- err
				return
			}
		}
	}()

	timer := time.NewTimer(60 * time.Second)
	defer timer.Stop()
	select {
	case <-writerDone:
	case <-timer.C:
		t.Fatal("concurrent soak deadlocked")
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAutoMerge: the background merger keeps the fracture count at bay
// and folds everything cleanly on stop.
func TestAutoMerge(t *testing.T) {
	disk := sim.NewDisk(sim.DefaultParams())
	fs := storage.NewFS(disk)
	s, err := NewStore(fs, "am", "X", []string{"Y"}, Config{
		UPI:          upi.Options{Cutoff: 0.15},
		BufferTuples: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StartAutoMerge(AutoMergeOptions{}); err == nil {
		t.Fatal("auto-merge with no thresholds accepted")
	}
	if err := s.StartAutoMerge(AutoMergeOptions{MaxFractures: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.StartAutoMerge(AutoMergeOptions{MaxFractures: 3}); err == nil {
		t.Fatal("second auto-merger accepted")
	}
	for id := uint64(1); id <= 400; id++ {
		if err := s.Insert(concTuple(id, int(id))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.NumFractures() >= 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.NumFractures(); n >= 3+1 {
		t.Fatalf("auto-merge never caught up: %d fractures", n)
	}
	if err := s.StopAutoMerge(); err != nil {
		t.Fatalf("background merge failed: %v", err)
	}
	if err := s.StopAutoMerge(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	// All inserted tuples are still answerable after merging settles.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for v := 0; v < concValues; v++ {
		rs, _, err := s.Query(context.Background(), concValue(v), 0)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rs)
	}
	// Every tuple has two alternatives over the value universe, so the
	// sum over all values counts each tuple twice.
	if total != 2*400 {
		t.Fatalf("after auto-merge: %d value hits, want %d", total, 800)
	}
}
