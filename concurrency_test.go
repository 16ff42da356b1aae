package upidb

// Concurrent soak: goroutines insert, delete, flush and query one
// table while a background auto-merger folds fractures, then the final
// state is validated against exact ground truth. Run under -race in CI
// to patrol the engine's concurrent paths; unlike the serial soak it
// also runs (shortened) in -short mode.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

const soakValues = 8

func soakValue(v int) string { return fmt.Sprintf("v%02d", ((v%soakValues)+soakValues)%soakValues) }

// soakTuple is deterministic in (id): same ID always produces the same
// tuple, with alternatives on two adjacent values of the universe. It
// panics rather than failing the test because it runs on writer
// goroutines (the distributions it builds are always valid).
func soakTuple(id uint64) *Tuple {
	v := int(id % soakValues)
	p := 0.3 + float64((id*7)%60)/100
	alts := []Alternative{{Value: soakValue(v), Prob: p}}
	alts = append(alts, Alternative{Value: soakValue(v + 1), Prob: (1 - p) * 0.9})
	x, err := NewDiscrete(alts)
	if err != nil {
		panic(err)
	}
	y, err := NewDiscrete([]Alternative{{Value: "y" + soakValue(v), Prob: 1}})
	if err != nil {
		panic(err)
	}
	return &Tuple{
		ID: id, Existence: 0.9,
		Unc: []UncField{{Name: "X", Dist: x}, {Name: "Y", Dist: y}},
	}
}

func TestSoakConcurrentEngine(t *testing.T) {
	perWriter := 600
	if testing.Short() {
		perWriter = 150
	}
	const writers = 3

	setProcs(t, 4)
	db := mustCreate(t)
	tab, err := db.CreateTable("conc", "X", []string{"Y"},
		WithCutoff(0.15), WithBufferTuples(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.StartAutoMerge(AutoMergeOptions{MaxFractures: 4}); err != nil {
		t.Fatal(err)
	}

	// Writers insert disjoint ID ranges and publish each inserted ID;
	// the deleter consumes them and deletes every other one, so ground
	// truth (inserted minus deleted) is exact regardless of timing.
	inserted := make(chan uint64, 256)
	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w+1) * 1_000_000
			for i := 0; i < perWriter; i++ {
				id := base + uint64(i)
				if err := tab.Insert(soakTuple(id)); err != nil {
					errs <- err
					return
				}
				inserted <- id
			}
		}(w)
	}

	deleted := make(map[uint64]bool)
	var delWg sync.WaitGroup
	delWg.Add(1)
	go func() {
		defer delWg.Done()
		odd := false
		for id := range inserted {
			if odd {
				tab.Delete(id)
				deleted[id] = true
			}
			odd = !odd
		}
	}()

	// Readers check structural invariants on every answer: descending
	// confidence, no duplicate IDs, no errors.
	stop := make(chan struct{})
	var readWg sync.WaitGroup
	for r := 0; r < 3; r++ {
		readWg.Add(1)
		go func(seed int64) {
			defer readWg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := soakValue(rng.Intn(soakValues))
				var q Query
				switch rng.Intn(3) {
				case 0:
					q = PTQ("", v, 0.1)
				case 1:
					q = PTQ("Y", "y"+v, 0.1)
				case 2:
					q = TopKQuery(v, 5)
				}
				res, err := tab.Run(context.Background(), q)
				if err != nil {
					errs <- err
					return
				}
				rs := res.Collect()
				if q.kind == KindTopK && len(rs) > 5 {
					errs <- fmt.Errorf("TopK returned %d > k results", len(rs))
					return
				}
				seen := make(map[uint64]bool, len(rs))
				for i, r := range rs {
					if i > 0 && rs[i-1].Confidence < r.Confidence {
						errs <- fmt.Errorf("results not sorted: %v before %v", rs[i-1], r)
						return
					}
					if seen[r.Tuple.ID] {
						errs <- fmt.Errorf("duplicate tuple %d in one answer", r.Tuple.ID)
						return
					}
					seen[r.Tuple.ID] = true
				}
			}
		}(int64(r + 1))
	}

	wg.Wait()
	close(inserted)
	delWg.Wait()
	close(stop)
	readWg.Wait()
	if err := tab.StopAutoMerge(); err != nil {
		t.Fatalf("background merge: %v", err)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Settle and validate against exact ground truth.
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for w := 0; w < writers; w++ {
		base := uint64(w+1) * 1_000_000
		for i := 0; i < perWriter; i++ {
			id := base + uint64(i)
			if deleted[id] {
				continue
			}
			v := int(id % soakValues)
			want[soakValue(v)]++
			want[soakValue(v+1)]++
		}
	}
	for v := 0; v < soakValues; v++ {
		res, err := tab.Run(context.Background(), PTQ("", soakValue(v), 0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != want[soakValue(v)] {
			t.Errorf("final state %s: %d live tuples, want %d", soakValue(v), res.Len(), want[soakValue(v)])
		}
	}
}
