package fracture

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"upidb/internal/obs"
	"upidb/internal/prob"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// shapeStore is a store of a bulk-loaded main of base tuples and nFrac
// fractures of batch tuples each, every batch upserting one tuple of
// main and deleting another.
func shapeStore(t *testing.T, base, nFrac, batch int) (*Store, *obs.EngineMetrics) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	opts := defaultOpts()
	opts.Metrics = obs.NewEngineMetrics(obs.NewRegistry())
	s, err := BulkLoad(newFS(), "t", "X", []string{"Y"}, opts, randomTuples(t, rng, 1, base))
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(base + 1)
	for f := 0; f < nFrac; f++ {
		for _, tup := range randomTuples(t, rng, id, batch) {
			if err := s.Insert(tup); err != nil {
				t.Fatal(err)
			}
		}
		id += uint64(batch)
		if err := s.Insert(randomTuples(t, rng, uint64(2*f+1), 1)[0]); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(uint64(2*f + 2)); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return s, opts.Metrics
}

// sweep renders every PTQ and top-k answer of the store.
func sweepAnswers(t *testing.T, s *Store) string {
	t.Helper()
	var out []byte
	for v := 0; v < 14; v++ {
		val := fmt.Sprintf("v%02d", v)
		for _, qt := range []float64{0.05, 0.4} {
			rs, _, err := s.Query(context.Background(), val, qt)
			if err != nil {
				t.Fatal(err)
			}
			out = appendResults(out, rs)
		}
		rs, _, err := s.TopK(context.Background(), val, 3)
		if err != nil {
			t.Fatal(err)
		}
		out = appendResults(out, rs)
	}
	return string(out)
}

func appendResults(out []byte, rs []upi.Result) []byte {
	for _, r := range rs {
		out = fmt.Appendf(out, "%d:%g ", r.ID(), r.Confidence)
	}
	return append(out, '\n')
}

// TestMergeShapes pins which merge a trigger runs: a full fold unless
// the background merger may fold at least two fractures that together
// weigh less than 1/partialMergeShare of main, and the answers do not
// change either way.
func TestMergeShapes(t *testing.T) {
	cases := []struct {
		name        string
		base, nFrac int
		partialOK   bool
		wantPartial bool
	}{
		{"explicit-merge", 1500, 3, false, false},
		{"partial", 1500, 3, true, true},
		{"one-fracture", 1500, 1, true, false},
		{"fractures-reach-an-eighth", 100, 3, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, met := shapeStore(t, tc.base, tc.nFrac, 20)
			want := sweepAnswers(t, s)
			mainGen := s.parts[0].gen
			if err := s.merge(tc.partialOK); err != nil {
				t.Fatal(err)
			}
			partial := s.parts[0].gen == mainGen
			if partial != tc.wantPartial {
				t.Fatalf("partial = %v, want %v", partial, tc.wantPartial)
			}
			if got := s.NumFractures(); partial && got != 1 || !partial && got != 0 {
				t.Fatalf("%d fractures after the merge", got)
			}
			if got := sweepAnswers(t, s); got != want {
				t.Fatalf("answers changed across the merge:\n got %s\nwant %s", got, want)
			}
			rewrites := int64(1)
			if partial {
				rewrites = 0
			}
			if met.Merges.Value() != 1 || met.MainRewrites.Value() != rewrites || met.MergeWrittenBytes.Value() <= 0 {
				t.Fatalf("counters: merges %d, main rewrites %d (want %d), written bytes %d",
					met.Merges.Value(), met.MainRewrites.Value(), rewrites, met.MergeWrittenBytes.Value())
			}
		})
	}
}

// TestAutoMergeDrainsBacklog: a merger started on a store whose
// fractures are already due merges with no further write. The check
// at start runs a partial fold of the three fractures into one, the
// check after it finds that one still due and runs a full fold; no
// polling is involved.
func TestAutoMergeDrainsBacklog(t *testing.T) {
	s, met := shapeStore(t, 1500, 3, 20)
	want := sweepAnswers(t, s)
	if err := s.StartAutoMerge(AutoMergeOptions{MaxFractures: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.NumFractures() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d fractures left after 10 s, %d merges", s.NumFractures(), met.Merges.Value())
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.StopAutoMerge(); err != nil {
		t.Fatal(err)
	}
	if met.Merges.Value() != 2 || met.MainRewrites.Value() != 1 {
		t.Fatalf("%d merges, %d of them into main; want 2 and 1", met.Merges.Value(), met.MainRewrites.Value())
	}
	if got := sweepAnswers(t, s); got != want {
		t.Fatalf("answers changed across the merges:\n got %s\nwant %s", got, want)
	}
}

// TestMergeDue: the count trigger fires once the fractures reach
// MaxFractures, and leaves the shape to the merge.
func TestMergeDue(t *testing.T) {
	s, _ := shapeStore(t, 200, 2, 20)
	for _, tc := range []struct {
		opts    AutoMergeOptions
		wantDue bool
	}{
		{AutoMergeOptions{MaxFractures: 3}, false},
		{AutoMergeOptions{MaxFractures: 2}, true},
	} {
		if due := s.mergeDue(tc.opts); due != tc.wantDue {
			t.Errorf("%+v: due %v, want %v", tc.opts, due, tc.wantDue)
		}
	}
}

// TestMergeHistory drives seeded histories of insert, upsert, delete,
// flush, partial merge, full merge and close/reopen against a durable
// store, and after every step checks every PTQ (above and below the
// cutoff) and top-k against a map of the live tuples scanned linearly.
// An ID deleted and not re-inserted must never come back.
func TestMergeHistory(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runMergeHistory(t, seed, 100) })
	}
}

func runMergeHistory(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	mem := storage.NewMemBackend()
	fsOn := func() *storage.FS { return storage.NewFSOn(sim.NewDisk(sim.DefaultParams()), mem) }
	// Main holds base tuples over the checked values and, before them,
	// pad tuples under a value no check reads: they weigh main without
	// slowing the checks, so the fractures stay below an eighth of it
	// for several partial merges in a row.
	const pad, base = 1000, 300
	live := make(map[uint64]*tuple.Tuple)
	gone := make(map[uint64]bool)
	var loaded []*tuple.Tuple
	for id := uint64(1); id <= pad; id++ {
		loaded = append(loaded, mkTuple(t, id, 1, prob.Alternative{Value: "pad", Prob: 1}))
	}
	loaded = append(loaded, randomTuples(t, rng, pad+1, base)...)
	for _, tup := range loaded {
		live[tup.ID] = tup
	}
	s, err := BulkLoad(fsOn(), "h", "X", []string{"Y"}, durableOpts(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	nextID := uint64(pad + base + 1)
	// anyID draws an ID past the pads, live or not.
	anyID := func() uint64 { return pad + 1 + uint64(rng.Intn(int(nextID-pad-1))) }
	anyLive := func() uint64 {
		for {
			if id := anyID(); live[id] != nil {
				return id
			}
		}
	}
	var partials, fulls int
	for step := 0; step < steps; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 30:
			op = "insert"
			for range 1 + rng.Intn(8) {
				tup := randomTuples(t, rng, nextID, 1)[0]
				nextID++
				if err := s.Insert(tup); err != nil {
					t.Fatal(err)
				}
				live[tup.ID] = tup
			}
		case r < 42:
			op = "upsert"
			tup := randomTuples(t, rng, anyLive(), 1)[0]
			if err := s.Insert(tup); err != nil {
				t.Fatal(err)
			}
			live[tup.ID] = tup
		case r < 54:
			op = "delete"
			id := anyID()
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
			gone[id] = true
		case r < 80 || r < 94 && s.NumFractures() < 2:
			op = "flush"
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		case r < 87:
			// What the count trigger runs: partial while the fractures
			// weigh less than an eighth of main, full from then on.
			op = "partial merge"
			mainGen := s.parts[0].gen
			if err := s.merge(true); err != nil {
				t.Fatal(err)
			}
			if s.parts[0].gen == mainGen {
				partials++
			} else {
				fulls++
			}
		case r < 94:
			// merge(true)'s steps, with writes and a flush landing
			// between the build and the swap: the new fracture's
			// versions must beat the merged fracture's.
			op = "partial merge beside a flush"
			s.mergeMu.Lock()
			s.mu.Lock()
			if !s.partialFitsLocked() {
				s.mu.Unlock()
				s.mergeMu.Unlock()
				continue
			}
			snap := s.mergeSnapshotLocked(1)
			s.mu.Unlock()
			merged, err := s.mergeByCursor(snap)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []uint64{nextID - 1, nextID - 2, anyLive()} {
				tup := randomTuples(t, rng, id, 1)[0]
				if err := s.Insert(tup); err != nil {
					t.Fatal(err)
				}
				live[id] = tup
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.swapMerged(snap, merged); err != nil {
				t.Fatal(err)
			}
			s.mergeMu.Unlock()
			partials++
		case r < 96:
			op = "full merge"
			if err := s.Merge(); err != nil {
				t.Fatal(err)
			}
			fulls++
		default:
			op = "reopen"
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(fsOn(), "h", "X", []string{"Y"}, durableOpts()); err != nil {
				t.Fatal(err)
			}
		}
		for id := range live {
			delete(gone, id) // re-inserted
		}
		checkHistoryStep(t, s, live, gone, fmt.Sprintf("step %d (%s)", step, op))
	}
	t.Logf("%d partial and %d full merges", partials, fulls)
	if partials == 0 || fulls == 0 {
		t.Fatalf("history ran %d partial and %d full merges; want both", partials, fulls)
	}
}

// checkHistoryStep compares every PTQ and top-k of the store with the
// model's linear scan.
func checkHistoryStep(t *testing.T, s *Store, live map[uint64]*tuple.Tuple, gone map[uint64]bool, step string) {
	t.Helper()
	for v := 0; v < 14; v++ {
		val := fmt.Sprintf("v%02d", v)
		var all []upi.Result
		for _, tup := range live {
			if c := tup.Confidence("X", val); c > 0 {
				all = append(all, upi.Result{Tuple: tup, Confidence: c})
			}
		}
		upi.SortResults(all)
		for _, qt := range []float64{0.05, 0.4} {
			got, _, err := s.Query(context.Background(), val, qt)
			if err != nil {
				t.Fatalf("%s: PTQ %s %g: %v", step, val, qt, err)
			}
			want := slices.DeleteFunc(slices.Clone(all), func(r upi.Result) bool { return r.Confidence < qt })
			compareHistory(t, got, want, gone, fmt.Sprintf("%s: PTQ %s %g", step, val, qt))
		}
		got, _, err := s.TopK(context.Background(), val, 3)
		if err != nil {
			t.Fatalf("%s: top-k %s: %v", step, val, err)
		}
		compareHistory(t, got, all[:min(3, len(all))], gone, fmt.Sprintf("%s: top-3 %s", step, val))
	}
}

func compareHistory(t *testing.T, got, want []upi.Result, gone map[uint64]bool, what string) {
	t.Helper()
	for _, r := range got {
		if gone[r.ID()] {
			t.Fatalf("%s: deleted ID %d came back", what, r.ID())
		}
	}
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i].ID() == want[i].ID() && got[i].Confidence == want[i].Confidence
	}
	if !same {
		t.Fatalf("%s:\n got %s\nwant %s", what, appendResults(nil, got), appendResults(nil, want))
	}
}

// TestPartialMergesBesideFlushes runs the background merger while a
// writer upserts a small set of IDs and flushes: a fracture flushed
// during a partial merge's build holds newer versions than the merged
// fracture and must stay in front of it, in memory and across a reopen.
func TestPartialMergesBesideFlushes(t *testing.T) {
	mem := storage.NewMemBackend()
	fsOn := func() *storage.FS { return storage.NewFSOn(sim.NewDisk(sim.DefaultParams()), mem) }
	rng := rand.New(rand.NewSource(9))
	var loaded []*tuple.Tuple
	for id := uint64(1); id <= 3000; id++ {
		loaded = append(loaded, mkTuple(t, id, 1, prob.Alternative{Value: "pad", Prob: 1}))
	}
	opts := durableOpts()
	opts.Metrics = obs.NewEngineMetrics(obs.NewRegistry())
	s, err := BulkLoad(fsOn(), "c", "X", []string{"Y"}, opts, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StartAutoMerge(AutoMergeOptions{MaxFractures: 3}); err != nil {
		t.Fatal(err)
	}
	live := make(map[uint64]*tuple.Tuple)
	for i := 0; i < 3000; i++ {
		tup := randomTuples(t, rng, 5000+uint64(rng.Intn(20)), 1)[0]
		if err := s.Insert(tup); err != nil {
			t.Fatal(err)
		}
		live[tup.ID] = tup
		if i%2 == 1 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			for s.NumFractures() > 6 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	if err := s.StopAutoMerge(); err != nil {
		t.Fatal(err)
	}
	m := opts.Metrics
	if m.Merges.Value() == m.MainRewrites.Value() {
		t.Fatalf("%d merges, all of them into main", m.Merges.Value())
	}
	checkHistoryStep(t, s, live, nil, "after the writer")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(fsOn(), "c", "X", []string{"Y"}, durableOpts()); err != nil {
		t.Fatal(err)
	}
	checkHistoryStep(t, s, live, nil, "after a reopen")
}
