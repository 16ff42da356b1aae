package fracture

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"upidb/internal/prob"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
)

// The crash suite proves the durability contract: inject a failure at
// every WAL / flush / checkpoint / merge stage, "kill" the process by
// abandoning the store, reopen over the same backend bytes, and verify
// the recovered contents against an independently tracked ground truth
// — exactly the acknowledged writes, nothing else.

func durableOpts() Config {
	o := defaultOpts()
	o.Durable = true
	return o
}

func crashVal(id uint64) string { return fmt.Sprintf("v%02d", id%14) }

// crashRig drives one durable store over a fault-injecting backend and
// tracks the acknowledged-live ground truth beside it.
type crashRig struct {
	t    *testing.T
	mem  *storage.MemBackend
	fb   *storage.FaultBackend
	s    *Store
	live map[uint64]bool
}

// newCrashRig starts the rig on an empty store, or with base > 0 on a
// store whose main is bulk-loaded with IDs 1000 to 1000+base-1.
func newCrashRig(t *testing.T, base int) *crashRig {
	t.Helper()
	mem := storage.NewMemBackend()
	fb := storage.NewFaultBackend(mem)
	fs := storage.NewFSOn(sim.NewDisk(sim.DefaultParams()), fb)
	r := &crashRig{t: t, mem: mem, fb: fb, live: make(map[uint64]bool)}
	var tuples []*tuple.Tuple
	for id := uint64(1000); id < uint64(1000+base); id++ {
		tuples = append(tuples, mkTuple(t, id, 1.0, prob.Alternative{Value: crashVal(id), Prob: 0.9}))
		r.live[id] = true
	}
	var err error
	if base > 0 {
		r.s, err = BulkLoad(fs, "t", "X", []string{"Y"}, durableOpts(), tuples)
	} else {
		r.s, err = NewStore(fs, "t", "X", []string{"Y"}, durableOpts())
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// partialMerge runs a merge that may stay partial, after checking the
// store is one it stays partial on.
func (r *crashRig) partialMerge() error {
	r.t.Helper()
	r.s.mu.RLock()
	fits, mainGen := r.s.partialFitsLocked(), r.s.parts[0].gen
	r.s.mu.RUnlock()
	if !fits {
		r.t.Fatal("setup: the fractures do not make a partial merge")
	}
	if err := r.s.merge(true); err != nil {
		return err
	}
	if r.s.parts[0].gen != mainGen || r.s.NumFractures() != 1 {
		r.t.Fatalf("partial merge left main generation %d (was %d) and %d fractures", r.s.parts[0].gen, mainGen, r.s.NumFractures())
	}
	return nil
}

func (r *crashRig) insert(id uint64) error {
	tup := mkTuple(r.t, id, 1.0, prob.Alternative{Value: crashVal(id), Prob: 0.9})
	err := r.s.Insert(tup)
	if err == nil {
		r.live[id] = true
	}
	return err
}

func (r *crashRig) delete(id uint64) error {
	err := r.s.Delete(id)
	if err == nil {
		delete(r.live, id)
	}
	return err
}

func (r *crashRig) mustInsert(from, to uint64) {
	r.t.Helper()
	for id := from; id <= to; id++ {
		if err := r.insert(id); err != nil {
			r.t.Fatal(err)
		}
	}
}

// crashAndReopen abandons the current store (the "kill") and reopens
// from the backend's bytes with fault injection disabled, as a fresh
// process would.
func (r *crashRig) crashAndReopen() *Store {
	r.t.Helper()
	fs := storage.NewFSOn(sim.NewDisk(sim.DefaultParams()), r.mem)
	re, err := Open(fs, "t", "X", []string{"Y"}, durableOpts())
	if err != nil {
		r.t.Fatalf("recovery open: %v", err)
	}
	r.s = re
	return re
}

// verify checks the store's queryable contents against the ground
// truth, value by value, as exact ID sets.
func (r *crashRig) verify(s *Store) {
	r.t.Helper()
	for v := uint64(0); v < 14; v++ {
		val := fmt.Sprintf("v%02d", v)
		var want []uint64
		for id := range r.live {
			if crashVal(id) == val {
				want = append(want, id)
			}
		}
		rs, _, err := s.Query(context.Background(), val, 0.5)
		if err != nil {
			r.t.Fatalf("verify query %s: %v", val, err)
		}
		got := make([]uint64, 0, len(rs))
		for _, res := range rs {
			got = append(got, res.Tuple.ID)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			r.t.Fatalf("value %s: recovered %d tuples, want %d (got %v, want %v)",
				val, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				r.t.Fatalf("value %s: recovered IDs %v, want %v", val, got, want)
			}
		}
	}
}

func TestCrashRecoveryMatrix(t *testing.T) {
	cases := []struct {
		name string
		// partial cases start from a bulk-loaded main and a second
		// flushed fracture, so that run can fold the fractures into one.
		partial bool
		fault   storage.Fault
		// run performs the operation expected to hit the failpoint;
		// wantErr says whether that operation must surface the
		// injection.
		run     func(r *crashRig) error
		wantErr bool
	}{
		{
			name:    "wal-append-write",
			fault:   storage.Fault{Op: storage.OpWrite, Name: ".wal"},
			run:     func(r *crashRig) error { return r.insert(100) },
			wantErr: true,
		},
		{
			name:    "wal-append-torn",
			fault:   storage.Fault{Op: storage.OpWrite, Name: ".wal", PartialBytes: 7},
			run:     func(r *crashRig) error { return r.insert(100) },
			wantErr: true,
		},
		{
			name:    "wal-append-sync",
			fault:   storage.Fault{Op: storage.OpSync, Name: ".wal"},
			run:     func(r *crashRig) error { return r.insert(100) },
			wantErr: true,
		},
		{
			name:    "wal-delete-append",
			fault:   storage.Fault{Op: storage.OpWrite, Name: ".wal"},
			run:     func(r *crashRig) error { return r.delete(3) },
			wantErr: true,
		},
		{
			name:    "flush-fracture-write",
			fault:   storage.Fault{Op: storage.OpWrite, Name: ".frac"},
			run:     func(r *crashRig) error { return r.s.Flush() },
			wantErr: true,
		},
		{
			name:    "flush-delset-write",
			fault:   storage.Fault{Op: storage.OpWrite, Name: ".delset"},
			run:     func(r *crashRig) error { return r.s.Flush() },
			wantErr: true,
		},
		{
			name:    "flush-manifest-write",
			fault:   storage.Fault{Op: storage.OpWrite, Name: ".manifest.tmp"},
			run:     func(r *crashRig) error { return r.s.Flush() },
			wantErr: true,
		},
		{
			name:    "flush-manifest-rename",
			fault:   storage.Fault{Op: storage.OpRename, Name: ".manifest.tmp"},
			run:     func(r *crashRig) error { return r.s.Flush() },
			wantErr: true,
		},
		{
			// The checkpoint truncate fails *after* the flush has fully
			// committed: the flush reports the degradation, but the
			// fracture holds the data and replaying the stale WAL must
			// dedupe, not duplicate.
			name:    "flush-wal-truncate",
			fault:   storage.Fault{Op: storage.OpTruncate, Name: ".wal"},
			run:     func(r *crashRig) error { return r.s.Flush() },
			wantErr: true,
		},
		{
			name:  "merge-build-write",
			fault: storage.Fault{Op: storage.OpWrite, Name: ".main"},
			run: func(r *crashRig) error {
				if err := r.s.Flush(); err != nil {
					return fmt.Errorf("pre-merge flush: %w", err)
				}
				return r.s.Merge()
			},
			wantErr: true,
		},
		{
			name:  "merge-swap-sync",
			fault: storage.Fault{Op: storage.OpSync, Name: ".main"},
			run: func(r *crashRig) error {
				if err := r.s.Flush(); err != nil {
					return fmt.Errorf("pre-merge flush: %w", err)
				}
				return r.s.Merge()
			},
			wantErr: true,
		},
		{
			name:  "merge-swap-manifest-rename",
			fault: storage.Fault{Op: storage.OpRename, Name: ".manifest.tmp"},
			run: func(r *crashRig) error {
				if err := r.s.Flush(); err != nil {
					return fmt.Errorf("pre-merge flush: %w", err)
				}
				return r.s.Merge()
			},
			wantErr: true,
		},
		{
			name:    "partial-merge-fracture-write",
			partial: true,
			fault:   storage.Fault{Op: storage.OpWrite, Name: ".frac"},
			run:     (*crashRig).partialMerge,
			wantErr: true,
		},
		{
			name:    "partial-merge-fracture-sync",
			partial: true,
			fault:   storage.Fault{Op: storage.OpSync, Name: ".frac"},
			run:     (*crashRig).partialMerge,
			wantErr: true,
		},
		{
			name:    "partial-merge-delset-write",
			partial: true,
			fault:   storage.Fault{Op: storage.OpWrite, Name: ".delset"},
			run:     (*crashRig).partialMerge,
			wantErr: true,
		},
		{
			name:    "partial-merge-delset-sync",
			partial: true,
			fault:   storage.Fault{Op: storage.OpSync, Name: ".delset"},
			run:     (*crashRig).partialMerge,
			wantErr: true,
		},
		{
			name:    "partial-merge-manifest-rename",
			partial: true,
			fault:   storage.Fault{Op: storage.OpRename, Name: ".manifest.tmp"},
			run:     (*crashRig).partialMerge,
			wantErr: true,
		},
		{
			// A partial merge that commits, then a kill with writes
			// still buffered beside the merged fracture.
			name:    "partial-merge-committed",
			partial: true,
			run:     (*crashRig).partialMerge,
			wantErr: false,
		},
		{
			// No fault at all: a clean kill with a populated buffer.
			name:    "kill-with-buffered-writes",
			run:     func(r *crashRig) error { return nil },
			wantErr: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := 0
			if tc.partial {
				base = 1500
			}
			r := newCrashRig(t, base)
			if tc.partial {
				// The oldest fracture supersedes and deletes a version
				// of main: the merged fracture must keep doing so.
				r.mustInsert(1005, 1005)
				if err := r.delete(1006); err != nil {
					t.Fatal(err)
				}
			}
			// Phase 1 (all acknowledged): one flushed fracture, one
			// buffered batch, a couple of deletes spanning both.
			r.mustInsert(1, 20)
			if err := r.s.Flush(); err != nil {
				t.Fatal(err)
			}
			r.mustInsert(21, 30)
			if err := r.delete(5); err != nil { // on-disk delete
				t.Fatal(err)
			}
			if err := r.delete(25); err != nil { // buffered delete
				t.Fatal(err)
			}
			if tc.partial {
				// A second fracture that upserts and deletes versions
				// of the first one and of main, then writes that stay
				// buffered through the merge.
				if err := r.s.Flush(); err != nil {
					t.Fatal(err)
				}
				r.mustInsert(10, 12)
				r.mustInsert(1000, 1002)
				for _, id := range []uint64{21, 1003} {
					if err := r.delete(id); err != nil {
						t.Fatal(err)
					}
				}
				if err := r.s.Flush(); err != nil {
					t.Fatal(err)
				}
				r.mustInsert(31, 35)
				for _, id := range []uint64{2, 1004} {
					if err := r.delete(id); err != nil {
						t.Fatal(err)
					}
				}
			}

			if tc.fault.Op != "" {
				r.fb.Arm(tc.fault)
			}
			err := tc.run(r)
			if tc.wantErr {
				if !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("failpoint not surfaced: %v", err)
				}
				if !r.fb.Triggered() {
					t.Fatal("fault armed but never fired")
				}
			} else if err != nil {
				t.Fatal(err)
			}
			r.fb.Disarm()

			re := r.crashAndReopen()
			r.verify(re)

			// The recovered store must be fully operational: write,
			// flush, merge, and survive one more clean crash.
			r.mustInsert(200, 210)
			if err := r.s.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := r.s.Merge(); err != nil {
				t.Fatal(err)
			}
			r.verify(r.s)
			r.verify(r.crashAndReopen())
		})
	}
}

// TestDurableRoundTripOnDisk runs the create / write / kill / reopen
// cycle over a real directory: the same engine, real files, real
// fsync.
func TestDurableRoundTripOnDisk(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		t.Helper()
		b, err := storage.NewDiskBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		fs := storage.NewFSOn(sim.NewDisk(sim.DefaultParams()), b)
		if fs.Exists("t.manifest") {
			s, err := Open(fs, "t", "X", []string{"Y"}, durableOpts())
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		s, err := NewStore(fs, "t", "X", []string{"Y"}, durableOpts())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := open()
	live := make(map[uint64]bool)
	ins := func(id uint64) {
		t.Helper()
		if err := s.Insert(mkTuple(t, id, 1.0, prob.Alternative{Value: crashVal(id), Prob: 0.9})); err != nil {
			t.Fatal(err)
		}
		live[id] = true
	}
	for id := uint64(1); id <= 40; id++ {
		ins(id)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for id := uint64(41); id <= 55; id++ {
		ins(id) // stay buffered: only the WAL has these
	}
	if err := s.Delete(7); err != nil {
		t.Fatal(err)
	}
	delete(live, 7)
	s.Close() // kill without flushing the buffer

	s = open()
	if got := s.BufferedInserts(); got != 15 {
		t.Fatalf("recovered buffer holds %d tuples, want 15", got)
	}
	for v := uint64(0); v < 14; v++ {
		val := fmt.Sprintf("v%02d", v)
		rs, _, err := s.Query(context.Background(), val, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for id := range live {
			if crashVal(id) == val {
				want++
			}
		}
		if len(rs) != want {
			t.Fatalf("value %s: %d results, want %d", val, len(rs), want)
		}
	}
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

// TestCrashRecoverySoak is the store-vs-ground-truth soak: random
// operations with a random failpoint armed each round, a kill at the
// failpoint, reopen, exact verification — then keep going on the
// recovered store.
func TestCrashRecoverySoak(t *testing.T) {
	r := newCrashRig(t, 0)
	rng := rand.New(rand.NewSource(47))
	faults := []storage.Fault{
		{Op: storage.OpWrite, Name: ".wal"},
		{Op: storage.OpWrite, Name: ".wal", PartialBytes: 5},
		{Op: storage.OpSync, Name: ".wal"},
		{Op: storage.OpWrite, Name: ".frac"},
		{Op: storage.OpWrite, Name: ".delset"},
		{Op: storage.OpRename, Name: ".manifest.tmp"},
		{Op: storage.OpTruncate, Name: ".wal"},
		{Op: storage.OpWrite, Name: ".main"},
		{Op: storage.OpSync, Name: ".main"},
	}
	nextID := uint64(1)
	rounds := 40
	if testing.Short() {
		rounds = 12
	}
	for round := 0; round < rounds; round++ {
		// A burst of acknowledged operations.
		for op := 0; op < 30; op++ {
			switch rng.Intn(10) {
			case 0: // delete something that may or may not exist
				if err := r.delete(uint64(rng.Intn(int(nextID)) + 1)); err != nil {
					t.Fatalf("round %d: delete: %v", round, err)
				}
			case 1:
				if err := r.s.Flush(); err != nil {
					t.Fatalf("round %d: flush: %v", round, err)
				}
			default:
				if err := r.insert(nextID); err != nil {
					t.Fatalf("round %d: insert: %v", round, err)
				}
				nextID++
			}
		}
		// Arm a random failpoint a few operations in the future, then
		// hammer until it fires (or the budget runs out — the fault
		// may target a stage this round never reaches).
		f := faults[rng.Intn(len(faults))]
		f.CountDown = rng.Intn(3)
		r.fb.Arm(f)
		for op := 0; op < 25 && !r.fb.Triggered(); op++ {
			var err error
			switch rng.Intn(6) {
			case 0:
				err = r.s.Flush()
			case 1:
				err = r.s.Merge()
			case 2:
				err = r.delete(uint64(rng.Intn(int(nextID)) + 1))
			default:
				err = r.insert(nextID)
				if err == nil {
					nextID++
				}
			}
			if err != nil && !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("round %d: unexpected error: %v", round, err)
			}
		}
		r.fb.Disarm()
		r.verify(r.crashAndReopen())
	}
}
