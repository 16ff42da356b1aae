package upidb

// Facade-level durability tests: the Create/Open lifecycle over the
// real-disk backend, WAL recovery of acknowledged-but-unflushed writes
// through the public API, reopen parity of StatsInfo (a reopened table
// reports what it reported before Close and has no statistics), and
// option-scope validation.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"upidb/internal/storage"
)

// durTuple builds a tuple with primary attribute X = val (prob 0.9)
// and secondary Y = "y"+val, existence 1 — confidence 0.9 for PTQs.
func durTuple(t testing.TB, id uint64, val string) *Tuple {
	t.Helper()
	x, err := NewDiscrete([]Alternative{{Value: val, Prob: 0.9}, {Value: "other", Prob: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	y, err := NewDiscrete([]Alternative{{Value: "y" + val, Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return &Tuple{ID: id, Existence: 1, Unc: []UncField{{Name: "X", Dist: x}, {Name: "Y", Dist: y}}}
}

func durVal(id uint64) string { return fmt.Sprintf("v%02d", id%7) }

// verifyLive checks that a PTQ per value returns exactly the live IDs.
func verifyLive(t *testing.T, tab *Table, live map[uint64]bool) {
	t.Helper()
	ctx := context.Background()
	want := make(map[string]map[uint64]bool)
	for id := range live {
		v := durVal(id)
		if want[v] == nil {
			want[v] = make(map[uint64]bool)
		}
		want[v][id] = true
	}
	for i := 0; i < 7; i++ {
		v := fmt.Sprintf("v%02d", i)
		res, err := tab.Run(ctx, PTQ("", v, 0.5))
		if err != nil {
			t.Fatalf("query %s: %v", v, err)
		}
		got := make(map[uint64]bool)
		for _, r := range res.Collect() {
			got[r.Tuple.ID] = true
		}
		if len(got) != len(want[v]) {
			t.Fatalf("value %s: got %d results, want %d", v, len(got), len(want[v]))
		}
		for id := range want[v] {
			if !got[id] {
				t.Fatalf("value %s: missing id %d", v, id)
			}
		}
	}
}

// TestFacadeDiskDurableRoundTrip: Create(dir) stores real files with
// durable tables by default; after Close, Open(dir)+OpenTable recovers
// every acknowledged write — flushed fractures, the WAL-logged RAM
// buffer, and pending deletes — and reports the same StatsInfo it did
// before Close; a merge of the reopened table loses nothing.
func TestFacadeDiskDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("events", "X", []string{"Y"}, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[uint64]bool)
	for id := uint64(1); id <= 20; id++ {
		if err := tab.Insert(durTuple(t, id, durVal(id))); err != nil {
			t.Fatal(err)
		}
		live[id] = true
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	// Buffered tail: WAL-only at close time.
	for id := uint64(21); id <= 30; id++ {
		if err := tab.Insert(durTuple(t, id, durVal(id))); err != nil {
			t.Fatal(err)
		}
		live[id] = true
	}
	// One on-disk delete and one buffered delete.
	for _, id := range []uint64{5, 25} {
		if err := tab.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
	}
	verifyLive(t, tab, live)
	before := tab.StatsInfo()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rtab, err := re.OpenTable("events", "X", []string{"Y"}, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	verifyLive(t, rtab, live)

	if got := rtab.StatsInfo(); !reflect.DeepEqual(got, before) {
		t.Fatalf("StatsInfo changed across reopen:\n before %+v\n after  %+v", before, got)
	}
	if err := rtab.Merge(); err != nil {
		t.Fatal(err)
	}
	verifyLive(t, rtab, live)
}

// TestFacadeReopenWithDifferentCutoff: a disk-backed table built at
// cutoff 0.4 and reopened WithCutoff(0.01) answers a PTQ between the
// two thresholds with the same rows — each partition reopens with the
// cutoff its manifest recorded — and the next merge rebuilds the main
// UPI at the new cutoff, again without losing a row.
func TestFacadeReopenWithDifferentCutoff(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("events", "X", []string{"Y"}, WithCutoff(0.4))
	if err != nil {
		t.Fatal(err)
	}
	// Every tuple carries "other" at confidence 0.1: below the build
	// cutoff, so those alternatives live in the cutoff index.
	for id := uint64(1); id <= 70; id++ {
		if err := tab.Insert(durTuple(t, id, durVal(id))); err != nil {
			t.Fatal(err)
		}
		if id == 30 || id == 60 { // two fractures, then a WAL-only tail
			if err := tab.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx := context.Background()
	others := func(tab *Table) []Result {
		t.Helper()
		res, err := tab.Run(ctx, PTQ("", "other", 0.05))
		if err != nil {
			t.Fatal(err)
		}
		rs := res.Collect()
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return rs
	}
	want := others(tab)
	if len(want) != 70 {
		t.Fatalf("%d rows before the reopen, want all 70", len(want))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rtab, err := re.OpenTable("events", "X", []string{"Y"}, WithCutoff(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if got := others(rtab); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d rows after reopening with another cutoff, %d before", len(got), len(want))
	}
	if err := rtab.Merge(); err != nil {
		t.Fatal(err)
	}
	if got := others(rtab); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d rows after the retuning merge, %d before", len(got), len(want))
	}
}

// TestFacadeDurableKillRecovery: with durability on, a database that is
// never closed ("killed") still recovers every acknowledged write on
// reopen over the same backend — the WAL contract through the facade.
func TestFacadeDurableKillRecovery(t *testing.T) {
	mem := storage.NewMemBackend()
	db, err := Create("", WithBackend(mem), WithDurability(true))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("t", "X", []string{"Y"})
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[uint64]bool)
	for id := uint64(1); id <= 12; id++ {
		if err := tab.Insert(durTuple(t, id, durVal(id))); err != nil {
			t.Fatal(err)
		}
		live[id] = true
	}
	if err := tab.Delete(7); err != nil {
		t.Fatal(err)
	}
	delete(live, 7)
	// Kill: abandon db without Flush or Close. All 12 inserts and the
	// delete live only in the WAL.
	re, err := Open("", WithBackend(mem), WithDurability(true))
	if err != nil {
		t.Fatal(err)
	}
	rtab, err := re.OpenTable("t", "X", []string{"Y"})
	if err != nil {
		t.Fatal(err)
	}
	verifyLive(t, rtab, live)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeCreateOpenContract: Create refuses an existing database,
// Open refuses a missing one, and database-level options are rejected
// at table scope.
func TestFacadeCreateOpenContract(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir); err == nil {
		t.Fatal("Create over an existing database accepted")
	}
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("Open of an empty directory accepted")
	}
	if _, err := Open(""); err == nil {
		t.Fatal("Open of a fresh in-memory backend accepted")
	}

	mdb := mustCreate(t)
	if _, err := mdb.CreateTable("t", "X", nil, WithDiskBackend(t.TempDir())); err == nil {
		t.Fatal("database-level option accepted at table scope")
	}
	// Table-scope durability override works: a durable table over the
	// in-memory backend (non-durable default) gains a WAL.
	tab, err := mdb.CreateTable("d", "X", nil, WithDurability(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(durTuple(t, 1, "v01")); err != nil {
		t.Fatal(err)
	}
}

// TestNonDurableReopenKeepsCutoff: a table built without durability
// records each partition's cutoff too, so reopening it with no table
// options, durable or not, answers what it answered before the close:
// rows whose confidence sits below the build cutoff live only in the
// cutoff index, which a partition opened with the default cutoff of 0
// never consults.
func TestNonDurableReopenKeepsCutoff(t *testing.T) {
	tuples := make([]*Tuple, 200)
	for i := range tuples {
		p := 0.1 + 0.2*float64(i%5)
		x, err := NewDiscrete([]Alternative{{Value: "a", Prob: p}, {Value: "b", Prob: 1 - p}})
		if err != nil {
			t.Fatal(err)
		}
		tuples[i] = &Tuple{ID: uint64(i + 1), Existence: 1, Unc: []UncField{{Name: "X", Dist: x}}}
	}
	ptq := func(tab *Table) []Result {
		t.Helper()
		res, err := tab.Run(context.Background(), PTQ("", "a", 0.3))
		if err != nil {
			t.Fatal(err)
		}
		rs := res.Collect()
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return rs
	}
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("reopen-durable=%v", durable), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Create(dir, WithDurability(false))
			if err != nil {
				t.Fatal(err)
			}
			tab, err := db.BulkLoadTable("t", "X", nil, tuples, WithCutoff(0.5))
			if err != nil {
				t.Fatal(err)
			}
			want := ptq(tab)
			if len(want) != 160 {
				t.Fatalf("%d rows before the close, want 160", len(want))
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(dir, WithDurability(durable))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			rtab, err := re.OpenTable("t", "X", nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := ptq(rtab); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d rows after the reopen, %d before", len(got), len(want))
			}
		})
	}
}
