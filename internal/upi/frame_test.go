package upi_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"upidb/internal/prob"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
	"upidb/internal/upi/upitest"
)

// TestDamagedBodyFailsOnlyItsRow: the heap checks each tuple body once,
// when its page is loaded, and a body the check rejects still fails
// exactly the reads that reach it, with the codec's own error, while its
// valid neighbours on the same page read as before. One body in the
// middle of a heap leaf has a length field overwritten:
//   - a top-k that stops above it returns the undamaged table's rows;
//   - a PTQ that reaches it fails with tuple.Decode's error;
//   - QuerySecondary fails the same way when it fetches it, tailored or
//     not, and answers as before when it fetches only its neighbours.
func TestDamagedBodyFailsOnlyItsRow(t *testing.T) {
	// One heap entry per tuple (one primary alternative, above the
	// cutoff), so the heap's order is the result order.
	var tuples []*tuple.Tuple
	for i := 0; i < 300; i++ {
		inst, err := prob.NewDiscrete([]prob.Alternative{{Value: "MIT", Prob: 0.3 + float64(i%60)/100}})
		if err != nil {
			t.Fatal(err)
		}
		country, err := prob.NewDiscrete([]prob.Alternative{{Value: fmt.Sprintf("c%d", i%7), Prob: 1}})
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, &tuple.Tuple{ID: uint64(i + 1), Existence: 1,
			Unc:     []tuple.UncField{{Name: "Institution", Dist: inst}, {Name: "Country", Dist: country}},
			Payload: bytes.Repeat([]byte{1}, 64)})
	}
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	tab, err := upi.BulkBuild(fs, "t", "Institution", []string{"Country"}, upi.Options{Cutoff: 0.1}, tuples)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, _, err := tab.Query(ctx, "MIT", 0)
	if err != nil || len(want) != len(tuples) {
		t.Fatalf("Query: %d rows, err %v", len(want), err)
	}
	secondary := func(country string, tailored bool) ([]upi.Result, error) {
		rs, _, err := tab.QuerySecondary(ctx, "Country", country, 0, tailored)
		return rs, err
	}
	wantSec := make(map[string][]upi.Result)
	for i := 0; i < 7; i++ {
		c := fmt.Sprintf("c%d", i)
		if wantSec[c], err = secondary(c, true); err != nil {
			t.Fatal(err)
		}
	}

	if err := tab.DropCaches(); err != nil { // every page on the backend
		t.Fatal(err)
	}
	const victim = 10
	c, err := upitest.CorruptHeapBodyAt(fs.Backend(), upi.HeapFileName("t"), 0, victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	_, codecErr := tuple.Decode(c.Body)
	if codecErr == nil {
		t.Fatal("the damaged body still decodes")
	}
	// The first heap leaf holds the best MIT rows, in result order.
	if c.Value != "MIT" || want[victim].Tuple.ID != c.ID {
		t.Fatalf("damaged %s/%d, want MIT/%d", c.Value, c.ID, want[victim].Tuple.ID)
	}
	victimCountry := fmt.Sprintf("c%d", (c.ID-1)%7)

	top, _, err := tab.TopK(ctx, "MIT", victim)
	if err != nil || !reflect.DeepEqual(top, want[:victim]) {
		t.Fatalf("top-%d above the damaged row: %d rows, err %v", victim, len(top), err)
	}
	if rs, _, err := tab.Query(ctx, "MIT", 0); rs != nil || err == nil || err.Error() != codecErr.Error() {
		t.Fatalf("PTQ over the damaged row: %d rows, err %v, want %v", len(rs), err, codecErr)
	}
	cur := tab.QueryCursor(ctx, "MIT", 0)
	for i := 0; ; i++ {
		r, ok, err := cur.Next()
		if err != nil {
			if i != victim || err.Error() != codecErr.Error() {
				t.Fatalf("cursor failed at row %d with %v, want row %d with %v", i, err, victim, codecErr)
			}
			break
		}
		if !ok || r.ID() != want[i].Tuple.ID {
			t.Fatalf("cursor row %d: ok=%v id %d, want %d", i, ok, r.ID(), want[i].Tuple.ID)
		}
	}
	for _, tailored := range []bool{false, true} {
		if rs, err := secondary(victimCountry, tailored); rs != nil || err == nil || err.Error() != codecErr.Error() {
			t.Fatalf("secondary fetch of the damaged row (tailored %v): %d rows, err %v, want %v", tailored, len(rs), err, codecErr)
		}
	}
	for country, w := range wantSec {
		if country == victimCountry {
			continue
		}
		if rs, err := secondary(country, true); err != nil || !reflect.DeepEqual(rs, w) {
			t.Fatalf("secondary %s beside the damaged row: %d rows, err %v", country, len(rs), err)
		}
	}
}

// TestEveryHeapTreeChecksItsTuples: the heap tree of a created, an
// opened and a bulk-built UPI (and so of every partition a fracture
// store flushes, merges or reopens) carries tuple.Check, so each heap
// value's frame is the tuple's; the cutoff index carries no check.
func TestEveryHeapTreeChecksItsTuples(t *testing.T) {
	var tuples []*tuple.Tuple
	for i := 0; i < 100; i++ {
		inst, err := prob.NewDiscrete([]prob.Alternative{{Value: "MIT", Prob: 0.5}, {Value: fmt.Sprintf("i%d", i%5), Prob: 0.05}})
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, &tuple.Tuple{ID: uint64(i + 1), Existence: 1, Unc: []tuple.UncField{{Name: "Institution", Dist: inst}}})
	}
	opts := upi.Options{Cutoff: 0.1}
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	created, err := upi.Create(fs, "c", "Institution", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range tuples {
		if err := created.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := created.Flush(); err != nil {
		t.Fatal(err)
	}
	opened, err := upi.Open(fs, "c", "Institution", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	built, err := upi.BulkBuild(fs, "b", "Institution", nil, opts, tuples)
	if err != nil {
		t.Fatal(err)
	}
	for name, tab := range map[string]*upi.Table{"created": created, "opened": opened, "bulk-built": built} {
		n := 0
		for c := tab.Heap().NewCursor().First(); c.Valid(); c.Next() {
			if want := tuple.Check(c.Value()); want == 0 || c.Frame() != want {
				t.Fatalf("%s heap entry %d: frame %#x, want %#x", name, n, c.Frame(), want)
			}
			n++
		}
		if n != len(tuples) {
			t.Fatalf("%s heap: %d entries", name, n)
		}
		c := tab.CutoffIndex().NewCursor().First()
		if !c.Valid() || c.Frame() != 0 {
			t.Fatalf("%s cutoff index: valid=%v, frame %#x", name, c.Valid(), c.Frame())
		}
	}
}
