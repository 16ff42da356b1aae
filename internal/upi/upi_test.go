package upi

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"upidb/internal/prob"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
)

func newFS() *storage.FS { return storage.NewFS(sim.NewDisk(sim.DefaultParams())) }

// runningExample returns the paper's Table 4 Author tuples.
func runningExample(t *testing.T) []*tuple.Tuple {
	t.Helper()
	mk := func(id uint64, name string, exist float64, inst, country []prob.Alternative) *tuple.Tuple {
		instD, err := prob.NewDiscrete(inst)
		if err != nil {
			t.Fatal(err)
		}
		countryD, err := prob.NewDiscrete(country)
		if err != nil {
			t.Fatal(err)
		}
		return &tuple.Tuple{
			ID: id, Existence: exist,
			Det: []tuple.DetField{{Name: "Name", Value: name}},
			Unc: []tuple.UncField{
				{Name: "Institution", Dist: instD},
				{Name: "Country", Dist: countryD},
			},
		}
	}
	return []*tuple.Tuple{
		mk(1, "Alice", 0.9,
			[]prob.Alternative{{Value: "Brown", Prob: 0.8}, {Value: "MIT", Prob: 0.2}},
			[]prob.Alternative{{Value: "US", Prob: 1.0}}),
		mk(2, "Bob", 1.0,
			[]prob.Alternative{{Value: "MIT", Prob: 0.95}, {Value: "UCB", Prob: 0.05}},
			[]prob.Alternative{{Value: "US", Prob: 1.0}}),
		mk(3, "Carol", 0.8,
			[]prob.Alternative{{Value: "Brown", Prob: 0.6}, {Value: "U. Tokyo", Prob: 0.4}},
			[]prob.Alternative{{Value: "US", Prob: 0.6}, {Value: "Japan", Prob: 0.4}}),
	}
}

func createExample(t *testing.T, cutoff float64) *Table {
	t.Helper()
	tab, err := Create(newFS(), "author", "Institution", []string{"Country"}, Options{Cutoff: cutoff, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range runningExample(t) {
		if err := tab.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestPaperTable2Layout pins the naive-UPI ordering of the paper's
// Table 2: institution ASC, confidence DESC.
func TestPaperTable2Layout(t *testing.T) {
	tab := createExample(t, 0) // no cutoff: naive UPI
	type row struct {
		value string
		conf  float64
		name  string
	}
	var got []row
	err := tab.Heap().Scan(nil, nil, func(k, enc []byte) bool {
		value, conf, _, err := DecodeHeapKey(k)
		if err != nil {
			t.Fatal(err)
		}
		tup, err := tuple.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		name, _ := tup.DetValue("Name")
		got = append(got, row{value, conf, name})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []row{
		{"Brown", 0.72, "Alice"},
		{"Brown", 0.48, "Carol"},
		{"MIT", 0.95, "Bob"},
		{"MIT", 0.18, "Alice"},
		{"U. Tokyo", 0.32, "Carol"},
		{"UCB", 0.05, "Bob"},
	}
	if len(got) != len(want) {
		t.Fatalf("heap rows: got %d want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].value != want[i].value || got[i].name != want[i].name ||
			math.Abs(got[i].conf-want[i].conf) > 1e-9 {
			t.Fatalf("row %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestPaperTable3Cutoff pins the cutoff behaviour of Table 3 (C=10%):
// Bob's UCB alternative moves to the cutoff index with a pointer to MIT.
func TestPaperTable3Cutoff(t *testing.T) {
	tab := createExample(t, 0.10)
	if n := tab.Heap().Count(); n != 5 {
		t.Fatalf("heap entries = %d, want 5", n)
	}
	if n := tab.CutoffIndex().Count(); n != 1 {
		t.Fatalf("cutoff entries = %d, want 1", n)
	}
	err := tab.CutoffIndex().Scan(nil, nil, func(k, v []byte) bool {
		value, conf, id, err := DecodeHeapKey(k)
		if err != nil {
			t.Fatal(err)
		}
		if value != "UCB" || id != 2 || math.Abs(conf-0.05) > 1e-9 {
			t.Fatalf("cutoff entry: %s %v %d", value, conf, id)
		}
		ps, err := decodePointers(v)
		if err != nil || len(ps) != 1 || ps[0].Value != "MIT" || math.Abs(ps[0].Conf-0.95) > 1e-9 {
			t.Fatalf("cutoff pointer: %+v %v", ps, err)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFirstAlternativeStaysInHeap: a tuple whose best alternative is
// below C must still have its first alternative in the heap file.
func TestFirstAlternativeStaysInHeap(t *testing.T) {
	tab, err := Create(newFS(), "t", "A", nil, Options{Cutoff: 0.5, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := prob.NewDiscrete([]prob.Alternative{
		{Value: "x", Prob: 0.3}, {Value: "y", Prob: 0.3}, {Value: "z", Prob: 0.2},
	})
	tup := &tuple.Tuple{ID: 1, Existence: 1, Unc: []tuple.UncField{{Name: "A", Dist: d}}}
	if err := tab.Insert(tup); err != nil {
		t.Fatal(err)
	}
	if tab.Heap().Count() != 1 || tab.CutoffIndex().Count() != 2 {
		t.Fatalf("heap=%d cutoff=%d, want 1/2", tab.Heap().Count(), tab.CutoffIndex().Count())
	}
	// The tuple must still be findable under its first value at low QT.
	res, _, err := tab.Query(context.Background(), "x", 0.1)
	if err != nil || len(res) != 1 {
		t.Fatalf("query x: %v %d", err, len(res))
	}
	// And under a cutoff value when QT < C.
	res, st, err := tab.Query(context.Background(), "y", 0.1)
	if err != nil || len(res) != 1 {
		t.Fatalf("query y: %v %d", err, len(res))
	}
	if st.CutoffPointers != 1 {
		t.Fatalf("cutoff pointers = %d", st.CutoffPointers)
	}
}

func TestQuery1RunningExample(t *testing.T) {
	for _, cutoff := range []float64{0, 0.1, 0.3} {
		tab := createExample(t, cutoff)
		// Query 1 at QT=0.1: {Alice 18%, Bob 95%}.
		res, _, err := tab.Query(context.Background(), "MIT", 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2 {
			t.Fatalf("C=%v: got %d results", cutoff, len(res))
		}
		if name, _ := res[0].Tuple.DetValue("Name"); name != "Bob" || math.Abs(res[0].Confidence-0.95) > 1e-9 {
			t.Fatalf("C=%v: first = %+v", cutoff, res[0])
		}
		if name, _ := res[1].Tuple.DetValue("Name"); name != "Alice" || math.Abs(res[1].Confidence-0.18) > 1e-9 {
			t.Fatalf("C=%v: second = %+v", cutoff, res[1])
		}
		// At QT=0.5 only Bob remains.
		res, _, err = tab.Query(context.Background(), "MIT", 0.5)
		if err != nil || len(res) != 1 {
			t.Fatalf("C=%v at 0.5: %v %d", cutoff, err, len(res))
		}
		// No matches for unknown value.
		res, _, err = tab.Query(context.Background(), "Nowhere", 0.0)
		if err != nil || len(res) != 0 {
			t.Fatalf("C=%v unknown: %v %d", cutoff, err, len(res))
		}
	}
}

// TestQueryMatchesPossibleWorlds cross-checks UPI query answers against
// the possible-world enumerator on randomized small tables, for several
// cutoff settings and thresholds. This is the semantic oracle test.
func TestQueryMatchesPossibleWorlds(t *testing.T) {
	values := []string{"A", "B", "C", "D", "E"}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		cutoff := []float64{0, 0.15, 0.4}[trial%3]
		tab, err := Create(newFS(), "t", "X", nil, Options{Cutoff: cutoff, PageSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		var worlds []prob.WorldTuple
		n := 2 + rng.Intn(5)
		for i := 0; i < n; i++ {
			nAlts := 1 + rng.Intn(3)
			var alts []prob.Alternative
			perm := rng.Perm(len(values))
			remaining := 1.0
			for j := 0; j < nAlts; j++ {
				p := remaining * (0.3 + 0.5*rng.Float64())
				alts = append(alts, prob.Alternative{Value: values[perm[j]], Prob: p})
				remaining -= p
			}
			d, err := prob.NewDiscrete(alts)
			if err != nil {
				t.Fatal(err)
			}
			exist := 0.5 + rng.Float64()*0.5
			tup := &tuple.Tuple{ID: uint64(i + 1), Existence: exist, Unc: []tuple.UncField{{Name: "X", Dist: d}}}
			if err := tab.Insert(tup); err != nil {
				t.Fatal(err)
			}
			worlds = append(worlds, prob.WorldTuple{ID: tup.ID, Existence: exist, Attr: d})
		}
		for _, qt := range []float64{0.05, 0.2, 0.5} {
			for _, v := range values {
				want := prob.PTQAnswer(worlds, v, qt)
				got, _, err := tab.Query(context.Background(), v, qt)
				if err != nil {
					t.Fatal(err)
				}
				gotIDs := make(map[uint64]bool, len(got))
				for _, r := range got {
					gotIDs[r.Tuple.ID] = true
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d C=%v value=%s qt=%v: got %d want %d", trial, cutoff, v, qt, len(got), len(want))
				}
				for _, id := range want {
					if !gotIDs[id] {
						t.Fatalf("trial %d: missing id %d for %s@%v", trial, id, v, qt)
					}
				}
			}
		}
	}
}

func TestSecondaryIndexTable5(t *testing.T) {
	tab := createExample(t, 0.10)
	// Paper Table 5: secondary index on Country.
	sec, ok := tab.Secondary("Country")
	if !ok {
		t.Fatal("no Country index")
	}
	type srow struct {
		value string
		conf  float64
		id    uint64
		ptrs  int
	}
	var got []srow
	sec.Scan(nil, nil, func(k, v []byte) bool {
		value, conf, id, err := DecodeHeapKey(k)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := decodePointers(v)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, srow{value, conf, id, len(ps)})
		return true
	})
	want := []srow{
		{"Japan", 0.32, 3, 2}, // Carol: Brown, U. Tokyo
		{"US", 1.00, 2, 1},    // Bob: MIT only (UCB is cutoff)
		{"US", 0.90, 1, 2},    // Alice: Brown, MIT
		{"US", 0.48, 3, 2},    // Carol
	}
	if len(got) != len(want) {
		t.Fatalf("rows: %+v", got)
	}
	for i := range want {
		if got[i].value != want[i].value || got[i].id != want[i].id ||
			math.Abs(got[i].conf-want[i].conf) > 1e-9 || got[i].ptrs != want[i].ptrs {
			t.Fatalf("row %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestQuerySecondaryPaperExample(t *testing.T) {
	tab := createExample(t, 0.10)
	// Paper Section 3.2: Country=US with QT=80% returns Bob and Alice;
	// tailored access fetches Alice from the MIT region because Bob
	// committed us to MIT.
	for _, tailored := range []bool{false, true} {
		res, st, err := tab.QuerySecondary(context.Background(), "Country", "US", 0.8, tailored)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2 {
			t.Fatalf("tailored=%v: %d results", tailored, len(res))
		}
		names := map[string]bool{}
		for _, r := range res {
			n, _ := r.Tuple.DetValue("Name")
			names[n] = true
		}
		if !names["Alice"] || !names["Bob"] {
			t.Fatalf("tailored=%v: wrong names %v", tailored, names)
		}
		if tailored && st.ReusedPointers != 1 {
			t.Fatalf("tailored: reused = %d, want 1 (Alice via MIT)", st.ReusedPointers)
		}
	}
}

func TestQuerySecondaryMatchesPrimarySemantics(t *testing.T) {
	tab := createExample(t, 0.10)
	// Country=Japan at QT=0.3: Carol only (0.8 × 0.4 = 0.32).
	res, _, err := tab.QuerySecondary(context.Background(), "Country", "Japan", 0.3, true)
	if err != nil || len(res) != 1 {
		t.Fatalf("%v %d", err, len(res))
	}
	if name, _ := res[0].Tuple.DetValue("Name"); name != "Carol" {
		t.Fatalf("got %s", name)
	}
	if math.Abs(res[0].Confidence-0.32) > 1e-9 {
		t.Fatalf("conf = %v", res[0].Confidence)
	}
	// QT above: no results.
	res, _, _ = tab.QuerySecondary(context.Background(), "Country", "Japan", 0.5, true)
	if len(res) != 0 {
		t.Fatalf("got %d", len(res))
	}
	// Unknown secondary attr errors.
	if _, _, err := tab.QuerySecondary(context.Background(), "Nope", "x", 0.1, true); err == nil {
		t.Fatal("missing index accepted")
	}
}

func TestDeleteRemovesEverywhere(t *testing.T) {
	tab := createExample(t, 0.10)
	tuples := runningExample(t)
	if err := tab.Delete(tuples[1]); err != nil { // Bob
		t.Fatal(err)
	}
	res, _, err := tab.Query(context.Background(), "MIT", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if name, _ := r.Tuple.DetValue("Name"); name == "Bob" {
			t.Fatal("Bob still in heap")
		}
	}
	if tab.CutoffIndex().Count() != 0 {
		t.Fatal("Bob's UCB cutoff entry not removed")
	}
	res, _, _ = tab.QuerySecondary(context.Background(), "Country", "US", 0.5, true)
	for _, r := range res {
		if name, _ := r.Tuple.DetValue("Name"); name == "Bob" {
			t.Fatal("Bob still in secondary index")
		}
	}
}

func TestUpdate(t *testing.T) {
	tab := createExample(t, 0.10)
	tuples := runningExample(t)
	// Move Alice fully to MIT.
	newAlice := *tuples[0]
	d, _ := prob.NewDiscrete([]prob.Alternative{{Value: "MIT", Prob: 1.0}})
	newAlice.Unc = []tuple.UncField{
		{Name: "Institution", Dist: d},
		{Name: "Country", Dist: tuples[0].Unc[1].Dist},
	}
	if err := tab.Update(tuples[0], &newAlice); err != nil {
		t.Fatal(err)
	}
	res, _, err := tab.Query(context.Background(), "MIT", 0.89)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if name, _ := r.Tuple.DetValue("Name"); name == "Alice" {
			found = true
			if math.Abs(r.Confidence-0.9) > 1e-9 {
				t.Fatalf("Alice conf = %v", r.Confidence)
			}
		}
	}
	if !found {
		t.Fatal("updated Alice not found at MIT")
	}
	if res, _, _ := tab.Query(context.Background(), "Brown", 0.0); len(res) != 1 {
		t.Fatalf("Brown should only hold Carol now, got %d", len(res))
	}
}

func TestTopK(t *testing.T) {
	tab := createExample(t, 0.10)
	res, _, err := tab.TopK(context.Background(), "MIT", 1)
	if err != nil || len(res) != 1 {
		t.Fatalf("%v %d", err, len(res))
	}
	if name, _ := res[0].Tuple.DetValue("Name"); name != "Bob" {
		t.Fatalf("top1 = %s", name)
	}
	res, _, err = tab.TopK(context.Background(), "MIT", 5)
	if err != nil || len(res) != 2 {
		t.Fatalf("top5: %v %d", err, len(res))
	}
	// Top-k must see cutoff entries too: UCB has only a cutoff entry.
	res, _, err = tab.TopK(context.Background(), "UCB", 3)
	if err != nil || len(res) != 1 {
		t.Fatalf("UCB topk: %v %d", err, len(res))
	}
	if name, _ := res[0].Tuple.DetValue("Name"); name != "Bob" {
		t.Fatalf("UCB top = %s", name)
	}
	if res, _, _ := tab.TopK(context.Background(), "MIT", 0); res != nil {
		t.Fatal("k=0 should return nothing")
	}
}

func TestMaxPointersCap(t *testing.T) {
	fs := newFS()
	tab, err := Create(fs, "t", "X", []string{"Y"}, Options{Cutoff: 0, MaxPointers: 2, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := prob.NewDiscrete([]prob.Alternative{
		{Value: "a", Prob: 0.4}, {Value: "b", Prob: 0.3}, {Value: "c", Prob: 0.2}, {Value: "d", Prob: 0.1},
	})
	y, _ := prob.NewDiscrete([]prob.Alternative{{Value: "q", Prob: 1.0}})
	tup := &tuple.Tuple{ID: 1, Existence: 1, Unc: []tuple.UncField{{Name: "X", Dist: x}, {Name: "Y", Dist: y}}}
	if err := tab.Insert(tup); err != nil {
		t.Fatal(err)
	}
	sec, _ := tab.Secondary("Y")
	sec.Scan(nil, nil, func(_, v []byte) bool {
		ps, err := decodePointers(v)
		if err != nil || len(ps) != 2 {
			t.Fatalf("pointers: %+v %v", ps, err)
		}
		return true
	})
	// Query via secondary must still work with capped pointers.
	res, _, err := tab.QuerySecondary(context.Background(), "Y", "q", 0.5, true)
	if err != nil || len(res) != 1 {
		t.Fatalf("%v %d", err, len(res))
	}
}

func TestBulkBuildEquivalentToInserts(t *testing.T) {
	tuples := runningExample(t)
	ins := createExample(t, 0.10)
	bulk, err := BulkBuild(newFS(), "author", "Institution", []string{"Country"}, Options{Cutoff: 0.10, PageSize: 512}, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Heap().Count() != bulk.Heap().Count() ||
		ins.CutoffIndex().Count() != bulk.CutoffIndex().Count() {
		t.Fatalf("counts differ: heap %d/%d cutoff %d/%d",
			ins.Heap().Count(), bulk.Heap().Count(), ins.CutoffIndex().Count(), bulk.CutoffIndex().Count())
	}
	for _, qt := range []float64{0.05, 0.2, 0.6} {
		for _, v := range []string{"MIT", "Brown", "UCB", "U. Tokyo"} {
			a, _, err := ins.Query(context.Background(), v, qt)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := bulk.Query(context.Background(), v, qt)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("%s@%v: %d vs %d", v, qt, len(a), len(b))
			}
			for i := range a {
				if a[i].Tuple.ID != b[i].Tuple.ID || math.Abs(a[i].Confidence-b[i].Confidence) > 1e-9 {
					t.Fatalf("%s@%v result %d differs", v, qt, i)
				}
			}
		}
	}
}

func TestOpenRoundTrip(t *testing.T) {
	fs := newFS()
	opts := Options{Cutoff: 0.10, PageSize: 512}
	tab, err := Create(fs, "author", "Institution", []string{"Country"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range runningExample(t) {
		if err := tab.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(fs, "author", "Institution", []string{"Country"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := re.Query(context.Background(), "MIT", 0.1)
	if err != nil || len(res) != 2 {
		t.Fatalf("reopened query: %v %d", err, len(res))
	}
	if re.SizeBytes() == 0 {
		t.Fatal("SizeBytes = 0")
	}
	if len(re.Files()) != 3 {
		t.Fatalf("files: %v", re.Files())
	}
}

func TestOptionsValidate(t *testing.T) {
	if _, err := Create(newFS(), "t", "X", nil, Options{Cutoff: -0.1}); err == nil {
		t.Fatal("negative cutoff accepted")
	}
	if _, err := Create(newFS(), "t", "X", nil, Options{Cutoff: 1.0}); err == nil {
		t.Fatal("cutoff=1 accepted")
	}
	if _, err := Create(newFS(), "t", "X", []string{"X"}, Options{}); err == nil {
		t.Fatal("secondary on primary attr accepted")
	}
	if _, err := Create(newFS(), "t", "X", nil, Options{MaxPointers: -1}); err == nil {
		t.Fatal("negative MaxPointers accepted")
	}
}

func TestInsertValidation(t *testing.T) {
	tab, _ := Create(newFS(), "t", "X", nil, Options{PageSize: 512})
	bad := &tuple.Tuple{ID: 1, Existence: 2}
	if err := tab.Insert(bad); err == nil {
		t.Fatal("invalid tuple accepted")
	}
	noAttr := &tuple.Tuple{ID: 1, Existence: 1}
	if err := tab.Insert(noAttr); err == nil {
		t.Fatal("tuple without primary attr accepted")
	}
}

// TestUPIScanIsSequential verifies the headline physical property: a
// non-selective PTQ on the UPI is answered with sequential I/O.
func TestUPIScanIsSequential(t *testing.T) {
	disk := sim.NewDisk(sim.DefaultParams())
	fs := storage.NewFS(disk)
	var tuples []*tuple.Tuple
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		v := "common"
		if i%10 != 0 {
			v = fmt.Sprintf("rare%04d", i)
		}
		d, err := prob.NewDiscrete([]prob.Alternative{{Value: v, Prob: 0.9}, {Value: "other" + fmt.Sprint(i%7), Prob: 0.1}})
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, &tuple.Tuple{
			ID: uint64(i + 1), Existence: 0.8 + 0.2*rng.Float64(),
			Unc:     []tuple.UncField{{Name: "X", Dist: d}},
			Payload: bytes.Repeat([]byte{1}, 100),
		})
	}
	tab, err := BulkBuild(fs, "t", "X", nil, Options{Cutoff: 0.2}, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	before := disk.Stats()
	res, _, err := tab.Query(context.Background(), "common", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 200 {
		t.Fatalf("query too selective for this test: %d", len(res))
	}
	d := disk.Stats().Sub(before)
	if d.Seeks > 10 {
		t.Fatalf("UPI PTQ should be ~1 seek + sequential scan, got %+v", d)
	}
}

// TestFullScanAllocationsFollowMatches: a full scan filters on the
// encoded row and builds a tuple only for a result, so its allocations
// grow with the matches, not with the heap entries it walks. Two warm
// tables hold the same 50 matching tuples among 1 000 and 4 000 others.
func TestFullScanAllocationsFollowMatches(t *testing.T) {
	const matches = 50
	build := func(others int) *Table {
		var tuples []*tuple.Tuple
		for i := 0; i < matches+others; i++ {
			inst, country := fmt.Sprintf("inst%04d", i), "Elsewhere"
			if i < matches {
				country = "Japan"
			}
			instD, err := prob.NewDiscrete([]prob.Alternative{{Value: inst, Prob: 0.7}, {Value: "MIT", Prob: 0.3}})
			if err != nil {
				t.Fatal(err)
			}
			countryD, err := prob.NewDiscrete([]prob.Alternative{{Value: country, Prob: 1}})
			if err != nil {
				t.Fatal(err)
			}
			tuples = append(tuples, &tuple.Tuple{
				ID: uint64(i + 1), Existence: 0.9,
				Det:     []tuple.DetField{{Name: "Name", Value: fmt.Sprint("author", i)}},
				Unc:     []tuple.UncField{{Name: "Institution", Dist: instD}, {Name: "Country", Dist: countryD}},
				Payload: bytes.Repeat([]byte{1}, 64),
			})
		}
		tab, err := BulkBuild(newFS(), "t", "Institution", nil, Options{Cutoff: 0.1, CachePages: 4096}, tuples)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	measure := func(tab *Table) (allocs float64, entries int) {
		scan := func() {
			res, stats, err := drainCursor(tab.ScanCursor(context.Background(), "Country", "Japan", 0.5))
			if err != nil || len(res) != matches {
				t.Fatalf("full scan: %d results, err %v", len(res), err)
			}
			entries = stats.HeapEntries
		}
		scan() // warm the buffer pool: pager misses allocate per page
		return testing.AllocsPerRun(5, scan), entries
	}
	small, smallEntries := measure(build(1000))
	large, largeEntries := measure(build(4000))
	t.Logf("%d entries: %.0f allocations; %d entries: %.0f allocations", smallEntries, small, largeEntries, large)
	if largeEntries < 3*smallEntries {
		t.Fatalf("tables hold %d and %d heap entries; want about 4x", smallEntries, largeEntries)
	}
	// Per entry the scan may grow its dedup map and parse leaf pages,
	// nothing more: well under one allocation per 20 entries, where
	// decoding every row cost 17 per entry.
	if extra := large - small; extra > float64(largeEntries-smallEntries)/20 {
		t.Fatalf("%d more heap entries cost %.0f more allocations", largeEntries-smallEntries, extra)
	}
	if perMatch := small / matches; perMatch > 12 {
		t.Fatalf("%.1f allocations per matching row", perMatch)
	}
}

// TestHeapCursorYieldsUnbuiltRows: QueryCursor and TopKCursor hand out
// what the heap scan validated, unbuilt — ID and confidence readable,
// the tuple one Build away and equal to what the materialized call
// returns — while rows chased through the cutoff index arrive built;
// Query and TopK return every row built, with no view left in it. The
// cursor's allocations do not follow the rows it yields.
func TestHeapCursorYieldsUnbuiltRows(t *testing.T) {
	var tuples []*tuple.Tuple
	for i := 0; i < 600; i++ {
		p := 0.2 + float64(i%70)/100
		if i%3 == 0 {
			p = 0.05 // below the cutoff: a cutoff-index pointer, not a heap entry
		}
		d, err := prob.NewDiscrete([]prob.Alternative{{Value: fmt.Sprintf("inst%04d", i), Prob: 0.95 - p}, {Value: "MIT", Prob: p}})
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, &tuple.Tuple{ID: uint64(i + 1), Existence: 1,
			Unc: []tuple.UncField{{Name: "Institution", Dist: d}}, Payload: bytes.Repeat([]byte{1}, 64)})
	}
	tab, err := BulkBuild(newFS(), "t", "Institution", nil, Options{Cutoff: 0.1, CachePages: 4096}, tuples)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, _, err := tab.Query(ctx, "MIT", 0.01)
	if err != nil || len(want) != 600 {
		t.Fatalf("Query: %d rows, err %v", len(want), err)
	}
	for _, r := range want {
		if r.Tuple == nil || !reflect.DeepEqual(r, Result{Tuple: r.Tuple, Confidence: r.Confidence}) {
			t.Fatalf("Query returned an unbuilt row: %+v", r)
		}
	}
	c := tab.QueryCursor(ctx, "MIT", 0.01)
	defer c.Close()
	unbuilt := 0
	for i := 0; ; i++ {
		r, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(want) {
				t.Fatalf("cursor yielded %d rows, Query %d", i, len(want))
			}
			break
		}
		if r.Tuple == nil {
			unbuilt++
			if r.Confidence < 0.1 {
				t.Fatalf("row %d (confidence %v) is below the cutoff yet unbuilt", r.ID(), r.Confidence)
			}
		}
		if r.ID() != want[i].Tuple.ID || r.Confidence != want[i].Confidence || !reflect.DeepEqual(r.Build(), want[i]) {
			t.Fatalf("row %d: cursor %d/%v, Query %d/%v", i, r.ID(), r.Confidence, want[i].Tuple.ID, want[i].Confidence)
		}
	}
	if unbuilt != 400 {
		t.Fatalf("%d rows arrived unbuilt, want the 400 heap entries", unbuilt)
	}
	top, _, err := tab.TopK(ctx, "MIT", 5)
	if err != nil || !reflect.DeepEqual(top, want[:5]) {
		t.Fatalf("TopK: %v, err %v", top, err)
	}

	drain := func(qt float64, rows int) float64 {
		return testing.AllocsPerRun(10, func() {
			c := tab.QueryCursor(ctx, "MIT", qt)
			defer c.Close()
			n := 0
			for {
				_, ok, err := c.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
			if n != rows {
				t.Fatalf("qt %v: %d rows, want %d", qt, n, rows)
			}
		})
	}
	few, many := drain(0.85, 26), drain(0.1, 400)
	t.Logf("heap cursor: %.0f allocations for 26 rows, %.0f for 400", few, many)
	if many > few+6 { // a few more leaf slot tables, nothing per row
		t.Fatalf("the heap cursor allocates per row: %.0f for 26 rows, %.0f for 400", few, many)
	}
}

// TestTailoredSecondaryAllocationsPerRow: tailored secondary access
// chooses each entry's pointer from the encoded list and builds every
// heap key into one buffer, so what a row costs beyond the index and
// heap lookups is its tuple: two warm tables answering 100 and 500
// rows differ by the tuples' allocations and the results slice, not by
// pointer lists, their value strings or per-row keys.
func TestTailoredSecondaryAllocationsPerRow(t *testing.T) {
	build := func(matches int) *Table {
		var tuples []*tuple.Tuple
		for i := 0; i < matches+300; i++ {
			country := "Elsewhere"
			if i < matches {
				country = "Japan"
			}
			// Three heap alternatives per tuple: a three-pointer list.
			instD, err := prob.NewDiscrete([]prob.Alternative{
				{Value: fmt.Sprintf("institution-%04d", i%40), Prob: 0.5},
				{Value: "MIT", Prob: 0.3}, {Value: "Brown University", Prob: 0.2}})
			if err != nil {
				t.Fatal(err)
			}
			countryD, err := prob.NewDiscrete([]prob.Alternative{{Value: country, Prob: 1}})
			if err != nil {
				t.Fatal(err)
			}
			tuples = append(tuples, &tuple.Tuple{
				ID: uint64(i + 1), Existence: 0.9,
				Det:     []tuple.DetField{{Name: "Name", Value: fmt.Sprint("author", i)}},
				Unc:     []tuple.UncField{{Name: "Institution", Dist: instD}, {Name: "Country", Dist: countryD}},
				Payload: bytes.Repeat([]byte{1}, 64),
			})
		}
		tab, err := BulkBuild(newFS(), "t", "Institution", []string{"Country"}, Options{Cutoff: 0.1, CachePages: 4096}, tuples)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	measure := func(matches int) float64 {
		tab := build(matches)
		query := func() {
			res, stats, err := tab.QuerySecondary(context.Background(), "Country", "Japan", 0.5, true)
			if err != nil || len(res) != matches || stats.SecondaryEntries != matches {
				t.Fatalf("tailored secondary: %d results, %d entries, err %v", len(res), stats.SecondaryEntries, err)
			}
		}
		query() // warm the buffer pool: pager misses allocate per page
		return testing.AllocsPerRun(5, query)
	}
	small, large := measure(100), measure(500)
	perRow := (large - small) / 400
	t.Logf("100 rows: %.0f allocations; 500 rows: %.0f; %.2f per row", small, large, perRow)
	// Building the tuple is 7 for this shape; the pointer list (1 + 3)
	// and the key (4, grown from nothing) were 8 more.
	if perRow > 7.5 {
		t.Fatalf("%.2f allocations per row, want <= 7.5", perRow)
	}
}

// TestViewChargesItsRecorder: a query through a view charges its tape
// and not the disk, and replaying the tape charges what the same query
// run plainly charges the disk, cold. The handle — tape and view — costs
// two allocations.
func TestViewChargesItsRecorder(t *testing.T) {
	tab := createExample(t, 0.1)
	ctx := context.Background()
	disk := tab.fs.Disk()
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	before := disk.Stats()
	want, _, err := tab.Query(ctx, "MIT", 0)
	if err != nil {
		t.Fatal(err)
	}
	plain := disk.Stats().Sub(before)

	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	tape := sim.NewTape()
	before = disk.Stats()
	got, _, err := tab.View(tape).Query(ctx, "MIT", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := disk.Stats().Sub(before); d != (sim.Stats{}) {
		t.Fatalf("a query through a view charged the disk %v", d)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("view answered %v, table %v", got, want)
	}
	if cost := disk.Replay(tape); cost != plain.Elapsed || cost == 0 {
		t.Fatalf("tape replays %v, the plain query charged %v", cost, plain.Elapsed)
	}
	if allocs := testing.AllocsPerRun(100, func() { tab.View(sim.NewTape()) }); allocs > 2 {
		t.Fatalf("a tape and a view cost %v allocations, want at most 2", allocs)
	}
}

// TestCutoffChaseAllocationsPerRow: the cutoff-index chase reads each
// entry's one pointer in place and builds every heap key into one
// buffer, so what a chased row costs beyond the index and heap lookups
// is its tuple: two warm tables chasing 100 and 500 pointers differ by
// the tuples' allocations and amortized slice growth, not by a pointer
// slice, a value string and a key per pointer.
func TestCutoffChaseAllocationsPerRow(t *testing.T) {
	build := func(matches int) *Table {
		var tuples []*tuple.Tuple
		for i := 0; i < matches+300; i++ {
			rare := "Elsewhere"
			if i < matches {
				rare = "Tiny College"
			}
			// The rare alternative's confidence (0.9 * 0.05) is below
			// the cutoff: it lives only in the cutoff index.
			instD, err := prob.NewDiscrete([]prob.Alternative{
				{Value: fmt.Sprintf("institution-%04d", i%40), Prob: 0.95}, {Value: rare, Prob: 0.05}})
			if err != nil {
				t.Fatal(err)
			}
			tuples = append(tuples, &tuple.Tuple{
				ID: uint64(i + 1), Existence: 0.9,
				Det:     []tuple.DetField{{Name: "Name", Value: fmt.Sprint("author", i)}},
				Unc:     []tuple.UncField{{Name: "Institution", Dist: instD}},
				Payload: bytes.Repeat([]byte{1}, 64),
			})
		}
		tab, err := BulkBuild(newFS(), "t", "Institution", nil, Options{Cutoff: 0.1, CachePages: 4096}, tuples)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	measure := func(matches int) float64 {
		tab := build(matches)
		query := func() {
			res, stats, err := tab.Query(context.Background(), "Tiny College", 0.01)
			if err != nil || len(res) != matches || stats.CutoffPointers != matches {
				t.Fatalf("cutoff chase: %d results, %d pointers, err %v", len(res), stats.CutoffPointers, err)
			}
		}
		query() // warm the buffer pool: pager misses allocate per page
		return testing.AllocsPerRun(5, query)
	}
	small, large := measure(100), measure(500)
	perRow := (large - small) / 400
	t.Logf("100 rows: %.0f allocations; 500 rows: %.0f; %.2f per row", small, large, perRow)
	// Building the tuple and growing the slices is 6 for this shape (7
	// under the race detector); a pointer slice, its value string and a
	// heap key per pointer were 3 more.
	if perRow > 7.5 {
		t.Fatalf("%.2f allocations per row, want <= 7.5", perRow)
	}
}
