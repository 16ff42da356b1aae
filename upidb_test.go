package upidb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func exampleTuples(t *testing.T) []*Tuple {
	t.Helper()
	mk := func(id uint64, name string, exist float64, inst, country []Alternative) *Tuple {
		instD, err := NewDiscrete(inst)
		if err != nil {
			t.Fatal(err)
		}
		countryD, err := NewDiscrete(country)
		if err != nil {
			t.Fatal(err)
		}
		return &Tuple{
			ID: id, Existence: exist,
			Det: []DetField{{Name: "Name", Value: name}},
			Unc: []UncField{
				{Name: "Institution", Dist: instD},
				{Name: "Country", Dist: countryD},
			},
		}
	}
	return []*Tuple{
		mk(1, "Alice", 0.9,
			[]Alternative{{Value: "Brown", Prob: 0.8}, {Value: "MIT", Prob: 0.2}},
			[]Alternative{{Value: "US", Prob: 1.0}}),
		mk(2, "Bob", 1.0,
			[]Alternative{{Value: "MIT", Prob: 0.95}, {Value: "UCB", Prob: 0.05}},
			[]Alternative{{Value: "US", Prob: 1.0}}),
		mk(3, "Carol", 0.8,
			[]Alternative{{Value: "Brown", Prob: 0.6}, {Value: "U. Tokyo", Prob: 0.4}},
			[]Alternative{{Value: "US", Prob: 0.6}, {Value: "Japan", Prob: 0.4}}),
	}
}

func mustCreate(t testing.TB, opts ...Option) *DB {
	t.Helper()
	db, err := Create("", opts...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFacadeEndToEnd(t *testing.T) {
	db := mustCreate(t)
	authors, err := db.CreateTable("authors", "Institution", []string{"Country"}, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range exampleTuples(t) {
		if err := authors.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	// Paper Query 1: {Alice 18%, Bob 95%}.
	res, err := authors.Run(ctx, PTQ("", "MIT", 0.1))
	if err != nil {
		t.Fatal(err)
	}
	rs := res.Collect()
	if len(rs) != 2 || math.Abs(rs[0].Confidence-0.95) > 1e-9 || math.Abs(rs[1].Confidence-0.18) > 1e-9 {
		t.Fatalf("Query 1: %+v", rs)
	}
	// Streaming iteration yields the same rows in the same order.
	res, err = authors.Run(ctx, PTQ("", "MIT", 0.1))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for r, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		if r.Tuple.ID != rs[i].Tuple.ID {
			t.Fatalf("stream diverged at %d: %+v vs %+v", i, r, rs[i])
		}
		i++
	}
	if i != res.Len() {
		t.Fatalf("stream yielded %d of %d", i, res.Len())
	}
	// Secondary PTQ with tailored access.
	res, err = authors.Run(ctx, PTQ("Country", "Japan", 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if rs := res.Collect(); len(rs) != 1 || rs[0].Tuple.ID != 3 {
		t.Fatalf("secondary: %+v", rs)
	}
	// Top-k.
	res, err = authors.Run(ctx, TopKQuery("MIT", 1))
	if err != nil {
		t.Fatal(err)
	}
	if rs := res.Collect(); len(rs) != 1 || rs[0].Tuple.ID != 2 {
		t.Fatalf("topk: %+v", rs)
	}
	// Delete and flush + merge lifecycle.
	if err := authors.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := authors.Flush(); err != nil {
		t.Fatal(err)
	}
	res, _ = authors.Run(ctx, PTQ("", "MIT", 0.1))
	if rs := res.Collect(); len(rs) != 1 || rs[0].Tuple.ID != 1 {
		t.Fatalf("after delete: %+v", rs)
	}
	if err := authors.Merge(); err != nil {
		t.Fatal(err)
	}
	if authors.NumFractures() != 0 {
		t.Fatalf("fractures after merge: %d", authors.NumFractures())
	}
	res, _ = authors.Run(ctx, PTQ("", "MIT", 0.1))
	if rs := res.Collect(); len(rs) != 1 {
		t.Fatalf("after merge: %+v", rs)
	}
	if authors.SizeBytes() == 0 || db.TotalSizeBytes() == 0 {
		t.Fatal("sizes should be positive")
	}
}

func TestFacadeQueryStats(t *testing.T) {
	db := mustCreate(t)
	authors, err := db.BulkLoadTable("authors", "Institution", []string{"Country"},
		exampleTuples(t), WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := authors.DropCaches(); err != nil {
		t.Fatal(err)
	}
	res, err := authors.Run(context.Background(), PTQ("", "MIT", 0.01))
	if err != nil {
		t.Fatal(err)
	}
	rs, info := res.Collect(), res.Info()
	if len(rs) != 2 { // MIT matches Alice 0.18, Bob 0.95
		t.Fatalf("%v %+v", err, rs)
	}
	if info.ModeledTime <= 0 || info.Partitions != 1 {
		t.Fatalf("info: %+v", info)
	}
	if info.CutoffPointers != 0 {
		t.Fatalf("no UCB cutoff pointers expected for MIT: %+v", info)
	}
	if info.String() == "" {
		t.Fatal("empty info string")
	}
	if db.DiskStats().BytesRead == 0 {
		t.Fatal("cold query should read from disk")
	}
}

func TestFacadeSpatial(t *testing.T) {
	db := mustCreate(t)
	seg, err := NewDiscrete([]Alternative{{Value: "seg-1", Prob: 0.7}, {Value: "seg-2", Prob: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	obs := []*Observation{
		{ID: 1, Loc: ConstrainedGaussian{Center: Point{X: 0, Y: 0}, Sigma: 10, Bound: 50}, Segment: seg},
		{ID: 2, Loc: ConstrainedGaussian{Center: Point{X: 1000, Y: 1000}, Sigma: 10, Bound: 50}, Segment: seg},
	}
	cars, err := db.BulkLoadSpatial("cars", obs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cres, err := cars.Run(ctx, Circle(Point{X: 0, Y: 0}, 100, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	rs := cres.Collect()
	if len(rs) != 1 || rs[0].Obs.ID != 1 {
		t.Fatalf("circle: %+v", rs)
	}
	sres, err := cars.Run(ctx, Segment("seg-1", 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if rs = sres.Collect(); len(rs) != 2 {
		t.Fatalf("segment: %+v", rs)
	}
	if err := cars.Insert(&Observation{
		ID: 3, Loc: ConstrainedGaussian{Center: Point{X: 10, Y: 10}, Sigma: 10, Bound: 50}, Segment: seg,
	}); err != nil {
		t.Fatal(err)
	}
	cres, _ = cars.Run(ctx, Circle(Point{X: 0, Y: 0}, 100, 0.5))
	if rs = cres.Collect(); len(rs) != 2 {
		t.Fatalf("after insert: %+v", rs)
	}
	if cars.SizeBytes() == 0 {
		t.Fatal("size should be positive")
	}
	if err := cars.DropCaches(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeOpenTable(t *testing.T) {
	db := mustCreate(t)
	authors, err := db.BulkLoadTable("authors", "Institution", []string{"Country"}, exampleTuples(t), WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := authors.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := db.OpenTable("authors", "Institution", []string{"Country"}, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := re.Run(context.Background(), PTQ("", "MIT", 0.1))
	if err != nil || res.Len() != 2 {
		t.Fatalf("reopened: %v %+v", err, res)
	}
	if _, err := db.OpenTable("missing", "X", nil); err == nil {
		t.Fatal("open of missing table accepted")
	}
}

// TestFacadeRefusesBadCutoff: a cutoff outside [0, 1) is refused when a
// table is created or loaded, NaN included — a NaN cutoff compares false
// against every bound, so a range test written as two comparisons lets it
// through to the manifest.
func TestFacadeRefusesBadCutoff(t *testing.T) {
	db := mustCreate(t)
	for i, c := range []float64{math.NaN(), -0.1, 1, 1.5} {
		name := fmt.Sprintf("t%d", i)
		if _, err := db.BulkLoadTable(name, "Institution", []string{"Country"}, exampleTuples(t), WithCutoff(c)); err == nil || !strings.Contains(err.Error(), "cutoff") {
			t.Fatalf("BulkLoadTable with cutoff %v: err %v, want a cutoff error", c, err)
		}
		if _, err := db.CreateTable(name, "Institution", []string{"Country"}, WithCutoff(c)); err == nil || !strings.Contains(err.Error(), "cutoff") {
			t.Fatalf("CreateTable with cutoff %v: err %v, want a cutoff error", c, err)
		}
	}
}

// TestDBClose: closing the DB closes every table and rejects further
// table creation and opening with ErrClosed; closing twice is safe.
func TestDBClose(t *testing.T) {
	db := mustCreate(t)
	tuples := exampleTuples(t)
	a, err := db.CreateTable("a", "Institution", []string{"Country"}, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range tuples {
		if err := a.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	b, err := db.BulkLoadTable("b", "Institution", []string{"Country"}, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.StartAutoMerge(AutoMergeOptions{MaxFractures: 2}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Every table is closed, mirroring Table.Close semantics.
	if _, err := a.Run(context.Background(), PTQ("", "MIT", 0.1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run on table a after DB.Close: %v", err)
	}
	if err := b.Insert(tuples[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert on table b after DB.Close: %v", err)
	}
	// New tables and lookups are rejected.
	if _, err := db.CreateTable("c", "X", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("CreateTable after Close: %v", err)
	}
	if _, err := db.BulkLoadTable("d", "X", nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("BulkLoadTable after Close: %v", err)
	}
	if _, err := db.OpenTable("b", "Institution", []string{"Country"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("OpenTable after Close: %v", err)
	}
	if _, err := db.BulkLoadSpatial("s", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("BulkLoadSpatial after Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
