package upidb_test

import (
	"context"
	"fmt"
	"log"

	"upidb"
)

// Example reproduces the paper's Query 1 on the running example: the
// confidence of an answer is existence × P(value) under possible-world
// semantics. Queries are descriptors executed by Run under a context;
// results stream through a range-over-func iterator.
func Example() {
	db, err := upidb.Create("")
	if err != nil {
		log.Fatal(err)
	}
	authors, err := db.CreateTable("authors", "Institution", nil,
		upidb.WithCutoff(0.10))
	if err != nil {
		log.Fatal(err)
	}

	alice, _ := upidb.NewDiscrete([]upidb.Alternative{
		{Value: "Brown", Prob: 0.8}, {Value: "MIT", Prob: 0.2},
	})
	bob, _ := upidb.NewDiscrete([]upidb.Alternative{
		{Value: "MIT", Prob: 0.95}, {Value: "UCB", Prob: 0.05},
	})
	authors.Insert(&upidb.Tuple{
		ID: 1, Existence: 0.9,
		Det: []upidb.DetField{{Name: "Name", Value: "Alice"}},
		Unc: []upidb.UncField{{Name: "Institution", Dist: alice}},
	})
	authors.Insert(&upidb.Tuple{
		ID: 2, Existence: 1.0,
		Det: []upidb.DetField{{Name: "Name", Value: "Bob"}},
		Unc: []upidb.UncField{{Name: "Institution", Dist: bob}},
	})

	// PTQ on the primary attribute ("" is shorthand for it).
	res, err := authors.Run(context.Background(), upidb.PTQ("", "MIT", 0.10))
	if err != nil {
		log.Fatal(err)
	}
	for r, err := range res.All() {
		if err != nil {
			log.Fatal(err)
		}
		name, _ := r.Tuple.DetValue("Name")
		fmt.Printf("%s: %.0f%%\n", name, r.Confidence*100)
	}
	// Output:
	// Bob: 95%
	// Alice: 18%
}

// ExampleTable_Run finds the k most likely tuples for one value of
// the clustered attribute; the UPI's confidence-descending order makes
// this a bounded scan. Per-query options chain onto the descriptor.
func ExampleTable_Run() {
	db, _ := upidb.Create("")
	authors, _ := db.CreateTable("authors", "Institution", nil)
	for i, p := range []float64{0.3, 0.9, 0.6} {
		d, _ := upidb.NewDiscrete([]upidb.Alternative{{Value: "MIT", Prob: p}})
		authors.Insert(&upidb.Tuple{ID: uint64(i + 1), Existence: 1, Unc: []upidb.UncField{
			{Name: "Institution", Dist: d},
		}})
	}
	q := upidb.TopKQuery("MIT", 2)
	res, _ := authors.Run(context.Background(), q)
	for _, r := range res.Collect() {
		fmt.Printf("tuple %d: %.1f\n", r.Tuple.ID, r.Confidence)
	}
	// Output:
	// tuple 2: 0.9
	// tuple 3: 0.6
}

// ExampleTable_Merge shows the fractured-UPI lifecycle: buffered
// writes, explicit flushes into fractures, and a merge that folds all
// fractures back into one main UPI.
func ExampleTable_Merge() {
	db, _ := upidb.Create("")
	t, _ := db.CreateTable("t", "X", nil)
	d, _ := upidb.NewDiscrete([]upidb.Alternative{{Value: "a", Prob: 1}})
	for batch := 0; batch < 3; batch++ {
		for i := 0; i < 10; i++ {
			t.Insert(&upidb.Tuple{ID: uint64(batch*10 + i + 1), Existence: 1,
				Unc: []upidb.UncField{{Name: "X", Dist: d}}})
		}
		t.Flush()
	}
	fmt.Println("fractures before merge:", t.NumFractures())
	t.Merge()
	fmt.Println("fractures after merge:", t.NumFractures())
	res, _ := t.Run(context.Background(), upidb.PTQ("", "a", 0.5))
	fmt.Println("rows:", res.Len())
	// Output:
	// fractures before merge: 3
	// fractures after merge: 0
	// rows: 30
}
