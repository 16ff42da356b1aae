// Quickstart: create an uncertain table, insert tuples with uncertain
// attributes, and run a probabilistic threshold query — the minimal
// end-to-end use of the upidb public API.
package main

import (
	"context"
	"fmt"
	"log"

	"upidb"
)

func main() {
	// Create("") is the in-memory database over the simulated disk:
	// hermetic, deterministic modeled I/O costs. Create(dir) instead
	// stores real files under dir with WAL durability.
	db, err := upidb.Create("")
	if err != nil {
		log.Fatal(err)
	}

	// A UPI clusters the heap file on an uncertain attribute; here
	// Institution, with a secondary index on Country and a 10% cutoff
	// threshold (alternatives below 10% confidence go to the cutoff
	// index instead of being duplicated in the heap). A query merges
	// the main UPI and all fractures on the caller's goroutine.
	authors, err := db.CreateTable("authors", "Institution", []string{"Country"},
		upidb.WithCutoff(0.10))
	if err != nil {
		log.Fatal(err)
	}

	inst, err := upidb.NewDiscrete([]upidb.Alternative{
		{Value: "Brown", Prob: 0.8},
		{Value: "MIT", Prob: 0.2},
	})
	if err != nil {
		log.Fatal(err)
	}
	country, err := upidb.NewDiscrete([]upidb.Alternative{{Value: "US", Prob: 1.0}})
	if err != nil {
		log.Fatal(err)
	}
	// Alice exists with probability 0.9 and works for Brown (80%) or
	// MIT (20%) — the paper's running example.
	err = authors.Insert(&upidb.Tuple{
		ID:        1,
		Existence: 0.9,
		Det:       []upidb.DetField{{Name: "Name", Value: "Alice"}},
		Unc: []upidb.UncField{
			{Name: "Institution", Dist: inst},
			{Name: "Country", Dist: country},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Probabilistic threshold query: everyone at MIT with confidence
	// >= 0.1. Alice qualifies with 0.9 × 0.2 = 0.18. A Query is a
	// descriptor executed by Run under a context — pass one with a
	// deadline to bound the query; here Background is fine. Results
	// stream through a range-over-func iterator.
	res, err := authors.Run(context.Background(), upidb.PTQ("", "MIT", 0.1))
	if err != nil {
		log.Fatal(err)
	}
	for r, err := range res.All() {
		if err != nil {
			log.Fatal(err)
		}
		name, _ := r.Tuple.DetValue("Name")
		fmt.Printf("%s is at MIT with confidence %.0f%%\n", name, r.Confidence*100)
	}
}
