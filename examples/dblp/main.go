// Example dblp: analytic queries over the uncertain-DBLP-like dataset,
// reproducing the paper's motivating workload (Queries 1-3) on the
// public API and comparing the modeled cost of primary-index access
// against what a pointer-chasing secondary index would pay.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"upidb"
	"upidb/internal/dataset"
)

func main() {
	// A 1/50-scale dataset keeps this example instant; pass through
	// internal/dataset only to synthesize data — all database work
	// happens via the public upidb API.
	cfg := dataset.DefaultDBLPConfig().Scaled(0.02)
	d, err := dataset.GenerateDBLP(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d authors, %d publications\n", len(d.Authors), len(d.Publications))

	db, err := upidb.Create("")
	if err != nil {
		log.Fatal(err)
	}
	authors, err := db.BulkLoadTable("authors", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, d.Authors, upidb.WithCutoff(0.10))
	if err != nil {
		log.Fatal(err)
	}
	pubs, err := db.BulkLoadTable("pubs", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, d.Publications, upidb.WithCutoff(0.10))
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	// Query 1: authors at MIT with confidence >= 0.3.
	if err := authors.DropCaches(); err != nil {
		log.Fatal(err)
	}
	res, err := authors.Run(ctx, upidb.PTQ("", dataset.MITInstitution, 0.3))
	if err != nil {
		log.Fatal(err)
	}
	rs, info := res.Collect(), res.Info()
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQuery 1 (Institution=MIT, QT=0.3): %d authors, cost %v\n", len(rs), info.ModeledTime)
	for i, r := range rs[:min(3, len(rs))] {
		name, _ := r.Tuple.DetValue(dataset.DetName)
		fmt.Printf("  %d. %s (%.0f%%)\n", i+1, name, r.Confidence*100)
	}

	// Query 2: journal breakdown of MIT publications.
	if err := pubs.DropCaches(); err != nil {
		log.Fatal(err)
	}
	res, err = pubs.Run(ctx, upidb.PTQ("", dataset.MITInstitution, 0.3))
	if err != nil {
		log.Fatal(err)
	}
	rs, info = res.Collect(), res.Info()
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}
	byJournal := map[string]int{}
	for _, r := range rs {
		if j, ok := r.Tuple.DetValue(dataset.DetJournal); ok {
			byJournal[j]++
		}
	}
	fmt.Printf("\nQuery 2 (MIT publications GROUP BY journal, QT=0.3): %d pubs in %d journals, cost %v\n",
		len(rs), len(byJournal), info.ModeledTime)
	type jc struct {
		j string
		n int
	}
	var tops []jc
	for j, n := range byJournal {
		tops = append(tops, jc{j, n})
	}
	sort.Slice(tops, func(i, k int) bool { return tops[i].n > tops[k].n })
	for _, t := range tops[:min(3, len(tops))] {
		fmt.Printf("  %-12s %d\n", t.j, t.n)
	}

	// Query 3: publications from Japan via the Country secondary
	// index — tailored access exploits the Institution clustering.
	if err := pubs.DropCaches(); err != nil {
		log.Fatal(err)
	}
	res, err = pubs.Run(ctx, upidb.PTQ(dataset.AttrCountry, dataset.JapanCountry, 0.3))
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQuery 3 (Country=Japan via secondary index, QT=0.3): %d pubs\n", res.Len())

	// Top-k: the 5 most confident MIT authors.
	topRes, err := authors.Run(ctx, upidb.TopKQuery(dataset.MITInstitution, 5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTop-5 MIT authors by confidence:\n")
	for i, r := range topRes.Collect() {
		name, _ := r.Tuple.DetValue(dataset.DetName)
		fmt.Printf("  #%d %s (%.0f%%)\n", i+1, name, r.Confidence*100)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
