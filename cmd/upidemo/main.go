// Command upidemo walks through the paper's running example (Tables
// 1-5) end to end on a live database: it builds a UPI on the Author
// table, shows the physical layout of the heap file, cutoff index and
// secondary index, answers Query 1 at several thresholds, and explains
// the modeled cost of each query.
package main

import (
	"context"
	"fmt"
	"os"

	"upidb"
)

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "upidemo:", err)
		os.Exit(1)
	}
}

func dist(alts ...upidb.Alternative) upidb.Discrete {
	d, err := upidb.NewDiscrete(alts)
	must(err)
	return d
}

func main() {
	db, err := upidb.Create("")
	must(err)
	authors, err := db.CreateTable("authors", "Institution", []string{"Country"},
		upidb.WithCutoff(0.10))
	must(err)

	fmt.Println("Loading the paper's running example (Table 4):")
	rows := []*upidb.Tuple{
		{ID: 1, Existence: 0.9,
			Det: []upidb.DetField{{Name: "Name", Value: "Alice"}},
			Unc: []upidb.UncField{
				{Name: "Institution", Dist: dist(
					upidb.Alternative{Value: "Brown", Prob: 0.8},
					upidb.Alternative{Value: "MIT", Prob: 0.2})},
				{Name: "Country", Dist: dist(upidb.Alternative{Value: "US", Prob: 1.0})},
			}},
		{ID: 2, Existence: 1.0,
			Det: []upidb.DetField{{Name: "Name", Value: "Bob"}},
			Unc: []upidb.UncField{
				{Name: "Institution", Dist: dist(
					upidb.Alternative{Value: "MIT", Prob: 0.95},
					upidb.Alternative{Value: "UCB", Prob: 0.05})},
				{Name: "Country", Dist: dist(upidb.Alternative{Value: "US", Prob: 1.0})},
			}},
		{ID: 3, Existence: 0.8,
			Det: []upidb.DetField{{Name: "Name", Value: "Carol"}},
			Unc: []upidb.UncField{
				{Name: "Institution", Dist: dist(
					upidb.Alternative{Value: "Brown", Prob: 0.6},
					upidb.Alternative{Value: "U. Tokyo", Prob: 0.4})},
				{Name: "Country", Dist: dist(
					upidb.Alternative{Value: "US", Prob: 0.6},
					upidb.Alternative{Value: "Japan", Prob: 0.4})},
			}},
	}
	for _, r := range rows {
		name, _ := r.DetValue("Name")
		inst, _ := r.Uncertain("Institution")
		fmt.Printf("  %-6s existence=%.0f%%  institution=%v\n", name, r.Existence*100, inst)
		must(authors.Insert(r))
	}
	must(authors.Flush())

	ctx := context.Background()
	fmt.Println("\nQuery 1: SELECT * FROM Author WHERE Institution=MIT")
	for _, qt := range []float64{0.1, 0.5, 0.96} {
		must(authors.DropCaches())
		res, err := authors.Run(ctx, upidb.PTQ("", "MIT", qt))
		must(err)
		rs := res.Collect()
		fmt.Printf("  QT=%.2f -> %d rows  [%s]\n", qt, len(rs), res.Info())
		must(res.Err())
		for _, r := range rs {
			name, _ := r.Tuple.DetValue("Name")
			fmt.Printf("    %-6s confidence=%.0f%%\n", name, r.Confidence*100)
		}
	}

	fmt.Println("\nSecondary PTQ with tailored access: Country=US, QT=0.8")
	res, err := authors.Run(ctx, upidb.PTQ("Country", "US", 0.8))
	must(err)
	for r, rerr := range res.All() {
		must(rerr)
		name, _ := r.Tuple.DetValue("Name")
		fmt.Printf("  %-6s confidence=%.0f%%\n", name, r.Confidence*100)
	}

	fmt.Println("\nTop-2 most likely MIT authors:")
	res, err = authors.Run(ctx, upidb.TopKQuery("MIT", 2))
	must(err)
	for i, r := range res.Collect() {
		name, _ := r.Tuple.DetValue("Name")
		fmt.Printf("  #%d %-6s confidence=%.0f%%\n", i+1, name, r.Confidence*100)
	}

	// EXPLAIN names the fixed route a query takes, executing nothing.
	fmt.Println("\nRouting (EXPLAIN):")
	for _, q := range []upidb.Query{upidb.PTQ("Institution", "MIT", 0.05), upidb.PTQ("Country", "US", 0.8)} {
		res, err = authors.Run(ctx, q.WithExplain())
		must(err)
		fmt.Print(res.Info().Explain)
	}

	fmt.Println("\nMaintenance: delete Bob, merge fractures.")
	must(authors.Delete(2))
	must(authors.Flush())
	must(authors.Merge())
	res, err = authors.Run(ctx, upidb.PTQ("", "MIT", 0.1))
	must(err)
	fmt.Printf("  after delete+merge, Query 1 at QT=0.1 returns %d row(s)\n", res.Len())
	must(res.Err())

	st := db.DiskStats()
	fmt.Printf("\nSimulated disk totals: %s\n", st)
	fmt.Printf("Database size: %d bytes across all files\n", db.TotalSizeBytes())
}
