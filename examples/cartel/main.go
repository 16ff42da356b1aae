// Example cartel: continuous UPI over uncertain GPS observations —
// the paper's Queries 4 and 5 through the unified Run(ctx, Query)
// spatial API (fixed routing, EXPLAIN, streaming, per-query stats).
package main

import (
	"context"
	"fmt"
	"log"

	"upidb"
	"upidb/internal/dataset"
)

func main() {
	cfg := dataset.DefaultCartelConfig().Scaled(0.05)
	c, err := dataset.GenerateCartel(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d car observations on %d road segments\n",
		len(c.Observations), len(c.Segments))

	ctx := context.Background()
	db, err := upidb.Create("")
	if err != nil {
		log.Fatal(err)
	}
	cars, err := db.BulkLoadSpatial("cars", c.Observations)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("continuous UPI size: %.1f MB\n", float64(cars.SizeBytes())/(1<<20))

	// Query 4: all cars within 400 m of downtown with appearance
	// probability >= 0.5 — an R-Tree probe, with per-query modeled cost.
	q4 := upidb.Circle(upidb.Point{X: 0, Y: 0}, 400, 0.5)
	if err := cars.DropCaches(); err != nil {
		log.Fatal(err)
	}
	res, err := cars.Run(ctx, q4.WithStats())
	if err != nil {
		log.Fatal(err)
	}
	rs := res.Collect()
	info := res.Info()
	fmt.Printf("\nQuery 4 (within 400m of downtown, threshold 0.5): %d cars\n", len(rs))
	fmt.Printf("  %d candidates, %d fetched, modeled cost %v\n",
		info.Candidates, info.HeapEntries, info.ModeledTime)
	for _, r := range rs[:min(3, len(rs))] {
		fmt.Printf("  car %d at (%.0f, %.0f) with probability %.2f, speed %.1f m/s\n",
			r.Obs.ID, r.Obs.Loc.Center.X, r.Obs.Loc.Center.Y, r.Confidence, r.Obs.Speed)
	}

	// The same query as an EXPLAIN: the route Run takes, nothing
	// executed.
	ex, err := cars.Run(ctx, q4.WithExplain())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEXPLAIN Query 4:\n%s", ex.Info().Explain)

	// Query 5: cars on the busiest road segment, streamed on the
	// segment-index path (the default route) — results arrive in
	// confidence order while the index scan is still running.
	counts := map[string]int{}
	for _, o := range c.Observations {
		counts[o.Segment.First().Value]++
	}
	seg, best := "", 0
	for s, n := range counts {
		if n > best {
			seg, best = s, n
		}
	}
	if err := cars.DropCaches(); err != nil {
		log.Fatal(err)
	}
	res, err = cars.Run(ctx, upidb.Segment(seg, 0.3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQuery 5 (Segment=%s, QT=0.3), streaming in confidence order:\n", seg)
	n := 0
	for r, err := range res.All() {
		if err != nil {
			log.Fatal(err)
		}
		if n < 3 {
			fmt.Printf("  car %d on %s with probability %.2f\n", r.Obs.ID, seg, r.Confidence)
		}
		n++
	}
	fmt.Printf("  ... %d cars total\n", n)

	// Live insert: a new observation is immediately queryable.
	segDist, err := upidb.NewDiscrete([]upidb.Alternative{{Value: seg, Prob: 1.0}})
	if err != nil {
		log.Fatal(err)
	}
	err = cars.Insert(&upidb.Observation{
		ID:      uint64(len(c.Observations) + 1),
		Loc:     upidb.ConstrainedGaussian{Center: upidb.Point{X: 5, Y: 5}, Sigma: 20, Bound: 100},
		Segment: segDist,
		Speed:   8.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err = cars.Run(ctx, upidb.Circle(upidb.Point{X: 0, Y: 0}, 200, 0.5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter live insert, %d cars within 200m of downtown\n", res.Len())
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
