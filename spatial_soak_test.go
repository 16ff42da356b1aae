package upidb

// Concurrent spatial soak: goroutines insert observations while others
// run circle and segment queries through every consumption mode
// (materialized Run, streaming Run, partial streams, legacy wrappers),
// then the final state is validated against exact ground truth. Run
// under -race in CI; against the pre-lock cupi.Table this fails
// immediately with a data-race report on the rows map and the in-place
// R-Tree mutation.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
)

const (
	soakArea    = 1000.0
	soakSegs    = 9
	soakRadius  = 220.0
	soakCircTh  = 0.4
	soakSegQT   = 0.3
	soakSpatial = "spatial-soak"
)

// soakObs is deterministic in id: same ID, same observation.
func soakObs(id uint64) *Observation {
	x := float64((id*131)%1000) / 1000 * soakArea
	y := float64((id*197)%1000) / 1000 * soakArea
	p := 0.35 + float64((id*13)%60)/100
	seg, err := NewDiscrete([]Alternative{
		{Value: fmt.Sprintf("seg%02d", id%soakSegs), Prob: p},
		{Value: fmt.Sprintf("seg%02d", (id+1)%soakSegs), Prob: (1 - p) * 0.9},
	})
	if err != nil {
		panic(err)
	}
	return &Observation{
		ID:      id,
		Loc:     ConstrainedGaussian{Center: Point{X: x, Y: y}, Sigma: 12, Bound: 36},
		Segment: seg,
	}
}

// soakCircleTruth computes the exact circle answer over a set of IDs.
func soakCircleTruth(ids []uint64, q Point, radius, th float64) map[uint64]float64 {
	out := make(map[uint64]float64)
	for _, id := range ids {
		o := soakObs(id)
		if p := o.Loc.ProbInCircle(q, radius); p >= th {
			out[id] = p
		}
	}
	return out
}

// soakSegTruth computes the exact segment answer over a set of IDs.
func soakSegTruth(ids []uint64, seg string, qt float64) map[uint64]float64 {
	out := make(map[uint64]float64)
	for _, id := range ids {
		o := soakObs(id)
		if p := o.Segment.P(seg); p > 0 && p >= qt {
			out[id] = p
		}
	}
	return out
}

func TestSoakConcurrentSpatial(t *testing.T) {
	perWriter := 400
	queryRounds := 40
	if testing.Short() {
		perWriter = 120
		queryRounds = 15
	}
	const (
		writers = 2
		readers = 2
		baseN   = 500
	)

	baseIDs := make([]uint64, baseN)
	var base []*Observation
	for i := range baseIDs {
		baseIDs[i] = uint64(i + 1)
		base = append(base, soakObs(baseIDs[i]))
	}
	db := mustCreate(t)
	tab, err := db.BulkLoadSpatial(soakSpatial, base)
	if err != nil {
		t.Fatal(err)
	}

	queryPoints := []Point{{X: 250, Y: 250}, {X: 700, Y: 400}, {X: 500, Y: 800}}
	// Base observations are visible to every query snapshot, so each
	// query's answer must contain at least the base ground truth.
	baseCircle := make([]map[uint64]float64, len(queryPoints))
	for i, q := range queryPoints {
		baseCircle[i] = soakCircleTruth(baseIDs, q, soakRadius, soakCircTh)
		if len(baseCircle[i]) < 3 {
			t.Fatalf("query point %d matches only %d base observations; workload too sparse", i, len(baseCircle[i]))
		}
	}
	baseSeg := soakSegTruth(baseIDs, "seg03", soakSegQT)
	if len(baseSeg) < 10 {
		t.Fatalf("segment workload too sparse: %d base matches", len(baseSeg))
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := uint64(10_000 * (w + 1))
			for i := 0; i < perWriter; i++ {
				if err := tab.Insert(soakObs(start + uint64(i))); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	checkCircle := func(rs []SpatialResult, qi int) error {
		q := queryPoints[qi]
		seen := make(map[uint64]bool, len(rs))
		for _, r := range rs {
			if seen[r.Obs.ID] {
				return fmt.Errorf("duplicate result %d", r.Obs.ID)
			}
			seen[r.Obs.ID] = true
			if r.Confidence < soakCircTh {
				return fmt.Errorf("result %d below threshold: %v", r.Obs.ID, r.Confidence)
			}
			want := soakObs(r.Obs.ID).Loc.ProbInCircle(q, soakRadius)
			if math.Abs(want-r.Confidence) > 1e-9 {
				return fmt.Errorf("result %d confidence %v, want %v", r.Obs.ID, r.Confidence, want)
			}
		}
		for id := range baseCircle[qi] {
			if !seen[id] {
				return fmt.Errorf("base observation %d missing from snapshot answer", id)
			}
		}
		return nil
	}

	for rr := 0; rr < readers; rr++ {
		wg.Add(1)
		go func(rr int) {
			defer wg.Done()
			for i := 0; i < queryRounds; i++ {
				qi := (rr + i) % len(queryPoints)
				// Materialized consumption.
				res, err := tab.Run(ctx, Circle(queryPoints[qi], soakRadius, soakCircTh))
				if err != nil {
					errs <- err
					return
				}
				if err := checkCircle(res.Collect(), qi); err != nil {
					errs <- fmt.Errorf("reader %d round %d collect: %w", rr, i, err)
					return
				}
				// Streaming consumption, fully drained.
				res, err = tab.Run(ctx, Circle(queryPoints[qi], soakRadius, soakCircTh))
				if err != nil {
					errs <- err
					return
				}
				var streamed []SpatialResult
				for r, err := range res.All() {
					if err != nil {
						errs <- err
						return
					}
					streamed = append(streamed, r)
				}
				if err := checkCircle(streamed, qi); err != nil {
					errs <- fmt.Errorf("reader %d round %d stream: %w", rr, i, err)
					return
				}
				// Partially drained stream: must release the table so
				// writers keep making progress.
				res, err = tab.Run(ctx, Circle(queryPoints[qi], soakRadius, soakCircTh))
				if err != nil {
					errs <- err
					return
				}
				for _, err := range res.All() {
					if err != nil {
						errs <- err
						return
					}
					break
				}
				// Segment query, collected.
				sres, err := tab.Run(ctx, Segment("seg03", soakSegQT))
				if err != nil {
					errs <- err
					return
				}
				rs := sres.Collect()
				seen := make(map[uint64]bool, len(rs))
				for _, r := range rs {
					if seen[r.Obs.ID] {
						errs <- fmt.Errorf("duplicate segment result %d", r.Obs.ID)
						return
					}
					seen[r.Obs.ID] = true
					want := soakObs(r.Obs.ID).Segment.P("seg03")
					if math.Abs(want-r.Confidence) > 1e-12 || r.Confidence < soakSegQT {
						errs <- fmt.Errorf("segment result %d confidence %v, want %v", r.Obs.ID, r.Confidence, want)
						return
					}
				}
				for id := range baseSeg {
					if !seen[id] {
						errs <- fmt.Errorf("base observation %d missing from segment answer", id)
						return
					}
				}
			}
		}(rr)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesced: exact ground truth over base + all inserted IDs.
	allIDs := append([]uint64(nil), baseIDs...)
	for w := 0; w < writers; w++ {
		start := uint64(10_000 * (w + 1))
		for i := 0; i < perWriter; i++ {
			allIDs = append(allIDs, start+uint64(i))
		}
	}
	for qi, q := range queryPoints {
		truth := soakCircleTruth(allIDs, q, soakRadius, soakCircTh)
		res, err := tab.Run(ctx, Circle(q, soakRadius, soakCircTh))
		if err != nil {
			t.Fatal(err)
		}
		got := res.Collect()
		if len(got) != len(truth) {
			t.Fatalf("final circle %d: %d results, want %d", qi, len(got), len(truth))
		}
		for _, r := range got {
			if want, ok := truth[r.Obs.ID]; !ok || math.Abs(want-r.Confidence) > 1e-9 {
				t.Fatalf("final circle %d: result %d mismatch", qi, r.Obs.ID)
			}
		}
	}
	truth := soakSegTruth(allIDs, "seg03", soakSegQT)
	segRes, err := tab.Run(ctx, Segment("seg03", soakSegQT))
	if err != nil {
		t.Fatal(err)
	}
	legacy := segRes.Collect()
	if len(legacy) != len(truth) {
		t.Fatalf("final segment: %d results, want %d", len(legacy), len(truth))
	}
	for _, r := range legacy {
		if want, ok := truth[r.Obs.ID]; !ok || math.Abs(want-r.Confidence) > 1e-12 {
			t.Fatalf("final segment: result %d mismatch", r.Obs.ID)
		}
	}
}
