package cupi

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"upidb/internal/prob"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// TestSpatialHistory drives seeded random histories on both heap
// layouts. A history interleaves inserts, inserts that fail at every
// insert stage, retries of the failed IDs at their old location or a
// moved one, refused duplicates, and circle and segment queries. After
// every step both routes of each query must equal a brute force over
// the committed observations with no ID twice, and the heap must hold
// exactly the committed rows. Each history ends with an insert whose
// tombstone fails too, after which the table refuses every call with
// ErrClosed.
func TestSpatialHistory(t *testing.T) {
	eachLayout(t, func(t *testing.T, opts Options) {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				runSpatialHistory(t, rand.New(rand.NewSource(seed)), opts, 150)
			})
		}
	})
}

var errInjected = errors.New("injected")

// histObs returns observation id at a random location, on one to three
// of six road segments.
func histObs(rng *rand.Rand, id uint64) *tuple.Observation {
	n := 1 + rng.Intn(3)
	segs := rng.Perm(6)
	alts := make([]prob.Alternative, n)
	rest := 1.0
	for i := range alts {
		p := rest
		if i < n-1 {
			p = rest * (0.3 + 0.5*rng.Float64())
		}
		alts[i] = prob.Alternative{Value: fmt.Sprintf("s%d", segs[i]), Prob: p}
		rest -= p
	}
	seg, err := prob.NewDiscrete(alts)
	if err != nil {
		panic(err)
	}
	return relocated(rng, &tuple.Observation{ID: id, Segment: seg})
}

// relocated returns a copy of o at a fresh random location.
func relocated(rng *rand.Rand, o *tuple.Observation) *tuple.Observation {
	c := *o
	sigma := 2 + 18*rng.Float64()
	c.Loc = prob.ConstrainedGaussian{Center: prob.Point{X: 1000 * rng.Float64(), Y: 1000 * rng.Float64()}, Sigma: sigma, Bound: 3 * sigma}
	return &c
}

// failAt makes tab's inserts fail at the given stages.
func failAt(tab *Table, stages ...string) {
	tab.insertFail = func(s string) error {
		if slices.Contains(stages, s) {
			return errInjected
		}
		return nil
	}
}

// randomStage returns one of the index stages o's insert passes.
func randomStage(rng *rand.Rand, o *tuple.Observation) string {
	stages := []string{"heap", "rtree"}
	for i := range o.Segment {
		stages = append(stages, fmt.Sprintf("seg:%d", i))
	}
	return stages[rng.Intn(len(stages))]
}

func runSpatialHistory(t *testing.T, rng *rand.Rand, opts Options, steps int) {
	committed := make(map[uint64]*tuple.Observation)
	var base []*tuple.Observation
	for id := uint64(1); id <= 60; id++ {
		base = append(base, histObs(rng, id))
		committed[id] = base[len(base)-1]
	}
	tab, err := BulkBuild(newFS(), "h", base, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkHistory(t, rng, tab, committed)

	var failed []*tuple.Observation // observations whose last insert failed
	next := uint64(len(base) + 1)
	failures := make(map[string]int)
	retries := make(map[string]int)
	for step := 0; step < steps; step++ {
		var o *tuple.Observation
		retry := ""
		switch {
		case len(failed) > 0 && rng.Intn(3) == 0:
			k := rng.Intn(len(failed))
			o, retry = failed[k], "same"
			failed = slices.Delete(failed, k, k+1)
			if rng.Intn(2) == 0 {
				o, retry = relocated(rng, o), "moved"
			}
		case rng.Intn(10) == 0:
			dup := committed[uint64(1+rng.Intn(int(next-1)))]
			if dup == nil {
				continue
			}
			if err := tab.Insert(relocated(rng, dup)); err == nil {
				t.Fatalf("step %d: duplicate ID %d accepted", step, dup.ID)
			}
			checkHistory(t, rng, tab, committed)
			continue
		default:
			o = histObs(rng, next)
			next++
		}
		stage := ""
		if rng.Intn(5) < 2 {
			stage = randomStage(rng, o)
			failAt(tab, stage)
		}
		err := tab.Insert(o)
		tab.insertFail = nil
		switch {
		case stage == "" && err != nil:
			t.Fatalf("step %d: insert %d: %v", step, o.ID, err)
		case stage == "":
			committed[o.ID] = o
			if retry != "" {
				retries[retry]++
			}
		case !errors.Is(err, errInjected) || errors.Is(err, upi.ErrClosed):
			t.Fatalf("step %d: insert %d failing at %s: %v, want the injected failure alone", step, o.ID, stage, err)
		default:
			failed = append(failed, o)
			failures[stage]++
		}
		checkHistory(t, rng, tab, committed)
	}
	for _, stage := range []string{"heap", "rtree", "seg:0", "seg:1"} {
		if failures[stage] == 0 {
			t.Fatalf("no insert failed at %s: %v", stage, failures)
		}
	}
	if retries["same"] == 0 || retries["moved"] == 0 {
		t.Fatalf("committed retries %v: a retry kind went untested", retries)
	}

	// A failed insert whose tombstone fails too closes the table.
	o := histObs(rng, next)
	failAt(tab, randomStage(rng, o), "tombstone")
	if err := tab.Insert(o); !errors.Is(err, errInjected) || !errors.Is(err, upi.ErrClosed) {
		t.Fatalf("insert with a failed tombstone: %v, want the injected failure and ErrClosed", err)
	}
	tab.insertFail = nil
	ctx := context.Background()
	_, _, circleErr := tab.QueryCircle(ctx, prob.Point{X: 500, Y: 500}, 1e6, 0)
	_, _, segErr := tab.QuerySegment(ctx, "s0", 0)
	_, _, circleCurErr := drainCursor(tab.CircleCursor(ctx, prob.Point{X: 500, Y: 500}, 1e6, 0))
	_, _, segCurErr := drainCursor(tab.SegmentCursor(ctx, "s0", 0))
	for call, err := range map[string]error{
		"Insert":        tab.Insert(histObs(rng, next+1)),
		"QueryCircle":   circleErr,
		"QuerySegment":  segErr,
		"CircleCursor":  circleCurErr,
		"SegmentCursor": segCurErr,
	} {
		if !errors.Is(err, upi.ErrClosed) {
			t.Errorf("%s after a failed tombstone: %v, want ErrClosed", call, err)
		}
	}
	if !tab.Closed() {
		t.Error("the table does not report itself closed after a failed tombstone")
	}
}

// checkHistory holds every query route of tab to a brute force over
// the committed observations: a sweep of the whole extent, a random
// circle and a random segment query, each materialized and streamed.
func checkHistory(t *testing.T, rng *rand.Rand, tab *Table, committed map[uint64]*tuple.Observation) {
	t.Helper()
	if got := tab.Heap().Count(); got != int64(len(committed)) {
		t.Fatalf("the heap holds %d live rows, %d observations are committed", got, len(committed))
	}
	obs := slices.Collect(maps.Values(committed))
	ctx := context.Background()
	circles := []struct {
		q                 prob.Point
		radius, threshold float64
	}{
		{prob.Point{X: 500, Y: 500}, 1e6, 0},
		{prob.Point{X: 1000 * rng.Float64(), Y: 1000 * rng.Float64()}, 20 + 300*rng.Float64(), 0.05 + 0.9*rng.Float64()},
	}
	for _, c := range circles {
		want := bruteQuery(obs, c.q, c.radius, c.threshold)
		mat, _, err := tab.QueryCircle(ctx, c.q, c.radius, c.threshold)
		if err != nil {
			t.Fatal(err)
		}
		streamed, _, err := drainCursor(tab.CircleCursor(ctx, c.q, c.radius, c.threshold))
		if err != nil {
			t.Fatal(err)
		}
		matchesBrute(t, fmt.Sprintf("QueryCircle %+v", c), mat, want, committed)
		matchesBrute(t, fmt.Sprintf("CircleCursor %+v", c), streamed, want, committed)
	}
	seg, qt := fmt.Sprintf("s%d", rng.Intn(6)), 0.05+0.9*rng.Float64()
	want := make(map[uint64]float64)
	for _, o := range obs {
		if p := o.Segment.P(seg); p > 0 && p >= qt {
			want[o.ID] = p
		}
	}
	mat, _, err := tab.QuerySegment(ctx, seg, qt)
	if err != nil {
		t.Fatal(err)
	}
	streamed, _, err := drainCursor(tab.SegmentCursor(ctx, seg, qt))
	if err != nil {
		t.Fatal(err)
	}
	matchesBrute(t, fmt.Sprintf("QuerySegment %s >= %v", seg, qt), mat, want, committed)
	matchesBrute(t, fmt.Sprintf("SegmentCursor %s >= %v", seg, qt), streamed, want, committed)
}

// matchesBrute checks that got holds each ID of want once, with want's
// confidence and the committed observation.
func matchesBrute(t *testing.T, what string, got []Result, want map[uint64]float64, committed map[uint64]*tuple.Observation) {
	t.Helper()
	seen := make(map[uint64]bool, len(got))
	for _, r := range got {
		id := r.Obs.ID
		if seen[id] {
			t.Fatalf("%s: observation %d appears twice", what, id)
		}
		seen[id] = true
		if conf, ok := want[id]; !ok || conf != r.Confidence {
			t.Fatalf("%s: observation %d with confidence %v, brute force %v (present %v)", what, id, r.Confidence, conf, ok)
		}
		if !reflect.DeepEqual(r.Obs, committed[id]) {
			t.Fatalf("%s: observation %d reads %+v, committed %+v", what, id, r.Obs, committed[id])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, brute force %d", what, len(got), len(want))
	}
}
