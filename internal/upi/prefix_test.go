package upi

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"upidb/internal/prob"
	"upidb/internal/tuple"
)

// TestHeapScanStaysInsideItsValue: the heap cursor takes a key as one
// of value's rows when it starts with ValuePrefix(value), and reads the
// confidence and ID at the prefix's length. Over values whose encodings
// share bytes up to the codec's escape and terminator — "" and "a"
// (terminator 0x00 0x00), "a\x00" and "a\x00b" (0x00 escaped as
// 0x00 0xFF), "ab" — QueryCursor and TopKCursor yield exactly what a
// linear scan of the tuples does, at thresholds above, at and below the
// cutoff, on pages small enough that each value spans several.
func TestHeapScanStaysInsideItsValue(t *testing.T) {
	values := []string{"", "a", "a\x00", "a\x00b", "ab"}
	rng := rand.New(rand.NewSource(50))
	var tuples []*tuple.Tuple
	for i := 0; i < 400; i++ {
		perm := rng.Perm(len(values))
		alts := make([]prob.Alternative, 0, 3)
		remaining := 1.0
		for j := 0; j < 1+rng.Intn(3); j++ {
			p := remaining * (0.2 + 0.6*rng.Float64())
			alts = append(alts, prob.Alternative{Value: values[perm[j]], Prob: p})
			remaining -= p
		}
		d, err := prob.NewDiscrete(alts)
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, &tuple.Tuple{ID: uint64(i + 1), Existence: 0.5 + rng.Float64()/2,
			Unc: []tuple.UncField{{Name: "X", Dist: d}}})
	}
	tab, err := BulkBuild(newFS(), "t", "X", nil, Options{Cutoff: 0.15, PageSize: 512}, tuples)
	if err != nil {
		t.Fatal(err)
	}

	type row struct {
		ID   uint64
		Conf float64
	}
	// model is the linear scan: every tuple whose confidence for value
	// is positive and at least qt, in (confidence DESC, ID ASC) order.
	model := func(value string, qt float64) []row {
		var out []row
		for _, tup := range tuples {
			if conf := tup.Confidence("X", value); conf > 0 && conf >= qt {
				out = append(out, row{tup.ID, conf})
			}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Conf != out[j].Conf {
				return out[i].Conf > out[j].Conf
			}
			return out[i].ID < out[j].ID
		})
		return out
	}
	drain := func(c *Cursor) []row {
		t.Helper()
		rs, _, err := drainCursor(c)
		if err != nil {
			t.Fatal(err)
		}
		var out []row
		for _, r := range rs {
			out = append(out, row{r.Tuple.ID, r.Confidence})
		}
		return out
	}
	ctx := context.Background()
	for _, value := range values {
		heapRows := 0
		for _, qt := range []float64{0, 0.1, 0.15, 0.4} {
			want := model(value, qt)
			if len(want) < 20 {
				t.Fatalf("%q at %v: %d rows; check vacuous", value, qt, len(want))
			}
			if got := drain(tab.QueryCursor(ctx, value, qt)); !reflect.DeepEqual(got, want) {
				t.Fatalf("QueryCursor(%q, %v): %d rows, model %d\n got %v\nwant %v", value, qt, len(got), len(want), got, want)
			}
			if qt == 0.4 {
				heapRows = len(want)
			}
		}
		all := model(value, 0)
		for _, k := range []int{1, heapRows, len(all), len(all) + 5} {
			want := all[:min(k, len(all))]
			if got := drain(tab.TopKCursor(ctx, value, k)); !reflect.DeepEqual(got, want) {
				t.Fatalf("TopKCursor(%q, %d): %d rows, model %d", value, k, len(got), len(want))
			}
		}
	}
}
