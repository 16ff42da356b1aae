package tuple_test

// A Builder builds many rows into shared slabs. These tests hold it to
// three things: a slab-built row is the row Decode builds, no append to
// one row's slices can reach another row, and a batch of rows costs a
// few allocations per slab, not per row.

import (
	"math"
	"testing"

	"upidb/internal/prob"
	"upidb/internal/tuple"
)

// sameTuple compares field for field, nil-ness of slices included; floats
// compare by bits, so NaN equals NaN.
func sameTuple(a, b *tuple.Tuple) bool {
	if a.ID != b.ID || math.Float64bits(a.Existence) != math.Float64bits(b.Existence) ||
		(a.Det == nil) != (b.Det == nil) || len(a.Det) != len(b.Det) ||
		(a.Unc == nil) != (b.Unc == nil) || len(a.Unc) != len(b.Unc) ||
		(a.Payload == nil) != (b.Payload == nil) || string(a.Payload) != string(b.Payload) {
		return false
	}
	for i := range a.Det {
		if a.Det[i] != b.Det[i] {
			return false
		}
	}
	for i := range a.Unc {
		if a.Unc[i].Name != b.Unc[i].Name || !sameDist(a.Unc[i].Dist, b.Unc[i].Dist) {
			return false
		}
	}
	return true
}

func sameDist(a, b prob.Discrete) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Value != b[i].Value || math.Float64bits(a[i].Prob) != math.Float64bits(b[i].Prob) {
			return false
		}
	}
	return true
}

func sameObservation(a, b *tuple.Observation) bool {
	return a.ID == b.ID && sameLoc(a.Loc, b.Loc) &&
		math.Float64bits(a.Speed) == math.Float64bits(b.Speed) &&
		math.Float64bits(a.Direction) == math.Float64bits(b.Direction) &&
		sameDist(a.Segment, b.Segment) &&
		(a.Payload == nil) == (b.Payload == nil) && string(a.Payload) == string(b.Payload)
}

// appendsToTuple appends to every slice t holds and drops the results:
// with every slice capped, none of them writes into memory t or any
// other row can see.
func appendsToTuple(t *tuple.Tuple) {
	_ = append(t.Det, tuple.DetField{Name: "x", Value: "y"})
	_ = append(t.Unc, tuple.UncField{Name: "x"})
	for _, f := range t.Unc {
		_ = append(f.Dist, prob.Alternative{Value: "x", Prob: 0.5})
	}
	_ = append(t.Payload, 0xEE, 0xEE, 0xEE, 0xEE)
}

func appendsToObservation(o *tuple.Observation) {
	_ = append(o.Segment, prob.Alternative{Value: "x", Prob: 0.5})
	_ = append(o.Payload, 0xEE, 0xEE, 0xEE, 0xEE)
}

// checkBuilder builds an accepted encoding twice through one builder,
// into one shared slab of each kind (both rows reserved first), then a
// third time into the next, streaming-sized slabs. Each build must equal
// Decode's, and appending to any slice of one row must leave every row
// as it was.
func checkBuilder(t *testing.T, enc []byte) {
	v, err := tuple.Validate(enc)
	if err != nil {
		return
	}
	want, err := tuple.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	var b tuple.Builder
	b.Reserve(v)
	b.Reserve(v)
	rows := []*tuple.Tuple{b.Build(v), b.Build(v), b.Build(v)}
	for i, r := range rows {
		if !sameTuple(r, want) {
			t.Fatalf("build %d: %+v, Decode %+v", i, r, want)
		}
	}
	for i, r := range rows {
		appendsToTuple(r)
		for j, other := range rows {
			if !sameTuple(other, want) {
				t.Fatalf("appending to row %d changed row %d: %+v, want %+v", i, j, other, want)
			}
		}
	}
}

// checkObservationBuilder is checkBuilder for the observation codec.
func checkObservationBuilder(t *testing.T, enc []byte) {
	v, err := tuple.ValidateObservation(enc)
	if err != nil {
		return
	}
	want, err := tuple.DecodeObservation(enc)
	if err != nil {
		t.Fatal(err)
	}
	var b tuple.ObservationBuilder
	b.Reserve(v)
	b.Reserve(v)
	rows := []*tuple.Observation{b.Build(v), b.Build(v), b.Build(v)}
	for i, r := range rows {
		if !sameObservation(r, want) {
			t.Fatalf("build %d: %+v, DecodeObservation %+v", i, r, want)
		}
	}
	for i, r := range rows {
		appendsToObservation(r)
		for j, other := range rows {
			if !sameObservation(other, want) {
				t.Fatalf("appending to row %d changed row %d: %+v, want %+v", i, j, other, want)
			}
		}
	}
}

// TestBuilderAllocatesPerSlab: an unreserved stream makes one slab of
// each kind for its first row and one per SlabRows rows after it; a
// batch reserved in full makes one of each kind. An author has Det, Unc,
// alternatives, a payload and strings, so a slab is six allocations; an
// observation's is four.
func TestBuilderAllocatesPerSlab(t *testing.T) {
	authors := generatedAuthors(t, 1+3*tuple.SlabRows)
	views := make([]tuple.View, len(authors))
	for i, a := range authors {
		var err error
		if views[i], err = tuple.Validate(tuple.Encode(a)); err != nil {
			t.Fatal(err)
		}
	}
	// The slab of the next rows is sized by the row that opens it; rows
	// larger than it open a further slab of that one kind. Authors differ
	// in their alternatives and names, so allow one such slab per kind
	// and slab row.
	streamed := testing.AllocsPerRun(20, func() {
		var b tuple.Builder
		for i, v := range views {
			if got := b.Build(v); !sameTuple(got, authors[i]) {
				t.Fatalf("row %d: %+v, want %+v", i, got, authors[i])
			}
		}
	})
	if slabs := 1 + 3; streamed > float64(6*slabs+3*3) {
		t.Fatalf("%d streamed rows: %.0f allocations, want about 6 per slab of %d", len(views), streamed, tuple.SlabRows)
	}
	reserved := testing.AllocsPerRun(20, func() {
		var b tuple.Builder
		for _, v := range views {
			b.Reserve(v)
		}
		for _, v := range views {
			b.Build(v)
		}
	})
	if reserved != 6 {
		t.Fatalf("%d reserved rows: %.0f allocations, want 6", len(views), reserved)
	}
	if single := testing.AllocsPerRun(20, func() { views[0].Build() }); single != 6 {
		t.Fatalf("View.Build: %.0f allocations, want 6", single)
	}
	t.Logf("%d author rows: %.0f allocations streamed, %.0f reserved", len(views), streamed, reserved)

	obs := generatedObservations(t, 1+3*tuple.SlabRows)
	oviews := make([]tuple.ObservationView, len(obs))
	for i, o := range obs {
		var err error
		if oviews[i], err = tuple.ValidateObservation(tuple.EncodeObservation(o)); err != nil {
			t.Fatal(err)
		}
	}
	streamed = testing.AllocsPerRun(20, func() {
		var b tuple.ObservationBuilder
		for i, v := range oviews {
			if got := b.Build(v); !sameObservation(got, obs[i]) {
				t.Fatalf("row %d: %+v, want %+v", i, got, obs[i])
			}
		}
	})
	if slabs := 1 + 3; streamed > float64(4*slabs+3*2) {
		t.Fatalf("%d streamed observations: %.0f allocations, want about 4 per slab of %d", len(oviews), streamed, tuple.SlabRows)
	}
	reserved = testing.AllocsPerRun(20, func() {
		var b tuple.ObservationBuilder
		for _, v := range oviews {
			b.Reserve(v)
		}
		for _, v := range oviews {
			b.Build(v)
		}
	})
	if reserved != 4 {
		t.Fatalf("%d reserved observations: %.0f allocations, want 4", len(oviews), reserved)
	}
	t.Logf("%d observation rows: %.0f allocations streamed, %.0f reserved", len(oviews), streamed, reserved)
}

// BenchmarkBuilder builds the rows of a 200-row answer through one
// Builder, streamed (slabs sized by the row that opens them) and
// reserved (the whole batch sized first), against a View.Build per row.
func BenchmarkBuilder(b *testing.B) {
	authors := generatedAuthors(b, 200)
	views := make([]tuple.View, len(authors))
	for i, a := range authors {
		var err error
		if views[i], err = tuple.Validate(tuple.Encode(a)); err != nil {
			b.Fatal(err)
		}
	}
	var sink *tuple.Tuple
	run := func(b *testing.B, build func()) {
		b.ReportAllocs()
		for range b.N {
			build()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(views)), "ns/row")
		b.ReportMetric(testing.AllocsPerRun(5, build)/float64(len(views)), "allocs/row")
	}
	b.Run("single", func(b *testing.B) {
		run(b, func() {
			for _, v := range views {
				sink = v.Build()
			}
		})
	})
	b.Run("streamed", func(b *testing.B) {
		run(b, func() {
			var tb tuple.Builder
			for _, v := range views {
				sink = tb.Build(v)
			}
		})
	})
	b.Run("reserved", func(b *testing.B) {
		run(b, func() {
			var tb tuple.Builder
			for _, v := range views {
				tb.Reserve(v)
			}
			for _, v := range views {
				sink = tb.Build(v)
			}
		})
	})
	_ = sink
}
