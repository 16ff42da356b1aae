package tuple_test

// The read side of both codecs has one seam: Validate (the framing walk)
// hands out a view, Build makes the value from it, Decode is the two
// composed. These tests hold the halves to the whole: a view exists
// exactly when Decode accepts, it builds what Decode builds after the
// buffer it was validated from has been copied elsewhere and however
// late, and validating allocates nothing.

import (
	"bytes"
	"math/rand"
	"testing"

	"upidb/internal/tuple"
)

func TestViewBuildsWhatDecodeDoes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tuples := generatedAuthors(t, 200)
	for i := 0; i < 500; i++ {
		tuples = append(tuples, randomTuple(rng))
	}
	for _, tup := range tuples {
		enc := tuple.Encode(tup)
		view, err := tuple.Validate(enc)
		if err != nil {
			t.Fatalf("Validate refused an encoding: %v", err)
		}
		if view.ID() != tup.ID {
			t.Fatalf("View.ID %d, tuple %d", view.ID(), tup.ID)
		}
		dec, err := tuple.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 { // a view builds as often as it is asked to
			if got := view.Build(); !bytes.Equal(tuple.Encode(got), enc) || !bytes.Equal(tuple.Encode(got), tuple.Encode(dec)) {
				t.Fatalf("View.Build %+v, Decode %+v", got, dec)
			}
		}
		// The built tuple owns its data: scribbling over the encoding
		// afterwards does not reach it.
		built := view.Build()
		clear(enc)
		if !bytes.Equal(tuple.Encode(built), tuple.Encode(dec)) {
			t.Fatal("a built tuple aliases the encoding it was built from")
		}

		// Validate refuses exactly what Decode refuses, in its words.
		enc = tuple.Encode(tup)
		for _, n := range []int{0, 1, 15, 17, len(enc) / 2, len(enc) - 1} {
			if n < 0 || n >= len(enc) {
				continue
			}
			_, derr := tuple.Decode(enc[:n:n])
			v, verr := tuple.Validate(enc[:n:n])
			if derr == nil || verr == nil || derr.Error() != verr.Error() {
				t.Fatalf("prefix %d of %d: Decode %v, Validate %v", n, len(enc), derr, verr)
			}
			if v.Build() != nil {
				t.Fatal("a refused encoding left a view that builds")
			}
		}
	}
	if (tuple.View{}).Build() != nil {
		t.Fatal("the zero View builds a tuple")
	}
	enc := tuple.Encode(tuples[0])
	if allocs := testing.AllocsPerRun(100, func() {
		v, err := tuple.Validate(enc)
		if err != nil || v.ID() != tuples[0].ID {
			t.Fatal("validate")
		}
	}); allocs != 0 {
		t.Fatalf("Validate: %.0f allocations, want 0", allocs)
	}
}

func TestObservationViewBuildsWhatDecodeDoes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	obs := generatedObservations(t, 200)
	for i := 0; i < 500; i++ {
		obs = append(obs, randomObservation(rng))
	}
	for _, o := range obs {
		enc := tuple.EncodeObservation(o)
		view, err := tuple.ValidateObservation(enc)
		if err != nil {
			t.Fatalf("ValidateObservation refused an encoding: %v", err)
		}
		if view.ID() != o.ID || !sameLoc(view.Loc(), o.Loc) {
			t.Fatalf("view %d %+v, observation %d %+v", view.ID(), view.Loc(), o.ID, o.Loc)
		}
		dec, err := tuple.DecodeObservation(enc)
		if err != nil {
			t.Fatal(err)
		}
		built := view.Build()
		clear(enc)
		if !bytes.Equal(tuple.EncodeObservation(built), tuple.EncodeObservation(dec)) {
			t.Fatalf("ObservationView.Build %+v, DecodeObservation %+v", built, dec)
		}
		enc = tuple.EncodeObservation(o)
		for _, n := range []int{0, 8, 57, len(enc) - 1} {
			_, derr := tuple.DecodeObservation(enc[:n:n])
			v, verr := tuple.ValidateObservation(enc[:n:n])
			if derr == nil || verr == nil || derr.Error() != verr.Error() || v.Build() != nil {
				t.Fatalf("prefix %d of %d: DecodeObservation %v, ValidateObservation %v", n, len(enc), derr, verr)
			}
		}
	}
	if (tuple.ObservationView{}).Build() != nil {
		t.Fatal("the zero ObservationView builds an observation")
	}
	enc := tuple.EncodeObservation(obs[0])
	view, _ := tuple.ValidateObservation(enc)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := tuple.ValidateObservation(enc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ValidateObservation: %.0f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = view.Build() }); allocs > 4 {
		t.Fatalf("ObservationView.Build: %.0f allocations, want <= 4", allocs)
	}
}
