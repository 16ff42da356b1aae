package tuple_test

// The observation codec has one framing validator (walkObservation)
// behind two entry points: DecodeObservation builds the observation,
// ValidateObservation's view answers the one question a circle query
// asks of a row, its ID and Loc, without building it. These tests hold
// the two to the same answers and the same refusals, and to their
// allocation budgets.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"upidb/internal/dataset"
	"upidb/internal/prob"
	"upidb/internal/tuple"
)

func generatedObservations(t testing.TB, n int) []*tuple.Observation {
	t.Helper()
	cfg := dataset.DefaultCartelConfig()
	cfg.Observations, cfg.GridN = n, 6
	d, err := dataset.GenerateCartel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d.Observations
}

// randomObservation draws shapes the generator never produces: no
// segments, empty and repeated segment values, no payload, non-finite
// and invalid location parameters.
func randomObservation(rng *rand.Rand) *tuple.Observation {
	float := func() float64 {
		if rng.Intn(8) == 0 {
			return []float64{0, -1, math.Inf(1), math.NaN()}[rng.Intn(4)]
		}
		return 1000 * (rng.Float64() - 0.5)
	}
	o := &tuple.Observation{
		ID:        rng.Uint64(),
		Loc:       prob.ConstrainedGaussian{Center: prob.Point{X: float(), Y: float()}, Sigma: float(), Bound: float()},
		Speed:     float(),
		Direction: float(),
	}
	values := []string{"", "seg0001", "seg0002", "seg0001"}
	for i := rng.Intn(5); i > 0; i-- {
		o.Segment = append(o.Segment, prob.Alternative{Value: values[rng.Intn(len(values))], Prob: rng.Float64()})
	}
	if n := rng.Intn(40); n > 0 {
		o.Payload = make([]byte, n)
		rng.Read(o.Payload)
	}
	return o
}

func sameLoc(a, b prob.ConstrainedGaussian) bool {
	return sameFloat(a.Center.X, b.Center.X) && sameFloat(a.Center.Y, b.Center.Y) &&
		sameFloat(a.Sigma, b.Sigma) && sameFloat(a.Bound, b.Bound)
}

// checkObservationAgreement fails unless the ID and Loc of
// ValidateObservation(enc)'s view are what DecodeObservation(enc)
// gives: same error text, or same ID and Loc.
func checkObservationAgreement(t *testing.T, enc []byte) {
	t.Helper()
	o, decErr := tuple.DecodeObservation(enc)
	v, err := tuple.ValidateObservation(enc)
	id, loc := v.ID(), v.Loc()
	switch {
	case (decErr == nil) != (err == nil), err != nil && err.Error() != decErr.Error():
		t.Fatalf("DecodeObservation error %v, ValidateObservation error %v\nenc %x", decErr, err, enc)
	case err != nil && (id != 0 || loc != prob.ConstrainedGaussian{}):
		t.Fatalf("ValidateObservation's view has %d, %+v beside error %v", id, loc, err)
	case err == nil && (id != o.ID || !sameLoc(loc, o.Loc)):
		t.Fatalf("ValidateObservation's view has %d, %+v; decoded %d, %+v\nenc %x", id, loc, o.ID, o.Loc, enc)
	}
}

func TestObservationLocMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	obs := generatedObservations(t, 300)
	for i := 0; i < 2000; i++ {
		obs = append(obs, randomObservation(rng))
	}
	for _, o := range obs {
		enc := tuple.EncodeObservation(o)
		checkObservationAgreement(t, enc)
		got, err := tuple.DecodeObservation(enc)
		if err != nil {
			t.Fatalf("observation %d: %v", o.ID, err)
		}
		if again := tuple.EncodeObservation(got); !bytes.Equal(again, enc) {
			t.Fatalf("observation %d does not round-trip:\n in %x\nout %x", o.ID, enc, again)
		}
	}
}

// TestObservationDecodersRejectTheSameInputs damages valid encodings
// every way a length field can lie — each prefix, 0xFFFF written over
// each byte pair (so every length field in turn points past the end;
// the other positions only change content), and trailing bytes — and
// requires DecodeObservation and ValidateObservation to agree on every one,
// error text included.
func TestObservationDecodersRejectTheSameInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	obs := generatedObservations(t, 5)
	for i := 0; i < 40; i++ {
		obs = append(obs, randomObservation(rng))
	}
	rejected := 0
	for _, o := range obs {
		enc := tuple.EncodeObservation(o)
		for n := 0; n < len(enc); n++ {
			checkObservationAgreement(t, enc[:n:n])
			if _, err := tuple.ValidateObservation(enc[:n:n]); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", n, len(enc))
			}
		}
		for off := 0; off+2 <= len(enc); off++ {
			bad := bytes.Clone(enc)
			bad[off], bad[off+1] = 0xFF, 0xFF
			checkObservationAgreement(t, bad)
			if _, err := tuple.ValidateObservation(bad); err != nil {
				rejected++
			}
		}
		for _, tail := range [][]byte{{0}, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF}} {
			bad := append(bytes.Clone(enc), tail...)
			checkObservationAgreement(t, bad)
			if _, err := tuple.ValidateObservation(bad); err == nil {
				t.Fatalf("%d trailing bytes accepted", len(tail))
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no overwritten length field was rejected; the test damages nothing")
	}
}

func TestObservationDecodeAllocations(t *testing.T) {
	for _, o := range generatedObservations(t, 20) {
		enc := tuple.EncodeObservation(o)
		// The observation, its segment slice, the string that backs
		// every segment value, and the payload.
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := tuple.DecodeObservation(enc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Fatalf("DecodeObservation with %d segment alternatives: %.0f allocations, want <= 4", len(o.Segment), allocs)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if v, err := tuple.ValidateObservation(enc); err != nil || v.ID() != o.ID {
				t.Fatal(v.ID(), err)
			}
		})
		if allocs != 0 {
			t.Fatalf("ValidateObservation: %.0f allocations, want 0", allocs)
		}
	}
}

// FuzzDecodeObservation: whatever the bytes, the two entry points
// agree, an accepted encoding is canonical (it re-encodes to itself),
// and rows built from it into shared slabs equal DecodeObservation's and
// are independent of each other (checkObservationBuilder).
func FuzzDecodeObservation(f *testing.F) {
	for _, o := range generatedObservations(f, 3) {
		enc := tuple.EncodeObservation(o)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(append(bytes.Clone(enc), 0))
	}
	f.Add(tuple.EncodeObservation(&tuple.Observation{ID: 1}))
	f.Fuzz(func(t *testing.T, enc []byte) {
		checkObservationAgreement(t, enc)
		checkObservationBuilder(t, enc)
		o, err := tuple.DecodeObservation(enc)
		if err != nil {
			return
		}
		if again := tuple.EncodeObservation(o); !bytes.Equal(again, enc) {
			t.Fatalf("accepted encoding is not canonical:\n in %x\nout %x", enc, again)
		}
	})
}
