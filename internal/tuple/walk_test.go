package tuple_test

// The codec has one framing validator (walk) behind two entry points:
// Decode builds the tuple, EncodedConfidence answers the one question a
// full scan asks of a row without building it. These tests hold the
// two to the same answers and the same refusals, and to their
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

func generatedAuthors(t testing.TB, n int) []*tuple.Tuple {
	t.Helper()
	cfg := dataset.DefaultDBLPConfig()
	cfg.Authors, cfg.Publications, cfg.Institutions = n, 1, 50
	d, err := dataset.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d.Authors
}

// randomTuple draws shapes the generator never produces: no fields,
// empty and repeated names, repeated alternatives, empty distributions,
// out-of-range probabilities.
func randomTuple(rng *rand.Rand) *tuple.Tuple {
	names := []string{"", "A", "B", "Institution", "A"} // "A" twice: first match must win
	str := func() string { return names[rng.Intn(len(names))] }
	tup := &tuple.Tuple{ID: rng.Uint64(), Existence: rng.Float64()}
	if rng.Intn(8) == 0 {
		tup.Existence = []float64{0, 1, -1, math.Inf(1), math.NaN()}[rng.Intn(5)]
	}
	for i := rng.Intn(3); i > 0; i-- {
		tup.Det = append(tup.Det, tuple.DetField{Name: str(), Value: str()})
	}
	for i := rng.Intn(4); i > 0; i-- {
		f := tuple.UncField{Name: str(), Dist: prob.Discrete{}}
		for j := rng.Intn(4); j > 0; j-- {
			f.Dist = append(f.Dist, prob.Alternative{Value: str(), Prob: rng.Float64()})
		}
		tup.Unc = append(tup.Unc, f)
	}
	if n := rng.Intn(40); n > 0 {
		tup.Payload = make([]byte, n)
		rng.Read(tup.Payload)
	}
	return tup
}

// sameFloat is == that also equates NaN with NaN.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// checkAgreement fails unless EncodedConfidence(enc, attr, value) is
// what Decode(enc) then Confidence(attr, value) gives: same error text
// or same confidence.
func checkAgreement(t *testing.T, enc []byte, attr, value string) {
	t.Helper()
	tup, decErr := tuple.Decode(enc)
	conf, err := tuple.EncodedConfidence(enc, attr, value)
	switch {
	case (decErr == nil) != (err == nil), err != nil && err.Error() != decErr.Error():
		t.Fatalf("Decode error %v, EncodedConfidence error %v\nenc %x", decErr, err, enc)
	case err != nil && conf != 0:
		t.Fatalf("EncodedConfidence returned %v beside error %v", conf, err)
	case err == nil && !sameFloat(conf, tup.Confidence(attr, value)):
		t.Fatalf("confidence of %q=%q: encoded %v, decoded %v\nenc %x", attr, value, conf, tup.Confidence(attr, value), enc)
	}
}

func TestEncodedConfidenceMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tuples := generatedAuthors(t, 200)
	for i := 0; i < 2000; i++ {
		tuples = append(tuples, randomTuple(rng))
	}
	for _, tup := range tuples {
		enc := tuple.Encode(tup)
		// Every attribute with every value the tuple holds anywhere
		// (its own: present; another attribute's: mostly absent), then
		// no such value, no such attribute, a deterministic field.
		values := []string{"no such value"}
		for _, f := range tup.Unc {
			for _, a := range f.Dist {
				values = append(values, a.Value)
			}
		}
		for _, f := range tup.Unc {
			for _, v := range values {
				checkAgreement(t, enc, f.Name, v)
			}
		}
		checkAgreement(t, enc, "no such attribute", "A")
		checkAgreement(t, enc, dataset.DetName, "A")
		checkAgreement(t, enc, "", "")
	}
}

// TestDecodersRejectTheSameInputs damages valid encodings every way a
// length field can lie — each prefix, 0xFFFF written over each byte
// pair (so every length field in turn points past the end; the other
// positions only change content), and trailing bytes — and requires
// Decode and EncodedConfidence to agree on every one, error text
// included.
func TestDecodersRejectTheSameInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tuples := generatedAuthors(t, 5)
	for i := 0; i < 40; i++ {
		tuples = append(tuples, randomTuple(rng))
	}
	rejected := 0
	for _, tup := range tuples {
		enc := tuple.Encode(tup)
		attr, value := "A", "B"
		if len(tup.Unc) > 0 && len(tup.Unc[0].Dist) > 0 {
			attr, value = tup.Unc[0].Name, tup.Unc[0].Dist[0].Value
		}
		for n := 0; n < len(enc); n++ {
			checkAgreement(t, enc[:n:n], attr, value)
			if _, err := tuple.EncodedConfidence(enc[:n:n], attr, value); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", n, len(enc))
			}
		}
		for off := 0; off+2 <= len(enc); off++ {
			bad := bytes.Clone(enc)
			bad[off], bad[off+1] = 0xFF, 0xFF
			checkAgreement(t, bad, attr, value)
			if _, err := tuple.EncodedConfidence(bad, attr, value); err != nil {
				rejected++
			}
		}
		for _, tail := range [][]byte{{0}, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF}} {
			bad := append(bytes.Clone(enc), tail...)
			checkAgreement(t, bad, attr, value)
			if _, err := tuple.EncodedConfidence(bad, attr, value); err == nil {
				t.Fatalf("%d trailing bytes accepted", len(tail))
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no overwritten length field was rejected; the test damages nothing")
	}
}

func TestDecodeAllocations(t *testing.T) {
	for _, tup := range generatedAuthors(t, 20) {
		enc := tuple.Encode(tup)
		// The tuple, its Det and Unc slices, its payload, the string
		// that backs every name and value, and the array that backs
		// every distribution: 6, within the 5 + nUnc budget.
		limit := float64(5 + len(tup.Unc))
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := tuple.Decode(enc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limit {
			t.Fatalf("Decode of an author with %d uncertain attributes: %.0f allocations, want <= %.0f", len(tup.Unc), allocs, limit)
		}
		inst := tup.Unc[0]
		allocs = testing.AllocsPerRun(100, func() {
			if conf, err := tuple.EncodedConfidence(enc, inst.Name, inst.Dist[0].Value); err != nil || conf <= 0 {
				t.Fatal(conf, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("EncodedConfidence: %.0f allocations, want 0", allocs)
		}
	}
}

// FuzzDecode: whatever the bytes, the two entry points agree, an
// accepted encoding is canonical (it re-encodes to itself), and rows
// built from it into shared slabs equal Decode's and are independent of
// each other (checkBuilder).
func FuzzDecode(f *testing.F) {
	for _, tup := range generatedAuthors(f, 3) {
		enc := tuple.Encode(tup)
		f.Add(enc, tup.Unc[0].Name, tup.Unc[0].Dist[0].Value)
		f.Add(enc[:len(enc)/2], "Country", "Japan")
		f.Add(append(bytes.Clone(enc), 0), "", "")
	}
	f.Add(tuple.Encode(&tuple.Tuple{ID: 1, Existence: 1}), "A", "B")
	f.Fuzz(func(t *testing.T, enc []byte, attr, value string) {
		checkAgreement(t, enc, attr, value)
		checkBuilder(t, enc)
		tup, err := tuple.Decode(enc)
		if err != nil {
			return
		}
		if again := tuple.Encode(tup); !bytes.Equal(again, enc) {
			t.Fatalf("accepted encoding is not canonical:\n in %x\nout %x", enc, again)
		}
	})
}
