package tuple_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"upidb/internal/prob"
	"upidb/internal/tuple"
)

// checkFrame holds Check and ViewOf to Validate on enc: Check accepts
// (a non-zero frame) exactly what Validate accepts; ViewOf of an
// accepted encoding and its frame is Validate's view and builds what
// Decode does; ViewOf of frame 0 fails with Validate's own error.
func checkFrame(t *testing.T, enc []byte) {
	t.Helper()
	frame := tuple.Check(enc)
	want, err := tuple.Validate(enc)
	if (frame != 0) != (err == nil) {
		t.Fatalf("Check %#x, Validate error %v", frame, err)
	}
	got, gotErr := tuple.ViewOf(enc, frame)
	if err != nil {
		if gotErr == nil || gotErr.Error() != err.Error() {
			t.Fatalf("ViewOf of a rejected encoding: %v, want %v", gotErr, err)
		}
		return
	}
	if gotErr != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ViewOf(enc, %#x) = %+v, %v; Validate %+v", frame, got, gotErr, want)
	}
	decoded, err := tuple.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if built := got.Build(); !sameTuple(built, decoded) {
		t.Fatalf("ViewOf's view builds %+v, Decode %+v", built, decoded)
	}
}

// FuzzTupleFrame throws arbitrary bytes at Check and ViewOf (see
// checkFrame).
func FuzzTupleFrame(f *testing.F) {
	for _, tup := range generatedAuthors(f, 3) {
		enc := tuple.Encode(tup)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(append(bytes.Clone(enc), 0))
	}
	f.Add(tuple.Encode(&tuple.Tuple{ID: 1, Existence: 1}))
	f.Fuzz(checkFrame)
}

// TestFrameOfLargeEncodings: an encoding whose payload offset or
// alternative count does not fit 16 bits — never a B+Tree leaf value,
// which is at most 65 535 bytes — still gets a non-zero frame, and
// ViewOf answers it with a walk.
func TestFrameOfLargeEncodings(t *testing.T) {
	long := strings.Repeat("x", 40000)
	alts := make([]prob.Alternative, 40000) // at most 65 535 per attribute
	for i := range alts {
		alts[i] = prob.Alternative{Prob: 1.0 / 40000}
	}
	for name, tup := range map[string]*tuple.Tuple{
		"payload offset": {ID: 1, Existence: 1, Det: []tuple.DetField{{Name: "a", Value: long}, {Name: "b", Value: long}}},
		"alternatives":   {ID: 2, Existence: 1, Unc: []tuple.UncField{{Name: "u", Dist: alts}, {Name: "v", Dist: alts}}},
		"payload":        {ID: 3, Existence: 1, Payload: make([]byte, 100000)},
	} {
		t.Run(name, func(t *testing.T) {
			enc := tuple.Encode(tup)
			if tuple.Check(enc) == 0 {
				t.Fatal("Check rejected a valid encoding")
			}
			checkFrame(t, enc)
		})
	}
}
