package upi

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestHeapKeyRoundTrip(t *testing.T) {
	f := func(value string, confBits uint16, id uint64) bool {
		conf := float64(confBits) / math.MaxUint16 // [0, 1]
		k := HeapKey(value, conf, id)
		v, c, i, err := DecodeHeapKey(k)
		c2, i2, err2 := DecodeConfID(k)
		return err == nil && v == value && c == conf && i == id &&
			err2 == nil && c2 == conf && i2 == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapKeyOrdering pins the clustering order: value ASC, then
// confidence DESC, then tuple ID ASC.
func TestHeapKeyOrdering(t *testing.T) {
	f := func(v1, v2 string, c1Bits, c2Bits uint16, id1, id2 uint64) bool {
		c1 := float64(c1Bits) / math.MaxUint16
		c2 := float64(c2Bits) / math.MaxUint16
		k1 := HeapKey(v1, c1, id1)
		k2 := HeapKey(v2, c2, id2)
		cmp := bytes.Compare(k1, k2)
		switch {
		case v1 != v2:
			return (v1 < v2) == (cmp < 0)
		case c1 != c2:
			return (c1 > c2) == (cmp < 0) // DESC
		case id1 != id2:
			return (id1 < id2) == (cmp < 0)
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapKeyDecodeErrors(t *testing.T) {
	for _, value := range []string{"MIT", "", "a\x00b\x00"} {
		k := HeapKey(value, 0.5, 7)
		for n := 0; n < len(k); n++ {
			if _, _, _, err := DecodeHeapKey(k[:n]); err == nil {
				t.Fatalf("truncation to %d accepted", n)
			}
			checkDecodersAgree(t, k[:n])
		}
		if _, _, _, err := DecodeHeapKey(append(k, 0)); err == nil {
			t.Fatal("trailing bytes accepted")
		}
		checkDecodersAgree(t, append(k, 0))
		for i := range k { // a bad escape or an early terminator at every position
			for _, c := range []byte{0x00, 0x7F} {
				bad := bytes.Clone(k)
				bad[i] = c
				checkDecodersAgree(t, bad)
			}
		}
	}
}

// checkDecodersAgree holds DecodeConfID to DecodeHeapKey: the same
// keys accepted, the same confidence and ID, the same error text.
func checkDecodersAgree(t *testing.T, k []byte) {
	t.Helper()
	_, conf, id, err := DecodeHeapKey(k)
	conf2, id2, err2 := DecodeConfID(k)
	switch {
	case (err == nil) != (err2 == nil), err != nil && err.Error() != err2.Error():
		t.Fatalf("key %x: DecodeHeapKey error %v, DecodeConfID error %v", k, err, err2)
	case math.Float64bits(conf) != math.Float64bits(conf2) || id != id2:
		t.Fatalf("key %x: DecodeHeapKey (%v, %d), DecodeConfID (%v, %d)", k, conf, id, conf2, id2)
	}
}

func TestDecodeConfIDDoesNotAllocate(t *testing.T) {
	k := HeapKey("U. Tokyo", 0.32, 3)
	allocs := testing.AllocsPerRun(100, func() {
		if conf, id, err := DecodeConfID(k); err != nil || conf != 0.32 || id != 3 {
			t.Fatal(conf, id, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeConfID: %.0f allocations, want 0", allocs)
	}
}

// FuzzDecodeHeapKey: the 4-result and the conf/id decoders accept and
// reject the same bytes, and an accepted key re-encodes to itself.
func FuzzDecodeHeapKey(f *testing.F) {
	k := HeapKey("MIT", 0.5, 7)
	f.Add(k)
	f.Add(k[:len(k)-1])
	f.Add(append(bytes.Clone(k), 0))
	f.Add(HeapKey("a\x00b", 1, math.MaxUint64))
	f.Add([]byte{0x00, 0x7F})
	f.Fuzz(func(t *testing.T, k []byte) {
		checkDecodersAgree(t, k)
		value, conf, id, err := DecodeHeapKey(k)
		if err == nil && !bytes.Equal(HeapKey(value, conf, id), k) {
			t.Fatalf("accepted key %x re-encodes to %x", k, HeapKey(value, conf, id))
		}
	})
}

func TestPointersRoundTrip(t *testing.T) {
	f := func(vals []string, confs []uint16) bool {
		n := len(vals)
		if len(confs) < n {
			n = len(confs)
		}
		if n > 20 {
			n = 20
		}
		ps := make([]Pointer, n)
		for i := 0; i < n; i++ {
			if len(vals[i]) > 1000 {
				return true
			}
			ps[i] = Pointer{Value: vals[i], Conf: float64(confs[i]) / math.MaxUint16}
		}
		got, err := decodePointers(EncodePointers(ps))
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != ps[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPointersDecodeErrors(t *testing.T) {
	enc := EncodePointers([]Pointer{{Value: "MIT", Conf: 0.95}})
	for _, n := range []int{0, 1, 3, len(enc) - 1} {
		if _, err := decodePointers(enc[:n]); err == nil {
			t.Fatalf("truncation to %d accepted", n)
		}
	}
	if _, err := decodePointers(append(enc, 1)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// FuzzParsePointers throws arbitrary bytes at the pointer-list
// validator the cutoff chase and the secondary route decode through:
// it never panics, and a list it accepts is walked by exactly n calls
// to next, which consume the whole buffer and re-encode to it.
func FuzzParsePointers(f *testing.F) {
	f.Add(EncodePointers([]Pointer{{Value: "MIT", Conf: 0.95}}))
	f.Add(EncodePointers([]Pointer{{Value: "MIT", Conf: 0.5}, {Value: "Brown", Conf: 0.3}, {Value: "", Conf: 0.2}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := parsePointers(b)
		if err != nil {
			return
		}
		ps := make([]Pointer, l.n)
		rest := l
		for i := range ps {
			var value []byte
			value, ps[i].Conf, rest = rest.next()
			ps[i].Value = string(value)
		}
		if rest.n != 0 || len(rest.b) != 0 {
			t.Fatalf("%d pointers leave %d bytes and a count of %d", l.n, len(rest.b), rest.n)
		}
		if enc := EncodePointers(ps); !bytes.Equal(enc, b) {
			t.Fatalf("accepted list %x re-encodes to %x", b, enc)
		}
	})
}

func TestValuePrefixBounds(t *testing.T) {
	// Every heap key for a value sorts within [prefix, prefixEnd).
	f := func(value string, confBits uint16, id uint64) bool {
		conf := float64(confBits) / math.MaxUint16
		k := HeapKey(value, conf, id)
		start := ValuePrefix(value)
		end := ValuePrefixEnd(value)
		if bytes.Compare(start, k) > 0 {
			return false
		}
		return end == nil || bytes.Compare(k, end) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	// Keys of a *different* value never fall inside the range.
	a := HeapKey("MIU", 0.99, 1) // adjacent string to MIT
	if bytes.Compare(a, ValuePrefix("MIT")) >= 0 && bytes.Compare(a, ValuePrefixEnd("MIT")) < 0 {
		t.Fatal("MIU key inside MIT range")
	}
}

// decodePointers builds the pointers of an encoded list.
func decodePointers(b []byte) ([]Pointer, error) {
	l, err := parsePointers(b)
	if err != nil {
		return nil, err
	}
	ps := make([]Pointer, l.n)
	for i := range ps {
		var value []byte
		value, ps[i].Conf, l = l.next()
		ps[i].Value = string(value)
	}
	return ps, nil
}

// TestPointerHeapKey: the heap key a parsed pointer resolves to is the
// one its tuple's entry was stored under.
func TestPointerHeapKey(t *testing.T) {
	l, err := parsePointers(EncodePointers([]Pointer{{Value: "MIT", Conf: 0.95}}))
	if err != nil {
		t.Fatal(err)
	}
	value, conf, _ := l.next()
	if !bytes.Equal(appendHeapKey(nil, value, conf, 7), HeapKey("MIT", 0.95, 7)) {
		t.Fatal("pointer heap key mismatch")
	}
}
