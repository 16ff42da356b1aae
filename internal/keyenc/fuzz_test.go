package keyenc

import (
	"bytes"
	"cmp"
	"math"
	"strings"
	"testing"
)

// FuzzKeyenc checks the codec on the composite key the UPI builds,
// {string ASC, uint64 ASC, float64 DESC}: decoding gives back every
// component bit for bit, SkipString agrees with DecodeString on the
// encoding and on the raw input, and Compare of two keys orders them
// as their components do.
func FuzzKeyenc(f *testing.F) {
	f.Add("MIT", "Brown", uint64(7), uint64(7), 0.8, 0.2)
	f.Add("a\x00b", "a", uint64(1), uint64(2), 0.5, 0.5)
	f.Add("\x00\xff", "\x00", uint64(0), uint64(math.MaxUint64), math.Inf(-1), math.Inf(1))
	f.Add("", "", uint64(3), uint64(3), math.Copysign(0, -1), 0.0)
	f.Add("x", "x", uint64(3), uint64(3), math.NaN(), 1.0)
	f.Fuzz(func(t *testing.T, s1, s2 string, u1, u2 uint64, f1, f2 float64) {
		k1, k2 := key(s1, u1, f1), key(s2, u2, f2)
		for _, c := range []struct {
			s   string
			u   uint64
			f   float64
			enc []byte
		}{{s1, u1, f1, k1}, {s2, u2, f2, k2}} {
			s, rest, err := DecodeString(c.enc)
			if err != nil || s != c.s {
				t.Fatalf("string %q decodes as %q (%v)", c.s, s, err)
			}
			if skipped, err := SkipString(c.enc); err != nil || !bytes.Equal(skipped, rest) {
				t.Fatalf("SkipString of %q leaves %x, DecodeString %x (%v)", c.s, skipped, rest, err)
			}
			u, rest, err := DecodeUint64(rest)
			if err != nil || u != c.u {
				t.Fatalf("uint64 %d decodes as %d (%v)", c.u, u, err)
			}
			fl, rest, err := DecodeFloat64Desc(rest)
			if err != nil || math.Float64bits(fl) != math.Float64bits(c.f) || len(rest) != 0 {
				t.Fatalf("float %v decodes as %v, %d bytes left (%v)", c.f, fl, len(rest), err)
			}
		}
		raw := []byte(s1)
		_, want, wantErr := DecodeString(raw)
		got, err := SkipString(raw)
		if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("raw %x: SkipString %x (%v), DecodeString %x (%v)", raw, got, err, want, wantErr)
		}
		if math.IsNaN(f1) || math.IsNaN(f2) {
			return // NaN has no place in the value order
		}
		order := strings.Compare(s1, s2)
		if order == 0 {
			order = cmp.Compare(u1, u2)
		}
		if order == 0 {
			order = descOrder(f1, f2)
		}
		if got := Compare(k1, k2); got != order {
			t.Fatalf("Compare(%q %d %v, %q %d %v) = %d, want %d", s1, u1, f1, s2, u2, f2, got, order)
		}
	})
}

func key(s string, u uint64, f float64) []byte {
	return AppendFloat64Desc(AppendUint64(AppendString(nil, s), u), f)
}

// descOrder is the order AppendFloat64Desc promises: larger values
// first, and +0 before -0, whose bits differ.
func descOrder(a, b float64) int {
	if c := cmp.Compare(b, a); c != 0 || math.Signbit(a) == math.Signbit(b) {
		return c
	}
	if math.Signbit(a) {
		return 1
	}
	return -1
}
