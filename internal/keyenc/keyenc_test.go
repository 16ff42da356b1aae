package keyenc

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestStringRoundTrip(t *testing.T) {
	cases := []string{"", "a", "MIT", "Brown", "U. Tokyo", "a\x00b", "\x00", "\x00\xff", strings.Repeat("x", 300)}
	for _, s := range cases {
		enc := AppendString(nil, s)
		got, rest, err := DecodeString(enc)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got != s || len(rest) != 0 {
			t.Fatalf("%q round-tripped to %q (rest %d)", s, got, len(rest))
		}
	}
}

// TestSkipStringMatchesDecodeString: on any bytes — valid encodings
// with a tail, every truncation of them, and noise dense in the escape
// byte — SkipString returns DecodeString's remainder or its error.
func TestSkipStringMatchesDecodeString(t *testing.T) {
	check := func(b []byte) bool {
		_, want, wantErr := DecodeString(b)
		got, err := SkipString(b)
		if wantErr != nil || err != nil {
			return wantErr != nil && err != nil && err.Error() == wantErr.Error() && got == nil
		}
		return bytes.Equal(got, want) && len(got) == len(want)
	}
	err := quick.Check(func(s string, tail, noise []byte) bool {
		enc := append(AppendString(nil, s), tail...)
		for n := 0; n <= len(enc); n++ {
			if !check(enc[:n]) {
				return false
			}
		}
		for i := range noise {
			noise[i] = []byte{0x00, 0xFF, 0x00, 'a', noise[i]}[noise[i]%5]
		}
		return check(noise)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
	key := append(AppendString(nil, "U. Tokyo\x00"), 1, 2, 3)
	if n := testing.AllocsPerRun(100, func() { SkipString(key) }); n != 0 {
		t.Fatalf("SkipString: %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { DecodeString(key) }); n > 2 {
		t.Fatalf("DecodeString with an escape: %.0f allocations, want <= 2", n)
	}
	plain := AppendString(nil, "U. Tokyo")
	if n := testing.AllocsPerRun(100, func() { DecodeString(plain) }); n > 1 {
		t.Fatalf("DecodeString without escapes: %.0f allocations, want <= 1", n)
	}
}

func TestStringOrderPreserving(t *testing.T) {
	err := quick.Check(func(a, b string) bool {
		ea, eb := AppendString(nil, a), AppendString(nil, b)
		cmpStr := strings.Compare(a, b)
		cmpEnc := bytes.Compare(ea, eb)
		return sign(cmpStr) == sign(cmpEnc)
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStringComponentBoundary checks composites compare component-wise:
// ("ab","c") must sort before ("abc","") iff "ab" < "abc".
func TestStringComponentBoundary(t *testing.T) {
	a := AppendString(AppendString(nil, "ab"), "c")
	b := AppendString(AppendString(nil, "abc"), "")
	if bytes.Compare(a, b) >= 0 {
		t.Fatal("component boundary broken: (ab,c) should sort before (abc,)")
	}
	// Embedded NULs must not break the boundary either.
	c := AppendString(AppendString(nil, "a\x00"), "z")
	d := AppendString(AppendString(nil, "a"), "\x00z")
	if bytes.Compare(c, d) <= 0 {
		t.Fatal(`("a\x00","z") should sort after ("a","\x00z")`)
	}
}

func TestUint64RoundTripAndOrder(t *testing.T) {
	err := quick.Check(func(a, b uint64) bool {
		ea, eb := AppendUint64(nil, a), AppendUint64(nil, b)
		da, rest, err := DecodeUint64(ea)
		if err != nil || da != a || len(rest) != 0 {
			return false
		}
		return sign(bytes.Compare(ea, eb)) == sign(cmpU64(a, b))
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeUint64([]byte{1, 2}); err == nil {
		t.Fatal("short decode should fail")
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	cases := []float64{0, -0.0, 1, -1, 0.5, 0.05, 0.95, math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, f := range cases {
		got, rest, err := DecodeFloat64Desc(AppendFloat64Desc(nil, f))
		if err != nil || len(rest) != 0 {
			t.Fatalf("%v: %v", f, err)
		}
		if got != f && !(f == 0 && got == 0) { // -0.0 == 0.0 is fine
			t.Fatalf("%v round-tripped to %v", f, got)
		}
	}
}

func TestFloat64Order(t *testing.T) {
	err := quick.Check(func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		desc := bytes.Compare(AppendFloat64Desc(nil, a), AppendFloat64Desc(nil, b))
		want := 0
		if a < b {
			want = -1
		} else if a > b {
			want = 1
		}
		if a == b { // covers -0.0 vs 0.0: equal floats may encode differently
			return true
		}
		return sign(desc) == -want
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestProbDescOrder pins the property the UPI relies on: probabilities
// encoded descending sort highest-first.
func TestProbDescOrder(t *testing.T) {
	probs := []float64{0.95, 0.72, 0.48, 0.32, 0.18, 0.05}
	var encs [][]byte
	for _, p := range probs {
		encs = append(encs, AppendFloat64Desc(nil, p))
	}
	if !sort.SliceIsSorted(encs, func(i, j int) bool { return bytes.Compare(encs[i], encs[j]) < 0 }) {
		t.Fatal("descending prob encodings are not ascending in byte order")
	}
}

func TestCompositeKeyOrder(t *testing.T) {
	// The paper's Table 2 ordering: by institution ASC, then prob DESC.
	type row struct {
		inst string
		prob float64
	}
	want := []row{
		{"Brown", 0.72}, {"Brown", 0.48}, {"MIT", 0.95}, {"MIT", 0.18},
		{"U. Tokyo", 0.32}, {"UCB", 0.05},
	}
	enc := func(r row) []byte {
		return AppendFloat64Desc(AppendString(nil, r.inst), r.prob)
	}
	for i := 1; i < len(want); i++ {
		if bytes.Compare(enc(want[i-1]), enc(want[i])) >= 0 {
			t.Fatalf("rows %d and %d out of order: %+v %+v", i-1, i, want[i-1], want[i])
		}
	}
}

func TestPrefixEnd(t *testing.T) {
	p := AppendString(nil, "MIT")
	end := PrefixEnd(p)
	if end == nil {
		t.Fatal("nil end")
	}
	inRange := AppendFloat64Desc(AppendString(nil, "MIT"), 0.5)
	if !(bytes.Compare(p, inRange) <= 0 && bytes.Compare(inRange, end) < 0) {
		t.Fatal("MIT key not within [prefix, end)")
	}
	outOfRange := AppendFloat64Desc(AppendString(nil, "UCB"), 0.99)
	if bytes.Compare(outOfRange, end) < 0 {
		t.Fatal("UCB key inside MIT range")
	}
	if PrefixEnd([]byte{0xFF, 0xFF}) != nil {
		t.Fatal("all-0xFF prefix has no end")
	}
	if got := PrefixEnd([]byte{0x01, 0xFF}); !bytes.Equal(got, []byte{0x02}) {
		t.Fatalf("PrefixEnd(01 FF) = %v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeString([]byte{'a', 'b'}); err == nil {
		t.Fatal("unterminated string should fail")
	}
	if _, _, err := DecodeString([]byte{0x00}); err == nil {
		t.Fatal("truncated escape should fail")
	}
	if _, _, err := DecodeString([]byte{0x00, 0x7F}); err == nil {
		t.Fatal("bad escape should fail")
	}
	if _, _, err := DecodeFloat64Desc([]byte{1}); err == nil {
		t.Fatal("short float should fail")
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
