// Package keyenc implements order-preserving binary key encoding.
//
// UPI heap files and cutoff indexes are B+Trees keyed by the composite
// {attribute value ASC, probability DESC, tuple ID ASC} (paper
// Section 2: "a B+Tree indexed by {Institution (ASC) and probability
// (DESC)}"). B+Trees compare raw bytes, so every component must be
// encoded such that bytes.Compare on the encodings agrees with the
// desired component order, and components must be self-delimiting so
// composites compare component-wise.
package keyenc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// String escape scheme: 0x00 inside the string is escaped as
// {0x00, 0xFF}; the string is terminated by {0x00, 0x00}. Any string
// that is a prefix of another sorts first, and no encoded string is a
// prefix of a different encoded string's component boundary.
const (
	strEscape byte = 0x00
	strEscTag byte = 0xFF
	strTerm   byte = 0x00
)

// AppendString appends the ascending order-preserving encoding of s.
func AppendString[S string | []byte](dst []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == strEscape {
			dst = append(dst, strEscape, strEscTag)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, strEscape, strTerm)
}

// DecodeString decodes a string encoded by AppendString from the front
// of b, returning the string and the remaining bytes.
func DecodeString(b []byte) (string, []byte, error) {
	n, escapes, err := scanString(b)
	if err != nil {
		return "", nil, err
	}
	body := b[:n-2]
	if escapes == 0 {
		return string(body), b[n:], nil
	}
	out := make([]byte, 0, len(body)-escapes)
	for i := 0; i < len(body); i++ {
		out = append(out, body[i])
		if body[i] == strEscape {
			i++ // the escape tag scanString checked
		}
	}
	return string(out), b[n:], nil
}

// SkipString validates a string encoded by AppendString at the front
// of b exactly as DecodeString does and returns the bytes after it,
// without building the string.
func SkipString(b []byte) ([]byte, error) {
	n, _, err := scanString(b)
	if err != nil {
		return nil, err
	}
	return b[n:], nil
}

// scanString checks the framing of the encoded string at the front of
// b. It returns the encoding's length, terminator included, and how
// many escaped 0x00 bytes the string holds.
func scanString(b []byte) (n, escapes int, err error) {
	for i := 0; ; {
		j := bytes.IndexByte(b[i:], strEscape)
		if j < 0 {
			return 0, 0, fmt.Errorf("keyenc: unterminated string")
		}
		i += j
		if i+1 >= len(b) {
			return 0, 0, fmt.Errorf("keyenc: truncated string escape")
		}
		switch b[i+1] {
		case strTerm:
			return i + 2, escapes, nil
		case strEscTag:
			escapes++
			i += 2
		default:
			return 0, 0, fmt.Errorf("keyenc: bad string escape 0x%02x", b[i+1])
		}
	}
}

// AppendUint64 appends the ascending encoding of v (8 bytes, big endian).
func AppendUint64(dst []byte, v uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return append(dst, buf[:]...)
}

// DecodeUint64 decodes a uint64 from the front of b.
func DecodeUint64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("keyenc: short uint64: %d bytes", len(b))
	}
	return binary.BigEndian.Uint64(b[:8]), b[8:], nil
}

// floatBits maps a float64 to a uint64 whose unsigned order matches
// the float order: flip the sign bit for non-negative values, flip all
// bits for negative ones. NaN is rejected by callers that care; here
// it maps above +Inf (sign 0, max exponent, nonzero mantissa).
func floatBits(f float64) uint64 {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | (1 << 63)
}

func floatFromBits(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

// AppendFloat64Desc appends the DESCENDING encoding of f: larger
// floats sort earlier. UPI keys use this for the probability component
// so that within one attribute value, high-probability duplicates come
// first and a PTQ scan can stop at the query threshold.
func AppendFloat64Desc(dst []byte, f float64) []byte {
	return AppendUint64(dst, ^floatBits(f))
}

// DecodeFloat64Desc decodes a descending float64 from the front of b.
func DecodeFloat64Desc(b []byte) (float64, []byte, error) {
	u, rest, err := DecodeUint64(b)
	if err != nil {
		return 0, nil, err
	}
	return floatFromBits(^u), rest, nil
}

// Compare is bytes.Compare, re-exported so index code does not import
// bytes just for key comparison.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }

// PrefixEnd returns the smallest key strictly greater than every key
// having the given prefix, or nil if no such key exists (prefix is all
// 0xFF). It is used to bound range scans over one attribute value.
func PrefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
