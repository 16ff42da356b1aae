package upi

import (
	"encoding/binary"
	"fmt"
	"math"

	"upidb/internal/keyenc"
)

// Heap-file and cutoff-index keys are the composite
// {attribute value ASC, confidence DESC, tuple ID ASC} where
// confidence = existence × alternative probability, matching the
// paper's Table 2 ("Brown (80%*90%=72%) Alice"). The tuple ID makes
// keys unique when confidences tie.

// HeapKey encodes the composite key.
func HeapKey(value string, conf float64, id uint64) []byte {
	// Terminator, confidence and ID are 18 bytes; a value without
	// escapes fills the buffer exactly.
	return appendHeapKey(make([]byte, 0, len(value)+18), value, conf, id)
}

// appendHeapKey appends the composite key to dst.
func appendHeapKey[S string | []byte](dst []byte, value S, conf float64, id uint64) []byte {
	dst = keyenc.AppendString(dst, value)
	dst = keyenc.AppendFloat64Desc(dst, conf)
	return keyenc.AppendUint64(dst, id)
}

// DecodeHeapKey parses a composite key. Index scans that only rank and
// identify entries use DecodeConfID, which skips building the string.
func DecodeHeapKey(k []byte) (value string, conf float64, id uint64, err error) {
	value, rest, err := keyenc.DecodeString(k)
	if err != nil {
		return "", 0, 0, fmt.Errorf("upi: heap key: %w", err)
	}
	if conf, id, err = decodeConfID(rest); err != nil {
		return "", 0, 0, err
	}
	return value, conf, id, nil
}

// DecodeConfID parses a composite key's confidence and tuple ID. It
// accepts and rejects exactly the keys DecodeHeapKey does — the value
// component's escapes and terminator are checked, not decoded — and
// does not allocate.
func DecodeConfID(k []byte) (conf float64, id uint64, err error) {
	rest, err := keyenc.SkipString(k)
	if err != nil {
		return 0, 0, fmt.Errorf("upi: heap key: %w", err)
	}
	return decodeConfID(rest)
}

// decodeConfID parses what follows a key's value component.
func decodeConfID(rest []byte) (conf float64, id uint64, err error) {
	conf, rest, err = keyenc.DecodeFloat64Desc(rest)
	if err != nil {
		return 0, 0, fmt.Errorf("upi: heap key: %w", err)
	}
	id, rest, err = keyenc.DecodeUint64(rest)
	if err != nil {
		return 0, 0, fmt.Errorf("upi: heap key: %w", err)
	}
	if len(rest) != 0 {
		return 0, 0, fmt.Errorf("upi: heap key has %d trailing bytes", len(rest))
	}
	return conf, id, nil
}

// ValuePrefix returns the key prefix covering every entry for one
// attribute value; [ValuePrefix, ValuePrefixEnd) bounds the range scan
// of Algorithm 2.
func ValuePrefix(value string) []byte { return keyenc.AppendString(nil, value) }

// ValuePrefixEnd returns the exclusive upper bound for ValuePrefix.
func ValuePrefixEnd(value string) []byte { return keyenc.PrefixEnd(ValuePrefix(value)) }

// Pointer references one heap entry of a tuple: the alternative value
// it is clustered under and that alternative's confidence. Together
// with the tuple ID (carried alongside) it reconstructs the heap key.
// Readers do not build Pointers: they walk the encoded list with
// parsePointers and pointerList.next.
type Pointer struct {
	Value string
	Conf  float64
}

// appendPointer serializes one pointer.
func appendPointer(dst []byte, p Pointer) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Value)))
	dst = append(dst, p.Value...)
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Conf))
}

// pointerList is an encoded pointer list whose framing has been
// checked: the count and the bytes of exactly that many pointers. It
// aliases the buffer it was parsed from.
type pointerList struct {
	n int
	b []byte
}

// parsePointers is the pointer-list codec's one validator: it checks
// the framing of every pointer and builds nothing.
func parsePointers(b []byte) (pointerList, error) {
	if len(b) < 2 {
		return pointerList{}, fmt.Errorf("upi: short pointer list")
	}
	l := pointerList{n: int(binary.BigEndian.Uint16(b)), b: b[2:]}
	rest := l.b
	for i := 0; i < l.n; i++ {
		if len(rest) < 2 {
			return pointerList{}, fmt.Errorf("upi: short pointer")
		}
		n := int(binary.BigEndian.Uint16(rest))
		if len(rest) < 2+n+8 {
			return pointerList{}, fmt.Errorf("upi: truncated pointer")
		}
		rest = rest[2+n+8:]
	}
	if len(rest) != 0 {
		return pointerList{}, fmt.Errorf("upi: pointer list has %d trailing bytes", len(rest))
	}
	return l, nil
}

// next splits the first pointer off a non-empty list: its value (still
// aliasing the buffer) and confidence, and the list of the others.
func (l pointerList) next() (value []byte, conf float64, rest pointerList) {
	n := int(binary.BigEndian.Uint16(l.b))
	value = l.b[2 : 2+n]
	conf = math.Float64frombits(binary.BigEndian.Uint64(l.b[2+n:]))
	return value, conf, pointerList{n: l.n - 1, b: l.b[2+n+8:]}
}

// EncodePointers serializes a pointer list (a secondary-index entry
// value or, with a single element, a cutoff-index entry value).
func EncodePointers(ps []Pointer) []byte {
	out := binary.BigEndian.AppendUint16(nil, uint16(len(ps)))
	for _, p := range ps {
		out = appendPointer(out, p)
	}
	return out
}
