// Package tuple defines the uncertain tuple model stored in UPI heap
// files and the binary codec used to serialize whole tuples into
// B+Tree leaves and heap pages.
//
// A tuple mirrors the paper's running example (Table 1/4): a unique
// TupleID, an existence probability, deterministic string fields
// (Name, Journal, ...), uncertain discrete attributes (Institution,
// Country, ...), and an opaque payload standing in for the remaining
// row width.
//
// Reading has one seam: Validate checks an encoding's framing (walk, the
// codec's only validator) and returns a View of it; View.Build makes the
// *Tuple from what that walk learned, with no second pass and no way to
// fail. Decode is the two composed. A reader that needs only the ID or a
// confidence stops after the first half (View.ID, EncodedConfidence) and
// allocates nothing; the query path carries Views up to the caller and
// builds there. The observation codec has the same seam
// (ValidateObservation, ObservationView.Build, DecodeObservation).
package tuple

import (
	"encoding/binary"
	"fmt"
	"math"

	"upidb/internal/prob"
)

// Tuple is one uncertain row.
type Tuple struct {
	// ID is the unique tuple identifier (the paper's TupleID).
	ID uint64
	// Existence is the probability the tuple exists at all.
	Existence float64
	// Det holds deterministic named fields, in schema order.
	Det []DetField
	// Unc holds uncertain discrete attributes, in schema order.
	Unc []UncField
	// Payload pads the tuple to a realistic row width; it is opaque.
	Payload []byte
}

// DetField is a deterministic named string field.
type DetField struct {
	Name  string
	Value string
}

// UncField is an uncertain attribute with a discrete distribution.
type UncField struct {
	Name string
	Dist prob.Discrete
}

// DetValue returns the deterministic field by name.
func (t *Tuple) DetValue(name string) (string, bool) {
	for _, f := range t.Det {
		if f.Name == name {
			return f.Value, true
		}
	}
	return "", false
}

// Uncertain returns the distribution of the named uncertain attribute.
func (t *Tuple) Uncertain(name string) (prob.Discrete, bool) {
	for _, f := range t.Unc {
		if f.Name == name {
			return f.Dist, true
		}
	}
	return nil, false
}

// Confidence returns the possible-world confidence that this tuple's
// named uncertain attribute equals value: Existence × P(value).
func (t *Tuple) Confidence(attr, value string) float64 {
	d, ok := t.Uncertain(attr)
	if !ok {
		return 0
	}
	return prob.Confidence(t.Existence, d, value)
}

// Validate checks probability invariants on all uncertain fields.
func (t *Tuple) Validate() error {
	if t.Existence < 0 || t.Existence > 1 {
		return fmt.Errorf("tuple %d: existence %v out of range", t.ID, t.Existence)
	}
	for _, f := range t.Unc {
		if len(f.Dist) == 0 {
			return fmt.Errorf("tuple %d: uncertain attribute %q has no alternatives", t.ID, f.Name)
		}
		if err := f.Dist.Validate(); err != nil {
			return fmt.Errorf("tuple %d attribute %q: %w", t.ID, f.Name, err)
		}
	}
	return nil
}

// Binary layout (all big endian):
//
//	[8: ID][8: existence bits]
//	[2: nDet] nDet × ([2: nameLen][name][2: valLen][val])
//	[2: nUnc] nUnc × ([2: nameLen][name][2: nAlts] nAlts × ([2: valLen][val][8: prob bits]))
//	[4: payloadLen][payload]

// AppendEncode appends the binary encoding of t to dst.
func AppendEncode(dst []byte, t *Tuple) []byte {
	dst = binary.BigEndian.AppendUint64(dst, t.ID)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(t.Existence))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(t.Det)))
	for _, f := range t.Det {
		dst = appendStr16(dst, f.Name)
		dst = appendStr16(dst, f.Value)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(t.Unc)))
	for _, f := range t.Unc {
		dst = appendStr16(dst, f.Name)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Dist)))
		for _, a := range f.Dist {
			dst = appendStr16(dst, a.Value)
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Prob))
		}
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(t.Payload)))
	return append(dst, t.Payload...)
}

// Encode returns the binary encoding of t.
func Encode(t *Tuple) []byte { return AppendEncode(nil, t) }

// View is a validated encoding: the proof that walk accepted enc, plus
// what walk learned about it, so that Build needs no second framing pass.
// A View aliases enc — it is valid for as long as those bytes are not
// overwritten — and only Validate hands out a non-zero one.
type View struct {
	enc        []byte
	payloadOff int // offset of the payload's length field
	nAlts      int // alternatives, summed over the uncertain attributes
}

// Validate checks the framing of enc (the codec's one validator, walk)
// and returns the view a tuple can later be built from. It does not
// allocate and does not copy: the view aliases enc.
func Validate(enc []byte) (View, error) {
	f, err := walk(enc, "", "")
	if err != nil {
		return View{}, err
	}
	return View{enc: enc, payloadOff: f.payloadOff, nAlts: f.nAlts}, nil
}

// ID is the tuple ID of the encoding the view was validated from.
func (v View) ID() uint64 { return binary.BigEndian.Uint64(v.enc) }

// Build constructs the tuple. The tuple owns copies of all data: its
// strings share one backing string (the encoding up to the payload) and
// its distributions one backing array, so a tuple costs a fixed handful
// of allocations however many fields it has. The zero View builds nil.
func (v View) Build() *Tuple {
	if v.enc == nil {
		return nil
	}
	// The framing is valid: the reads below cannot fail.
	blob := string(v.enc[:v.payloadOff])
	d := decoder{buf: v.enc}
	str16 := func() string {
		n := len(d.bytes16())
		return blob[d.off-n : d.off]
	}
	t := &Tuple{ID: d.u64(), Existence: math.Float64frombits(d.u64())}
	if nDet := int(d.u16()); nDet > 0 {
		t.Det = make([]DetField, nDet)
		for i := range t.Det {
			t.Det[i].Name = str16()
			t.Det[i].Value = str16()
		}
	}
	if nUnc := int(d.u16()); nUnc > 0 {
		t.Unc = make([]UncField, nUnc)
		alts := make(prob.Discrete, v.nAlts)
		for i := range t.Unc {
			t.Unc[i].Name = str16()
			nAlts := int(d.u16())
			dist := alts[:nAlts:nAlts]
			alts = alts[nAlts:]
			for j := range dist {
				dist[j].Value = str16()
				dist[j].Prob = math.Float64frombits(d.u64())
			}
			t.Unc[i].Dist = dist
		}
	}
	if plen := int(d.u32()); plen > 0 {
		t.Payload = append([]byte(nil), d.take(plen)...)
	}
	return t
}

// Decode parses a tuple from b: Validate, then Build. The returned
// tuple owns copies of all data; b may be reused.
func Decode(b []byte) (*Tuple, error) {
	v, err := Validate(b)
	if err != nil {
		return nil, err
	}
	return v.Build(), nil
}

// EncodedConfidence returns what Decode(enc) followed by
// Confidence(attr, value) would — the same confidence, and the same
// error for an encoding Decode rejects — without building the tuple or
// allocating. A filtering heap scan (upi.ScanCursor) uses it to decode
// only the rows that pass its threshold.
func EncodedConfidence(enc []byte, attr, value string) (float64, error) {
	f, err := walk(enc, attr, value)
	if err != nil || !f.hasAttr {
		return 0, err
	}
	return f.existence * f.p, nil
}

// frame is what walk reports about a well-formed encoding.
type frame struct {
	payloadOff int // offset of the payload's length field
	nAlts      int // alternatives, summed over the uncertain attributes
	existence  float64
	hasAttr    bool    // an uncertain attribute named attr exists
	p          float64 // P(value) under the first such attribute
}

// walk is the codec's one framing validator: it checks every length
// field of b against the buffer and that nothing trails the payload.
// On the way it looks up P(value) of the uncertain attribute attr,
// with the first-match rules of Tuple.Uncertain and prob.Discrete.P.
// It does not allocate on well-formed input.
func walk(b []byte, attr, value string) (frame, error) {
	var f frame
	d := decoder{buf: b}
	d.u64() // ID
	f.existence = math.Float64frombits(d.u64())
	for i, nDet := 0, int(d.u16()); i < nDet && d.err == nil; i++ {
		d.bytes16()
		d.bytes16()
	}
	for i, nUnc := 0, int(d.u16()); i < nUnc && d.err == nil; i++ {
		name := d.bytes16()
		nAlts := int(d.u16())
		lookup := !f.hasAttr && string(name) == attr
		found := false
		for j := 0; j < nAlts && d.err == nil; j++ {
			alt := d.bytes16()
			p := math.Float64frombits(d.u64())
			if lookup && !found && string(alt) == value {
				f.p, found = p, true
			}
		}
		f.hasAttr = f.hasAttr || lookup
		f.nAlts += nAlts
	}
	f.payloadOff = d.off
	d.take(int(d.u32()))
	if d.err != nil {
		return frame{}, fmt.Errorf("tuple: decode: %w", d.err)
	}
	if d.rest() != 0 {
		return frame{}, fmt.Errorf("tuple: decode: %d trailing bytes", d.rest())
	}
	return f, nil
}

func appendStr16(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// decoder reads fields off the front of buf. It advances an offset
// rather than re-slicing buf: a pointer store per field would pay the
// GC's write barrier on the hottest loop of the read path.
type decoder struct {
	buf []byte
	off int
	err error
}

// rest is the number of bytes not yet read.
func (d *decoder) rest() int { return len(d.buf) - d.off }

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.rest() < n {
		d.err = fmt.Errorf("short buffer: need %d, have %d", n, d.rest())
		return nil
	}
	out := d.buf[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// bytes16 reads a 16-bit length and that many bytes.
func (d *decoder) bytes16() []byte { return d.take(int(d.u16())) }
