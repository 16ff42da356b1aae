package tuple

import (
	"encoding/binary"
	"fmt"
	"math"

	"upidb/internal/prob"
)

// Observation is one uncertain car observation from the Cartel-style
// dataset (paper Section 7.1): a constrained-Gaussian location, an
// uncertain road-segment attribute derived from the location, speed
// and direction estimates, and an opaque payload.
type Observation struct {
	ID        uint64
	Loc       prob.ConstrainedGaussian
	Segment   prob.Discrete // uncertain road segment IDs, encoded as strings
	Speed     float64       // m/s
	Direction float64       // radians
	Payload   []byte
}

// Validate checks probability invariants.
func (o *Observation) Validate() error {
	if err := o.Loc.Validate(); err != nil {
		return fmt.Errorf("observation %d: %w", o.ID, err)
	}
	if len(o.Segment) == 0 {
		return fmt.Errorf("observation %d: no segment alternatives", o.ID)
	}
	return o.Segment.Validate()
}

// AppendEncodeObservation appends the binary encoding of o to dst.
func AppendEncodeObservation(dst []byte, o *Observation) []byte {
	dst = binary.BigEndian.AppendUint64(dst, o.ID)
	for _, f := range []float64{o.Loc.Center.X, o.Loc.Center.Y, o.Loc.Sigma, o.Loc.Bound, o.Speed, o.Direction} {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(o.Segment)))
	for _, a := range o.Segment {
		dst = appendStr16(dst, a.Value)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Prob))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(o.Payload)))
	return append(dst, o.Payload...)
}

// EncodeObservation returns the binary encoding of o.
func EncodeObservation(o *Observation) []byte { return AppendEncodeObservation(nil, o) }

// ObservationView is a validated observation encoding — the observation
// codec's counterpart of View: the proof that walkObservation accepted
// the bytes, plus the fixed-width fields it read on the way, so that a
// circle query can integrate over Loc first and Build only the rows it
// yields, from that one framing walk. It aliases the encoding; only
// ValidateObservation hands out a non-zero one.
type ObservationView struct {
	enc []byte
	f   obsFrame
}

// ValidateObservation checks the framing of enc (the codec's one
// validator, walkObservation) and returns the view an observation can
// later be built from, without allocating or copying.
func ValidateObservation(enc []byte) (ObservationView, error) {
	f, err := walkObservation(enc)
	if err != nil {
		return ObservationView{}, err
	}
	return ObservationView{enc: enc, f: f}, nil
}

// ID is the observation's ID.
func (v ObservationView) ID() uint64 { return v.f.id }

// Loc is the observation's location distribution.
func (v ObservationView) Loc() prob.ConstrainedGaussian { return v.f.loc }

// Build constructs the observation: a zero ObservationBuilder's first
// build. It owns copies of all data. The zero view builds nil.
func (v ObservationView) Build() *Observation {
	var b ObservationBuilder
	return b.Build(v)
}

// DecodeObservation parses an observation from b: ValidateObservation,
// then Build. The returned observation owns copies of all data.
func DecodeObservation(b []byte) (*Observation, error) {
	v, err := ValidateObservation(b)
	if err != nil {
		return nil, err
	}
	return v.Build(), nil
}

// obsSegOff is where the segment alternatives start: after the ID, the
// six float64 fields and the alternative count.
const obsSegOff = 8 + 6*8 + 2

// obsFrame is what walkObservation reports about a well-formed
// encoding: the fixed-width fields and where the variable parts lie.
type obsFrame struct {
	id         uint64
	loc        prob.ConstrainedGaussian
	speed      float64
	direction  float64
	nSeg       int
	payloadOff int // offset of the payload's length field
}

// walkObservation is the observation codec's one framing validator: it
// checks every length field of b against the buffer and that nothing
// trails the payload. It does not allocate on well-formed input.
func walkObservation(b []byte) (obsFrame, error) {
	var f obsFrame
	d := decoder{buf: b}
	f.id = d.u64()
	f.loc.Center.X = math.Float64frombits(d.u64())
	f.loc.Center.Y = math.Float64frombits(d.u64())
	f.loc.Sigma = math.Float64frombits(d.u64())
	f.loc.Bound = math.Float64frombits(d.u64())
	f.speed = math.Float64frombits(d.u64())
	f.direction = math.Float64frombits(d.u64())
	f.nSeg = int(d.u16())
	for i := 0; i < f.nSeg && d.err == nil; i++ {
		d.bytes16()
		d.u64()
	}
	f.payloadOff = d.off
	d.take(int(d.u32()))
	if d.err != nil {
		return obsFrame{}, fmt.Errorf("tuple: decode observation: %w", d.err)
	}
	if d.rest() != 0 {
		return obsFrame{}, fmt.Errorf("tuple: decode observation: %d trailing bytes", d.rest())
	}
	return f, nil
}
