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

// DecodeObservation parses an observation from b.
func DecodeObservation(b []byte) (*Observation, error) {
	d := decoder{buf: b}
	o := &Observation{}
	o.ID = d.u64()
	o.Loc.Center.X = math.Float64frombits(d.u64())
	o.Loc.Center.Y = math.Float64frombits(d.u64())
	o.Loc.Sigma = math.Float64frombits(d.u64())
	o.Loc.Bound = math.Float64frombits(d.u64())
	o.Speed = math.Float64frombits(d.u64())
	o.Direction = math.Float64frombits(d.u64())
	nSeg := int(d.u16())
	if d.err == nil && nSeg > 0 {
		o.Segment = make(prob.Discrete, nSeg)
		for i := 0; i < nSeg; i++ {
			o.Segment[i].Value = string(d.bytes16())
			o.Segment[i].Prob = math.Float64frombits(d.u64())
		}
	}
	plen := int(d.u32())
	if d.err == nil && plen > 0 {
		p := d.take(plen)
		if d.err == nil {
			o.Payload = append([]byte(nil), p...)
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("tuple: decode observation: %w", d.err)
	}
	if d.rest() != 0 {
		return nil, fmt.Errorf("tuple: decode observation: %d trailing bytes", d.rest())
	}
	return o, nil
}
