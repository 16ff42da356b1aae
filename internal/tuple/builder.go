package tuple

import (
	"math"
	"strings"

	"upidb/internal/prob"
)

// SlabRows is how many rows a builder's slabs hold after its first: a
// stream of n rows makes a handful of allocations per SlabRows rows
// instead of a handful per row. It also bounds what a kept row holds on
// to: a built row keeps its slabs, and so up to SlabRows rows' memory,
// reachable.
const SlabRows = 16

// Builder builds the rows of one answer into shared slabs: one array
// each of Tuple, DetField, UncField and prob.Alternative, one payload
// byte slab, and one blob holding the rows' names and values, which
// their strings are cut from. A slab that cannot hold the next row is
// replaced by a new one; the rows already built keep the old one.
//
// A zero Builder's first slab holds one row, so a stream's first row
// costs what a single build (View.Build) does; later slabs hold SlabRows
// rows the size of the row that opens them. Reserve sizes the next slabs
// exactly instead, for an executor that knows the rows before it builds
// them.
//
// Every slice a built tuple holds is capped at its own length, so an
// append to one tuple's field reallocates instead of writing into
// another tuple. A Builder must not be copied after first use and is not
// safe for concurrent use.
type Builder struct {
	tuples []Tuple
	det    []DetField
	unc    []UncField
	slabs
}

// slabs are what both builders share: alternatives, payload bytes, the
// string blob, and what Reserve has asked for and no build has used yet.
type slabs struct {
	alts    []prob.Alternative
	payload []byte
	// blob is only ever written within its capacity, so the strings its
	// String results were cut from are never moved or overwritten.
	blob strings.Builder
	need need
}

// need counts slab elements by array.
type need struct{ rows, det, unc, alts, payload, blob int }

// Reserve sizes the builder's next slabs to hold v's row as well: a
// builder that reserves each of a batch of views before building them
// allocates each slab once, exactly. The zero View reserves nothing.
func (b *Builder) Reserve(v View) {
	if v.enc == nil {
		return
	}
	nDet, nUnc, strBytes := v.counts()
	b.need.rows++
	b.need.det += nDet
	b.need.unc += nUnc
	b.need.alts += v.nAlts
	b.need.blob += strBytes
	b.need.payload += len(v.enc) - v.payloadOff - 4
}

// Build constructs the tuple of v in the builder's slabs. The tuple owns
// copies of all data: its names and values are copied into the blob and
// its distributions are cut from one run of the alternatives slab. The
// zero View builds nil.
func (b *Builder) Build(v View) *Tuple {
	if v.enc == nil {
		return nil
	}
	// The framing is valid: the reads below cannot fail.
	_, _, strBytes := v.counts()
	b.growBlob(strBytes)
	d := decoder{buf: v.enc}
	str16 := func() string { return b.str(d.bytes16()) }
	t := &take(&b.tuples, 1, &b.need.rows)[0]
	t.ID, t.Existence = d.u64(), math.Float64frombits(d.u64())
	t.Det = take(&b.det, int(d.u16()), &b.need.det)
	for i := range t.Det {
		t.Det[i].Name = str16()
		t.Det[i].Value = str16()
	}
	t.Unc = take(&b.unc, int(d.u16()), &b.need.unc)
	alts := take(&b.alts, v.nAlts, &b.need.alts)
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
	t.Payload = b.bytes(d.take(int(d.u32())))
	return t
}

// counts reads the field counts of a validated encoding, and how many of
// its bytes before the payload are names and values: all but the
// fixed-width fields and the length prefixes.
func (v View) counts() (nDet, nUnc, strBytes int) {
	d := decoder{buf: v.enc, off: 16} // past the ID and existence
	nDet = int(d.u16())
	for range nDet {
		d.bytes16()
		d.bytes16()
	}
	nUnc = int(d.u16())
	// [8 ID][8 existence][2 nDet] nDet×(2+2) [2 nUnc] nUnc×(2+2) nAlts×(2+8)
	return nDet, nUnc, v.payloadOff - 20 - 4*nDet - 4*nUnc - 10*v.nAlts
}

// ObservationBuilder is Builder for observations: it builds the rows of
// one answer into one array each of Observation and prob.Alternative, one
// payload byte slab and one blob of segment values, with the same slab
// sizes, Reserve and capped slices.
type ObservationBuilder struct {
	obs []Observation
	slabs
}

// Reserve sizes the builder's next slabs to hold v's row as well (see
// Builder.Reserve).
func (b *ObservationBuilder) Reserve(v ObservationView) {
	if v.enc == nil {
		return
	}
	b.need.rows++
	b.need.alts += v.f.nSeg
	b.need.blob += v.segBytes()
	b.need.payload += len(v.enc) - v.f.payloadOff - 4
}

// Build constructs the observation of v in the builder's slabs. It owns
// copies of all data; its segment values are copied into the blob. The
// zero view builds nil.
func (b *ObservationBuilder) Build(v ObservationView) *Observation {
	if v.enc == nil {
		return nil
	}
	// The framing is valid: the reads below cannot fail.
	o := &take(&b.obs, 1, &b.need.rows)[0]
	o.ID, o.Loc, o.Speed, o.Direction = v.f.id, v.f.loc, v.f.speed, v.f.direction
	o.Segment = take(&b.alts, v.f.nSeg, &b.need.alts)
	b.growBlob(v.segBytes())
	d := decoder{buf: v.enc, off: obsSegOff}
	for i := range o.Segment {
		o.Segment[i].Value = b.str(d.bytes16())
		o.Segment[i].Prob = math.Float64frombits(d.u64())
	}
	o.Payload = b.bytes(v.enc[v.f.payloadOff+4:])
	return o
}

// segBytes is how many bytes of the segment list are values: all but
// each alternative's length prefix and probability.
func (v ObservationView) segBytes() int { return v.f.payloadOff - obsSegOff - 10*v.f.nSeg }

// take hands out n elements of the slab *s, capped at n, after
// replacing *s when it lacks room for them. The new slab holds what
// Reserve asked for when that covers n, one row (n) when it is the
// array's first, and SlabRows rows otherwise. n == 0 takes nothing and
// returns nil.
func take[T any](s *[]T, n int, reserved *int) []T {
	if n == 0 {
		return nil
	}
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, slabLen(cap(*s) == 0, n, *reserved))
	}
	*reserved = max(*reserved-n, 0)
	i := len(*s)
	*s = (*s)[:i+n]
	return (*s)[i : i+n : i+n]
}

// slabLen is the size of a new slab whose first row needs n elements.
func slabLen(first bool, n, reserved int) int {
	switch {
	case reserved >= n:
		return reserved
	case first:
		return n
	}
	return n * SlabRows
}

// growBlob makes room in the blob for n more bytes, the strings of one
// row, so that str never needs a new slab in the middle of a row.
func (s *slabs) growBlob(n int) {
	if s.blob.Cap()-s.blob.Len() < n {
		size := slabLen(s.blob.Cap() == 0, n, s.need.blob)
		// Reset drops only the builder's reference: the strings already
		// handed out keep the old blob.
		s.blob.Reset()
		s.blob.Grow(size)
	}
	s.need.blob = max(s.need.blob-n, 0)
}

// str copies p into the room growBlob made and returns it as a string.
func (s *slabs) str(p []byte) string {
	off := s.blob.Len()
	s.blob.Write(p)
	return s.blob.String()[off:]
}

// bytes copies p into the payload slab; an empty p is nil.
func (s *slabs) bytes(p []byte) []byte {
	dst := take(&s.payload, len(p), &s.need.payload)
	copy(dst, p)
	return dst
}
