package prob

import (
	"fmt"
	"math"
)

// Point is a 2-D location. The Cartel-style datasets use a local
// tangent-plane coordinate system in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Rect is an axis-aligned rectangle (MBR).
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether the rectangle contains p.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether r fully contains o.
func (r Rect) ContainsRect(o Rect) bool {
	return o.MinX >= r.MinX && o.MaxX <= r.MaxX && o.MinY >= r.MinY && o.MaxY <= r.MaxY
}

// Intersects reports whether two rectangles overlap.
func (r Rect) Intersects(o Rect) bool {
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX && r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// Union returns the smallest rectangle covering both.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, o.MinX), MinY: math.Min(r.MinY, o.MinY),
		MaxX: math.Max(r.MaxX, o.MaxX), MaxY: math.Max(r.MaxY, o.MaxY),
	}
}

// Area returns the rectangle's area (0 for degenerate rectangles).
func (r Rect) Area() float64 {
	w, h := r.MaxX-r.MinX, r.MaxY-r.MinY
	if w < 0 || h < 0 {
		return 0
	}
	return w * h
}

// Margin returns the half-perimeter, used by R*-style split heuristics.
func (r Rect) Margin() float64 { return (r.MaxX - r.MinX) + (r.MaxY - r.MinY) }

// Intersection returns the overlapping rectangle (possibly degenerate).
func (r Rect) Intersection(o Rect) Rect {
	return Rect{
		MinX: math.Max(r.MinX, o.MinX), MinY: math.Max(r.MinY, o.MinY),
		MaxX: math.Min(r.MaxX, o.MaxX), MaxY: math.Min(r.MaxY, o.MaxY),
	}
}

// Center returns the rectangle's center point.
func (r Rect) Center() Point { return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2} }

// ConstrainedGaussian is the paper's continuous uncertainty model for
// GPS positions (Section 7.1: "a constrained Gaussian distribution...
// with a boundary to limit the distribution as done in [16]"): an
// isotropic 2-D Gaussian centered at Center with standard deviation
// Sigma, truncated to the disk of radius Bound and renormalized.
type ConstrainedGaussian struct {
	Center Point
	Sigma  float64
	Bound  float64 // truncation radius; must be > 0
}

// Validate checks the distribution parameters: a finite centre and a
// finite, positive sigma and bound.
func (g ConstrainedGaussian) Validate() error {
	if !finite(g.Center.X) || !finite(g.Center.Y) {
		return fmt.Errorf("prob: centre %v must be finite", g.Center)
	}
	if !(g.Sigma > 0) || !finite(g.Sigma) {
		return fmt.Errorf("prob: sigma %v must be positive and finite", g.Sigma)
	}
	if !(g.Bound > 0) || !finite(g.Bound) {
		return fmt.Errorf("prob: bound %v must be positive and finite", g.Bound)
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// MBR returns the minimum bounding rectangle of the uncertainty
// region (the truncation disk).
func (g ConstrainedGaussian) MBR() Rect {
	return Rect{
		MinX: g.Center.X - g.Bound, MinY: g.Center.Y - g.Bound,
		MaxX: g.Center.X + g.Bound, MaxY: g.Center.Y + g.Bound,
	}
}

// truncNorm is the normalizing mass of the untruncated Gaussian inside
// the bound: P(r <= Bound) = 1 - exp(-Bound² / 2σ²).
func (g ConstrainedGaussian) truncNorm() float64 {
	return 1 - math.Exp(-(g.Bound*g.Bound)/(2*g.Sigma*g.Sigma))
}

// CDFRadius returns P(distance from center <= d) under the constrained
// Gaussian. For the isotropic 2-D Gaussian the radial CDF is
// 1 - exp(-d²/2σ²), renormalized by the truncation mass.
func (g ConstrainedGaussian) CDFRadius(d float64) float64 {
	if d <= 0 {
		return 0
	}
	if d >= g.Bound {
		return 1
	}
	return (1 - math.Exp(-(d*d)/(2*g.Sigma*g.Sigma))) / g.truncNorm()
}

// QuantileRadius returns the radius containing probability mass p
// (inverse of CDFRadius). It is what the U-Tree precomputes for its
// probabilistically constrained regions.
func (g ConstrainedGaussian) QuantileRadius(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return g.Bound
	}
	// Invert p = (1 - exp(-r²/2σ²)) / norm.
	inner := 1 - p*g.truncNorm()
	return math.Sqrt(-2 * g.Sigma * g.Sigma * math.Log(inner))
}

// circleNodes is the size of the Gauss–Legendre rule ProbInCircle
// integrates with.
const circleNodes = 24

// The rule, mapped to t ∈ [0, π] and tabulated once: the node's share
// of the integration interval, (1 − cos t)/2, and its weight w·sin(t)/4
// (the rule's weight times the Jacobian π/2 · sin(t)/2 of the two
// substitutions, times the 1/π of the arc share).
var circleShare, circleWeight [circleNodes]float64

func init() {
	const n = circleNodes
	for i := 0; i < n; i++ {
		// Newton's method for the i-th root of the Legendre polynomial
		// P_n, from the usual asymptotic guess.
		x := math.Cos(math.Pi * (float64(i) + 0.75) / (n + 0.5))
		var dp float64
		for iter := 0; iter < 100; iter++ {
			p0, p1 := 1.0, x
			for k := 2; k <= n; k++ {
				p0, p1 = p1, (float64(2*k-1)*x*p1-float64(k-1)*p0)/float64(k)
			}
			dp = n * (x*p1 - p0) / (x*x - 1)
			dx := p1 / dp
			x -= dx
			if math.Abs(dx) < 1e-16 {
				break
			}
		}
		w := 2 / ((1 - x*x) * dp * dp)
		t := math.Pi * (1 + x) / 2
		half := math.Sin(t / 2)
		circleShare[i] = half * half
		circleWeight[i] = w * math.Sin(t) / 4
	}
}

// CircleTolerance is how far ProbInCircle may sit from the exact
// probability: the error its tests hold it to for any σ in [1, 50],
// Bound in [1, 150] and radius up to 300 m (the dataset's distribution
// is held to 1e-9). ProbInCircleAtLeast keeps this margin below its
// floor.
const CircleTolerance = 1e-8

// ProbInCircle returns the probability that the (truncated) position
// falls within the disk of the given radius around q.
//
// In polar coordinates about the object centre, at distance d from q,
// the circle of radius r lies wholly inside the query disk (radius R)
// for r < R − d, wholly outside for r < d − R or r > R + d, and in
// between has the share A(r) = acos((r² + d² − R²)/2rd)/π inside it.
// With F(r) = 1 − e^{−r²/2σ²} and a = |R − d| the probability is
//
//	[1{R ≥ d}·F(min(a, Bound)) + ∫ₐᵇ (r/σ²)·e^{−r²/2σ²}·A(r) dr] / F(Bound)
//
// with b = min(R + d, Bound, a + 8σ): beyond a + 8σ the density holds
// less than e^{−32}, and the cap keeps the rule's nodes on a Gaussian
// far narrower than the disks. A meets both ends of [a, b] like a
// square root, so the integral is taken in t, with
// r = a + (b − a)(1 − cos t)/2, where the integrand is smooth, by a
// 24-node Gauss–Legendre rule: 24 exponentials and 24 arc cosines, no
// allocation. The arc cosines are acos's, fdlibm's rational form, which
// is within 9e-16 of the exact angle where math.Acos is off by up to
// 4e-14 near ±1, and takes about 40 % less time. Against a 2 000-node
// Simpson integration of the same radial form (prob_test.go) the
// measured error is at most 2e-10 for the dataset's σ = 20,
// Bound = 100 at radii up to 300 m (tested to 1e-9), and 1.4e-9 for
// σ in [1, 50], Bound in [1, 150] and radii to 300 m drawn at random
// (tested to CircleTolerance). The answer depends on q only through d,
// so it does not change when the query is rotated about the object.
// Disjoint and containing disks are exactly 0 and 1.
func (g ConstrainedGaussian) ProbInCircle(q Point, radius float64) float64 {
	return g.probInCircle(g.Center.Dist(q), radius)
}

// ProbInCircleAtLeast is ProbInCircle for a caller that keeps the
// answer only if it reaches floor. When the centre lies outside the
// query disk (d > R), the disk lies inside the half-plane of points at
// least d − R from the centre in q's direction, which holds
//
//	½·erfc((d − R)/σ√2)
//
// of the untruncated Gaussian: its projection on any direction is a
// 1-D normal. Truncation does not raise that share: at radius r the
// half-plane covers acos((d − R)/r)/π of the circle, which grows with
// r, and truncation keeps only the smaller radii. If this bound is
// below floor − CircleTolerance, ProbInCircle would answer below floor
// too, so ok is false and the probability is not integrated (one erfc
// against 24 exponentials). Otherwise p is exactly ProbInCircle(q,
// radius) and ok is true: a p below floor is the caller's to reject.
// σ is clamped as ProbInCircle clamps it.
func (g ConstrainedGaussian) ProbInCircleAtLeast(q Point, radius, floor float64) (p float64, ok bool) {
	d := g.Center.Dist(q)
	if d > radius && math.Erfc((d-radius)/(g.clampedSigma()*math.Sqrt2))/2 < floor-CircleTolerance {
		return 0, false
	}
	return g.probInCircle(d, radius), true
}

// clampedSigma is σ, or 1e100·Bound if σ is larger: the density is flat
// over the disk to within 1e-200 either way, and (Bound/σ)² must not
// underflow.
func (g ConstrainedGaussian) clampedSigma() float64 { return min(g.Sigma, 1e100*g.Bound) }

// probInCircle is ProbInCircle for a query centre at distance d from the
// object's centre.
func (g ConstrainedGaussian) probInCircle(d, radius float64) float64 {
	// Fast paths: disjoint or fully containing query regions.
	if d >= radius+g.Bound {
		return 0
	}
	if d+g.Bound <= radius {
		return 1
	}
	// Lengths are in units of σ from here on.
	sigma := g.clampedSigma()
	a := math.Abs(radius-d) / sigma
	bound := g.Bound / sigma
	p := 0.0
	if radius >= d {
		p = radialCDF(min(a, bound))
	}
	// The circles the query's edge crosses span a ≤ u ≤ a + width. With
	// δ = u − a and D = d/σ the arc share's cosine (u² + D² − R²/σ²)/2uD
	// is (δ(2a + δ)/2D ∓ a)/u, − when R ≥ d: no two large terms cancel
	// when d or R dwarfs σ, and δ/D stays within [0, 2]. Past u = 40 the
	// density underflows; a band narrower than 1e-300 holds no mass a
	// float can carry.
	width := min(2*(min(radius, d)/sigma), bound-a, 8)
	if width > 1e-300 && a < 40 {
		invD := sigma / d
		signedA := a
		if radius >= d {
			signedA = -a
		}
		sum := 0.0
		for i, share := range circleShare {
			delta := width * share
			u := a + delta
			cos := (delta*invD*(2*a+delta)/2 + signedA) / u
			sum += circleWeight[i] * u * math.Exp(-u*u/2) * acos(min(max(cos, -1), 1))
		}
		p += sum * width
	}
	p /= radialCDF(bound)
	if p > 1 {
		p = 1
	}
	return p
}

// radialCDF is the untruncated radial CDF at u standard deviations,
// 1 − e^{−u²/2}, accurate for small u too.
func radialCDF(u float64) float64 { return -math.Expm1(-u * u / 2) }

// acos is the arc cosine of x in [−1, 1] in fdlibm's form (e_acos.c).
// One rational function r(z) gives asin(√z) = √z·(1 + r(z)) for
// z ≤ 0.5. Up to |x| = 0.5, acos(x) = π/2 − asin(x) with z = x², and
// asin(x) ≤ π/6 cancels nothing. Beyond, z = (1 − |x|)/2 and the
// half-angle identities acos(x) = 2·asin(√z) for x > 0.5 and
// π − 2·asin(√z) for x < −0.5 keep the accuracy near ±1, where
// math.Acos's π/2 − asin(x) cancels. So each call costs one division,
// and a square root beyond ±0.5. TestAcosMatchesHalfAngle holds it to
// 2e-15 over the whole domain and to exact values at −1, 0 and 1;
// outside [−1, 1] the result is meaningless.
func acos(x float64) float64 {
	const (
		pio2Hi = 1.57079632679489655800e+00 // π/2 rounded
		pio2Lo = 6.12323399573676603587e-17 // π/2 − pio2Hi
		pS0    = 1.66666666666666657415e-01
		pS1    = -3.25565818622400915405e-01
		pS2    = 2.01212532134862925881e-01
		pS3    = -4.00555345006794114027e-02
		pS4    = 7.91534994289814532176e-04
		pS5    = 3.47933107596021167570e-05
		qS1    = -2.40339491173441421878e+00
		qS2    = 2.02094576023350569471e+00
		qS3    = -6.88283971605453293030e-01
		qS4    = 7.70381505559019352791e-02
	)
	// r(z) is asin(√z)/√z − 1.
	r := func(z float64) float64 {
		p := z * (pS0 + z*(pS1+z*(pS2+z*(pS3+z*(pS4+z*pS5)))))
		q := 1 + z*(qS1+z*(qS2+z*(qS3+z*qS4)))
		return p / q
	}
	switch {
	case x > 0.5:
		z := (1 - x) / 2
		s := math.Sqrt(z)
		return 2 * (s + s*r(z))
	case x < -0.5:
		z := (1 + x) / 2
		s := math.Sqrt(z)
		return 2*pio2Hi - 2*(s+(s*r(z)-pio2Lo))
	default:
		return pio2Hi - (x - (pio2Lo - x*r(x*x)))
	}
}
