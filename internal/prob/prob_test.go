package prob

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewDiscreteSortsAndMerges(t *testing.T) {
	d, err := NewDiscrete([]Alternative{
		{Value: "MIT", Prob: 0.2},
		{Value: "Brown", Prob: 0.5},
		{Value: "Brown", Prob: 0.3}, // merged: Brown = 0.8
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 || d[0].Value != "Brown" || !almostEq(d[0].Prob, 0.8, 1e-12) {
		t.Fatalf("got %+v", d)
	}
	if d.First().Value != "Brown" {
		t.Fatalf("First = %+v", d.First())
	}
}

func TestNewDiscreteValidation(t *testing.T) {
	if _, err := NewDiscrete([]Alternative{{Value: "A", Prob: 0.7}, {Value: "B", Prob: 0.7}}); err == nil {
		t.Fatal("over-mass distribution accepted")
	}
	if _, err := NewDiscrete([]Alternative{{Value: "A", Prob: -0.1}}); err == nil {
		t.Fatal("negative probability accepted")
	}
	if _, err := NewDiscrete([]Alternative{{Value: "A", Prob: 1.5}}); err == nil {
		t.Fatal("probability > 1 accepted")
	}
}

func TestDiscreteDeterministicTieBreak(t *testing.T) {
	d1, _ := NewDiscrete([]Alternative{{Value: "B", Prob: 0.5}, {Value: "A", Prob: 0.5}})
	d2, _ := NewDiscrete([]Alternative{{Value: "A", Prob: 0.5}, {Value: "B", Prob: 0.5}})
	if d1[0].Value != d2[0].Value || d1[0].Value != "A" {
		t.Fatalf("tie break not deterministic: %+v vs %+v", d1, d2)
	}
}

func TestPAndMass(t *testing.T) {
	d, _ := NewDiscrete([]Alternative{{Value: "MIT", Prob: 0.95}, {Value: "UCB", Prob: 0.05}})
	if d.P("MIT") != 0.95 || d.P("UCB") != 0.05 || d.P("Brown") != 0 {
		t.Fatalf("P wrong: %+v", d)
	}
	if !almostEq(d.Mass(), 1.0, 1e-12) {
		t.Fatalf("mass = %v", d.Mass())
	}
}

func TestNormalizeAndTruncate(t *testing.T) {
	d := Discrete{{Value: "A", Prob: 0.6}, {Value: "B", Prob: 0.3}, {Value: "C", Prob: 0.1}}
	trunc := d.TruncateLowest(2)
	if len(trunc) != 2 || trunc[0].Value != "A" || trunc[1].Value != "B" {
		t.Fatalf("truncate: %+v", trunc)
	}
	n := trunc.Normalize()
	if !almostEq(n.Mass(), 1.0, 1e-12) || !almostEq(n[0].Prob, 2.0/3.0, 1e-12) {
		t.Fatalf("normalize: %+v", n)
	}
	if got := d.TruncateLowest(10); len(got) != 3 {
		t.Fatal("truncate with large limit changed distribution")
	}
	if Discrete(nil).Normalize() != nil {
		t.Fatal("normalize of empty should be nil")
	}
}

func TestConfidenceRunningExample(t *testing.T) {
	// Paper Section 1: Alice works for MIT with confidence 90%×20% = 18%.
	alice, _ := NewDiscrete([]Alternative{{Value: "Brown", Prob: 0.8}, {Value: "MIT", Prob: 0.2}})
	if c := Confidence(0.9, alice, "MIT"); !almostEq(c, 0.18, 1e-12) {
		t.Fatalf("Alice MIT confidence = %v, want 0.18", c)
	}
	bob, _ := NewDiscrete([]Alternative{{Value: "MIT", Prob: 0.95}, {Value: "UCB", Prob: 0.05}})
	if c := Confidence(1.0, bob, "MIT"); !almostEq(c, 0.95, 1e-12) {
		t.Fatalf("Bob MIT confidence = %v, want 0.95", c)
	}
}

func TestEntropy(t *testing.T) {
	uniform := Discrete{{Value: "A", Prob: 0.5}, {Value: "B", Prob: 0.5}}
	point := Discrete{{Value: "A", Prob: 1.0}}
	if uniform.Entropy() <= point.Entropy() {
		t.Fatal("uniform should have higher entropy than point mass")
	}
	if !almostEq(point.Entropy(), 0, 1e-12) {
		t.Fatalf("point entropy = %v", point.Entropy())
	}
}

// TestWorldEnumerationMatchesClosedForm: the exponential enumerator
// must agree with existence × P(value) since tuples are independent.
func TestWorldEnumerationMatchesClosedForm(t *testing.T) {
	alice, _ := NewDiscrete([]Alternative{{Value: "Brown", Prob: 0.8}, {Value: "MIT", Prob: 0.2}})
	bob, _ := NewDiscrete([]Alternative{{Value: "MIT", Prob: 0.95}, {Value: "UCB", Prob: 0.05}})
	carol, _ := NewDiscrete([]Alternative{{Value: "Brown", Prob: 0.6}, {Value: "U. Tokyo", Prob: 0.4}})
	tuples := []WorldTuple{
		{ID: 1, Existence: 0.9, Attr: alice},
		{ID: 2, Existence: 1.0, Attr: bob},
		{ID: 3, Existence: 0.8, Attr: carol},
	}
	conf := EqualityConfidences(tuples, "MIT")
	if !almostEq(conf[1], 0.18, 1e-9) || !almostEq(conf[2], 0.95, 1e-9) || !almostEq(conf[3], 0, 1e-9) {
		t.Fatalf("confidences: %+v", conf)
	}
	// Paper's Query 1 with QT given: {Alice 18%, Bob 95%}.
	ids := PTQAnswer(tuples, "MIT", 0.10)
	if len(ids) != 2 {
		t.Fatalf("PTQ answer: %v", ids)
	}
	ids = PTQAnswer(tuples, "MIT", 0.50)
	if len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("PTQ answer at 0.5: %v", ids)
	}
}

func TestWorldEnumerationResidualMass(t *testing.T) {
	// Distribution with mass 0.6: residual 0.4 never matches.
	d := Discrete{{Value: "A", Prob: 0.6}}
	conf := EqualityConfidences([]WorldTuple{{ID: 1, Existence: 1.0, Attr: d}}, "A")
	if !almostEq(conf[1], 0.6, 1e-9) {
		t.Fatalf("conf = %v", conf[1])
	}
}

func TestRectOps(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	if !a.Intersects(b) || a.Intersection(b).Area() != 25 {
		t.Fatalf("intersection: %+v", a.Intersection(b))
	}
	u := a.Union(b)
	if u != (Rect{0, 0, 15, 15}) {
		t.Fatalf("union: %+v", u)
	}
	if a.Area() != 100 || a.Margin() != 20 {
		t.Fatalf("area/margin: %v %v", a.Area(), a.Margin())
	}
	if !a.Contains(Point{5, 5}) || a.Contains(Point{11, 5}) {
		t.Fatal("contains wrong")
	}
	if !u.ContainsRect(a) || a.ContainsRect(u) {
		t.Fatal("ContainsRect wrong")
	}
	far := Rect{100, 100, 110, 110}
	if a.Intersects(far) || a.Intersection(far).Area() != 0 {
		t.Fatal("disjoint rect handling wrong")
	}
	if c := a.Center(); c != (Point{5, 5}) {
		t.Fatalf("center: %+v", c)
	}
}

func TestConstrainedGaussianRadialCDF(t *testing.T) {
	g := ConstrainedGaussian{Center: Point{0, 0}, Sigma: 20, Bound: 100}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.CDFRadius(0) != 0 || g.CDFRadius(100) != 1 || g.CDFRadius(200) != 1 {
		t.Fatal("CDF boundary values wrong")
	}
	// Monotone.
	prev := 0.0
	for d := 5.0; d <= 100; d += 5 {
		c := g.CDFRadius(d)
		if c < prev {
			t.Fatalf("CDF not monotone at %v", d)
		}
		prev = c
	}
	// Quantile inverts CDF.
	for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		r := g.QuantileRadius(p)
		if !almostEq(g.CDFRadius(r), p, 1e-9) {
			t.Fatalf("quantile/CDF mismatch at p=%v: r=%v cdf=%v", p, r, g.CDFRadius(r))
		}
	}
	if g.QuantileRadius(0) != 0 || g.QuantileRadius(1) != g.Bound {
		t.Fatal("quantile boundaries wrong")
	}
	if (ConstrainedGaussian{Sigma: 0, Bound: 1}).Validate() == nil {
		t.Fatal("zero sigma accepted")
	}
	if (ConstrainedGaussian{Sigma: 1, Bound: 0}).Validate() == nil {
		t.Fatal("zero bound accepted")
	}
}

func TestProbInCircleAgreesWithRadialCDF(t *testing.T) {
	// A query circle centered on the object: grid integration must
	// agree with the exact radial CDF.
	g := ConstrainedGaussian{Center: Point{50, -30}, Sigma: 20, Bound: 100}
	for _, r := range []float64{20, 40, 60, 80} {
		grid := g.ProbInCircle(g.Center, r)
		exact := g.CDFRadius(r)
		if !almostEq(grid, exact, 0.01) {
			t.Fatalf("r=%v: grid=%v exact=%v", r, grid, exact)
		}
	}
}

func TestProbInCircleFastPaths(t *testing.T) {
	g := ConstrainedGaussian{Center: Point{0, 0}, Sigma: 10, Bound: 50}
	if p := g.ProbInCircle(Point{1000, 0}, 100); p != 0 {
		t.Fatalf("disjoint: %v", p)
	}
	if p := g.ProbInCircle(Point{0, 0}, 200); p != 1 {
		t.Fatalf("containing: %v", p)
	}
}

func TestProbInCircleOffCenter(t *testing.T) {
	g := ConstrainedGaussian{Center: Point{0, 0}, Sigma: 20, Bound: 100}
	// A query covering exactly half the plane through the center
	// cannot be represented as a circle, but a big circle centered far
	// to the right whose boundary passes through the origin covers
	// about half the mass.
	p := g.ProbInCircle(Point{10000, 0}, 10000)
	if !almostEq(p, 0.5, 0.03) {
		t.Fatalf("half-plane approx = %v, want ~0.5", p)
	}
}

// Property: confidence is always within [0, existence].
func TestConfidenceBounds(t *testing.T) {
	err := quick.Check(func(e, p1, p2 float64) bool {
		e = math.Abs(math.Mod(e, 1))
		p1 = math.Abs(math.Mod(p1, 0.5))
		p2 = math.Abs(math.Mod(p2, 0.5))
		if p1 == 0 {
			p1 = 0.25
		}
		if p2 == 0 {
			p2 = 0.25
		}
		d, err := NewDiscrete([]Alternative{{Value: "A", Prob: p1}, {Value: "B", Prob: p2}})
		if err != nil {
			return false
		}
		c := Confidence(e, d, "A")
		return c >= 0 && c <= e+1e-12
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// oracleProbInCircle is the per-cell integrator ProbInCircle replaced,
// kept verbatim as the reference: one Exp and two Hypot per cell of the
// same 48×48 midpoint grid.
func oracleProbInCircle(g ConstrainedGaussian, q Point, radius float64) float64 {
	centerDist := g.Center.Dist(q)
	if centerDist >= radius+g.Bound {
		return 0
	}
	if centerDist+g.Bound <= radius {
		return 1
	}
	qBox := Rect{MinX: q.X - radius, MinY: q.Y - radius, MaxX: q.X + radius, MaxY: q.Y + radius}
	box := g.MBR().Intersection(qBox)
	inside := func(p Point) bool { return p.Dist(q) <= radius }
	if box.Area() == 0 {
		return 0
	}
	norm := g.truncNorm()
	twoSigma2 := 2 * g.Sigma * g.Sigma
	stepX := (box.MaxX - box.MinX) / probGridN
	stepY := (box.MaxY - box.MinY) / probGridN
	cellArea := stepX * stepY
	sum := 0.0
	for i := 0; i < probGridN; i++ {
		x := box.MinX + (float64(i)+0.5)*stepX
		for j := 0; j < probGridN; j++ {
			y := box.MinY + (float64(j)+0.5)*stepY
			p := Point{X: x, Y: y}
			dc := p.Dist(g.Center)
			if dc > g.Bound || !inside(p) {
				continue
			}
			density := math.Exp(-(dc*dc)/twoSigma2) / (2 * math.Pi * g.Sigma * g.Sigma * norm)
			sum += density * cellArea
		}
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// kernelTol is how far the run-based ProbInCircle may sit from the
// per-cell oracle: rounding only, never a cell.
const kernelTol = 1e-12

func TestProbInCircleAgreesWithPerCellOracle(t *testing.T) {
	n := 30000
	if testing.Short() {
		n = 3000
	}
	rng := rand.New(rand.NewSource(19))
	worst := 0.0
	for i := 0; i < n; i++ {
		sigma := 1 + 59*rng.Float64()
		g := ConstrainedGaussian{
			Center: Point{X: 2000 * (rng.Float64() - 0.5), Y: 2000 * (rng.Float64() - 0.5)},
			Sigma:  sigma,
			Bound:  sigma * (0.5 + 4*rng.Float64()),
		}
		r := 5 + 295*rng.Float64()
		d := 1.05 * (r + g.Bound) * rng.Float64()
		a := 2 * math.Pi * rng.Float64()
		q := Point{X: g.Center.X + d*math.Cos(a), Y: g.Center.Y + d*math.Sin(a)}
		got, want := g.ProbInCircle(q, r), oracleProbInCircle(g, q, r)
		diff := math.Abs(got - want)
		if diff > kernelTol {
			t.Fatalf("g=%+v q=%+v r=%v: got %v, oracle %v (diff %g)", g, q, r, got, want, diff)
		}
		worst = math.Max(worst, diff)
	}
	t.Logf("max |ProbInCircle - oracle| over %d cases: %g", n, worst)
}

func TestProbInCircleEdges(t *testing.T) {
	g := ConstrainedGaussian{Center: Point{X: 120, Y: -40}, Sigma: 20, Bound: 100}
	at := func(d float64) Point { return Point{X: g.Center.X + d*0.6, Y: g.Center.Y + d*0.8} }
	eps := 1e-9
	cases := []struct {
		name string
		g    ConstrainedGaussian
		q    Point
		r    float64
	}{
		{"query centre on object centre", g, g.Center, 60},
		{"tangent outside, just touching", g, at(150 - eps), 50},
		{"tangent inside, just short of contained", g, at(50 + eps), 150},
		{"query disk inside truncation disk", g, at(30), 25},
		{"truncation disk almost inside query disk", g, at(10), 109.5},
		{"radius far below sigma", g, at(15), 0.5},
		{"bound below sigma", ConstrainedGaussian{Center: g.Center, Sigma: 50, Bound: 20}, at(25), 30},
		{"centre on the circle's edge, axis-aligned", g, Point{X: g.Center.X + 100, Y: g.Center.Y}, 100},
		{"centre on the circle's edge, diagonal", g, at(100), 100},
		{"axis-aligned grid whose midpoints fall on the circle", ConstrainedGaussian{Sigma: 24, Bound: 48}, Point{}, 40},
	}
	for _, c := range cases {
		got, want := c.g.ProbInCircle(c.q, c.r), oracleProbInCircle(c.g, c.q, c.r)
		if math.Abs(got-want) > kernelTol {
			t.Errorf("%s: got %v, oracle %v", c.name, got, want)
		}
		if got < 0 || got > 1 {
			t.Errorf("%s: %v outside [0, 1]", c.name, got)
		}
	}
	// The benchmark ladder's sanity case: a circle through the centre
	// holds about half the mass.
	if p := g.ProbInCircle(at(100), 100); !almostEq(p, 0.5, 0.05) {
		t.Errorf("centre on the circle's edge = %v, want about a half", p)
	}
	// The two fast paths are exact, at and beyond the tangent.
	for _, d := range []float64{150, 151, 1e6} {
		if p := g.ProbInCircle(at(d), 50); p != 0 {
			t.Errorf("disjoint at distance %v: %v, want exactly 0", d, p)
		}
	}
	for _, d := range []float64{0, 49, 50} {
		if p := g.ProbInCircle(at(d), 150); p != 1 {
			t.Errorf("contained at distance %v: %v, want exactly 1", d, p)
		}
	}
}

func TestProbInCircleDoesNotAllocate(t *testing.T) {
	g := ConstrainedGaussian{Center: Point{X: 10, Y: 20}, Sigma: 20, Bound: 100}
	q := Point{X: 90, Y: -15}
	if n := testing.AllocsPerRun(100, func() { sinkFloat = g.ProbInCircle(q, 100) }); n != 0 {
		t.Fatalf("ProbInCircle allocates %v times per call, want 0", n)
	}
}

// radialProbInCircle is a reference for ProbInCircle that shares
// nothing with the grid: in polar coordinates about the object centre
// the mass is ∫₀ᴮ (ρ/σ²)·e^{-ρ²/2σ²}·φ(ρ)/2π dρ over the truncation
// mass, φ(ρ) being the arc of the radius-ρ circle inside the query
// disk. Simpson's rule on each smooth piece of φ.
func radialProbInCircle(g ConstrainedGaussian, q Point, radius float64) float64 {
	d := g.Center.Dist(q)
	arc := func(rho float64) float64 {
		switch {
		case rho+d <= radius:
			return 2 * math.Pi
		case rho >= d+radius || d >= rho+radius:
			return 0
		}
		return 2 * math.Acos((rho*rho+d*d-radius*radius)/(2*rho*d))
	}
	f := func(rho float64) float64 {
		return rho / (g.Sigma * g.Sigma) * math.Exp(-rho*rho/(2*g.Sigma*g.Sigma)) * arc(rho) / (2 * math.Pi)
	}
	// φ has kinks where the circle starts and stops crossing the disk,
	// and meets them like a square root: integrate piece by piece, with
	// ρ = a + (b-a)(1-cos θ)/2 so the integrand is smooth in θ at both
	// ends, by Simpson's rule over θ ∈ [0, π].
	const n = 2000 // even
	cuts := [...]float64{0, math.Abs(radius - d), d + radius, g.Bound}
	total := 0.0
	for i := 1; i < len(cuts); i++ {
		a, b := math.Min(cuts[i-1], g.Bound), math.Min(cuts[i], g.Bound)
		if b <= a {
			continue
		}
		piece := 0.0
		for k := 0; k <= n; k++ {
			w := 2.0
			if k == 0 || k == n {
				w = 1
			} else if k%2 == 1 {
				w = 4
			}
			th := math.Pi * float64(k) / n
			piece += w * f(a+(b-a)*(1-math.Cos(th))/2) * math.Sin(th)
		}
		total += piece * (math.Pi / n / 3) * (b - a) / 2
	}
	return total / g.truncNorm()
}

// TestProbInCircleGridError pins how far the 48×48 midpoint rule sits
// from the true probability for the dataset's distribution, so that a
// change to the rule (or to probGridN's comment) has a number to meet.
// The bounds hold on a 200-distance × 32-angle sweep too (worst found:
// 6.2e-3 at r = 75, 1.7e-2 at r = 300, both probed below); tier-1 runs
// a coarser one.
func TestProbInCircleGridError(t *testing.T) {
	g := ConstrainedGaussian{Center: Point{X: 300, Y: 700}, Sigma: 20, Bound: 100}
	check := func(q Point, r, tol float64) float64 {
		grid, exact := g.ProbInCircle(q, r), radialProbInCircle(g, q, r)
		e := math.Abs(grid - exact)
		if e > tol {
			t.Errorf("r=%v q=%+v: grid %v, radial %v, error %g > %g", r, q, grid, exact, e, tol)
		}
		return e
	}
	for _, band := range []struct {
		radii []float64
		tol   float64
	}{
		{[]float64{10, 25, 50, 75, 100}, 7e-3},
		{[]float64{150, 200, 300}, 2e-2},
	} {
		worst := 0.0
		for _, r := range band.radii {
			for d := 0.0; d < r+g.Bound; d += (r + g.Bound) / 40 {
				for a := 0.0; a < math.Pi/2; a += math.Pi / 16 {
					q := Point{X: g.Center.X + d*math.Cos(a), Y: g.Center.Y + d*math.Sin(a)}
					worst = math.Max(worst, check(q, r, band.tol))
				}
			}
		}
		t.Logf("radii %v: worst grid error %.2g (bound %g)", band.radii, worst, band.tol)
	}
	if e := check(Point{X: 370.3303294124217, Y: 729.1317762887925}, 75, 7e-3); e < 6e-3 {
		t.Errorf("the worst case found for r <= 100 is off by only %g: restate the bound", e)
	}
	if e := check(Point{X: 519.3215331050678, Y: 898.7814506347174}, 300, 2e-2); e < 1.6e-2 {
		t.Errorf("the worst case found for r <= 300 is off by only %g: restate the bound", e)
	}
	// The reference itself: centred queries have a closed form.
	for _, r := range []float64{20, 60, 99} {
		if got, want := radialProbInCircle(g, g.Center, r), g.CDFRadius(r); !almostEq(got, want, 1e-9) {
			t.Errorf("radial reference at r=%v: %v, closed form %v", r, got, want)
		}
	}
}

var sinkFloat float64

func BenchmarkProbInCircle(b *testing.B) {
	g := ConstrainedGaussian{Center: Point{X: 10, Y: 20}, Sigma: 20, Bound: 100}
	q := Point{X: 90, Y: -15}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFloat = g.ProbInCircle(q, 100)
	}
}
