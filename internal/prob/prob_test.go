package prob

import (
	"math"
	"math/rand"
	"slices"
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

func TestConstrainedGaussianValidateNonFinite(t *testing.T) {
	ok := ConstrainedGaussian{Center: Point{X: 3, Y: 4}, Sigma: 20, Bound: 100}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, set := range map[string]func(*ConstrainedGaussian){
			"centre x": func(g *ConstrainedGaussian) { g.Center.X = v },
			"centre y": func(g *ConstrainedGaussian) { g.Center.Y = v },
			"sigma":    func(g *ConstrainedGaussian) { g.Sigma = v },
			"bound":    func(g *ConstrainedGaussian) { g.Bound = v },
		} {
			g := ok
			set(&g)
			if g.Validate() == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
		}
	}
}

func TestProbInCircleAgreesWithRadialCDF(t *testing.T) {
	// A query circle centered on the object holds exactly the radial
	// CDF's mass.
	for _, g := range []ConstrainedGaussian{
		{Center: Point{50, -30}, Sigma: 20, Bound: 100},
		{Center: Point{-7, 3}, Sigma: 50, Bound: 20},
		{Center: Point{1e4, 2e4}, Sigma: 1, Bound: 150},
	} {
		for _, r := range []float64{1e-3, 0.5, 5, 20, 40, 60, 80, 99.9, 100, 150} {
			got, want := g.ProbInCircle(g.Center, r), g.CDFRadius(r)
			if !almostEq(got, want, 1e-12) {
				t.Fatalf("g=%+v r=%v: ProbInCircle %v, CDFRadius %v", g, r, got, want)
			}
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

// sweepTol is how far ProbInCircle may sit from the reference for the
// dataset's distribution (σ = 20, Bound = 100). For any σ in [1, 50],
// Bound in [1, 150] and radius up to 300 m it is CircleTolerance, where
// a Gaussian much narrower than the band of circles the query edge
// crosses costs the 24-node rule a few 1e-9.
const sweepTol = 1e-9

// TestProbInCircleMatchesRadialIntegral sweeps the dataset's
// distribution: 200 distances × 32 angles per radius, radii 1 to 300 m.
// Both the kernel and the reference depend on q only through its
// distance from the centre, so the (slow) reference is taken once per
// distance and every angle is held to it.
func TestProbInCircleMatchesRadialIntegral(t *testing.T) {
	g := ConstrainedGaussian{Center: Point{X: 300, Y: 700}, Sigma: 20, Bound: 100}
	worst := 0.0
	for _, r := range []float64{1, 5, 10, 25, 50, 75, 100, 150, 200, 300} {
		for i := 0; i < 200; i++ {
			d := (r + g.Bound) * float64(i) / 200
			want := radialProbInCircle(g, Point{X: g.Center.X + d, Y: g.Center.Y}, r)
			for k := 0; k < 32; k++ {
				a := 2 * math.Pi * float64(k) / 32
				q := Point{X: g.Center.X + d*math.Cos(a), Y: g.Center.Y + d*math.Sin(a)}
				got := g.ProbInCircle(q, r)
				e := math.Abs(got - want)
				if e > sweepTol {
					t.Fatalf("r=%v d=%v angle=%v: ProbInCircle %v, reference %v (error %g)", r, d, a, got, want, e)
				}
				worst = math.Max(worst, e)
			}
		}
	}
	t.Logf("worst error on the dataset sweep: %.2g (bound %g)", worst, sweepTol)
	// The reference itself: centred queries have a closed form.
	for _, r := range []float64{20, 60, 99} {
		if got, want := radialProbInCircle(g, g.Center, r), g.CDFRadius(r); !almostEq(got, want, 1e-12) {
			t.Errorf("radial reference at r=%v: %v, closed form %v", r, got, want)
		}
	}
}

// randomCircleCase draws σ, Bound, the radius and the query's offset at
// random, narrow Gaussians over wide discs included.
func randomCircleCase(rng *rand.Rand) (ConstrainedGaussian, Point, float64) {
	g := ConstrainedGaussian{
		Center: Point{X: 2000 * (rng.Float64() - 0.5), Y: 2000 * (rng.Float64() - 0.5)},
		Sigma:  1 + 49*rng.Float64(),
		Bound:  1 + 149*rng.Float64(),
	}
	r := 300 * (1 - rng.Float64()) // (0, 300]
	d := 1.05 * (r + g.Bound) * rng.Float64()
	a := 2 * math.Pi * rng.Float64()
	return g, Point{X: g.Center.X + d*math.Cos(a), Y: g.Center.Y + d*math.Sin(a)}, r
}

// randomCircleCases is how many cases the random sweeps draw.
func randomCircleCases() int {
	if testing.Short() {
		return 300
	}
	return 3000
}

// TestProbInCircleRandomSweep holds the kernel to the reference on
// randomCircleCase's draws.
func TestProbInCircleRandomSweep(t *testing.T) {
	n := randomCircleCases()
	rng := rand.New(rand.NewSource(32))
	worst := 0.0
	for i := 0; i < n; i++ {
		g, q, r := randomCircleCase(rng)
		got, want := g.ProbInCircle(q, r), radialProbInCircle(g, q, r)
		e := math.Abs(got - want)
		if e > CircleTolerance {
			t.Fatalf("g=%+v q=%+v r=%v: ProbInCircle %v, reference %v (error %g)", g, q, r, got, want, e)
		}
		worst = math.Max(worst, e)
	}
	t.Logf("worst error over %d random cases: %.2g (bound %g)", n, worst, CircleTolerance)
}

// circleEdgeCase is one named geometry of TestProbInCircleEdges.
type circleEdgeCase struct {
	name string
	g    ConstrainedGaussian
	q    Point
	r    float64
}

// circleEdgeCases are the geometries where the kernel's substitutions
// meet their limits: tangencies, centres on the query's edge, radii
// far from σ and Gaussians far narrower than the band of circles.
func circleEdgeCases() []circleEdgeCase {
	g := ConstrainedGaussian{Center: Point{X: 120, Y: -40}, Sigma: 20, Bound: 100}
	at := func(d float64) Point { return Point{X: g.Center.X + d*0.6, Y: g.Center.Y + d*0.8} }
	eps := 1e-9
	return []circleEdgeCase{
		{"query centre on object centre", g, g.Center, 60},
		{"tangent outside, just touching", g, at(150 - eps), 50},
		{"tangent inside, just short of contained", g, at(50 + eps), 150},
		{"query disk inside truncation disk", g, at(30), 25},
		{"truncation disk almost inside query disk", g, at(10), 109.5},
		{"radius far below sigma", g, at(15), 0.5},
		{"bound below sigma", ConstrainedGaussian{Center: g.Center, Sigma: 50, Bound: 20}, at(25), 30},
		{"centre on the circle's edge, axis-aligned", g, Point{X: g.Center.X + 100, Y: g.Center.Y}, 100},
		{"centre on the circle's edge, diagonal", g, at(100), 100},
		{"circle through the centre, far larger than the bound", g, at(5000), 5000},
		{"narrow Gaussian under a wide band, centre on the edge", ConstrainedGaussian{Center: g.Center, Sigma: 1.8, Bound: 130}, at(100), 100},
		{"narrow Gaussian under a wide band, centre off the edge", ConstrainedGaussian{Center: g.Center, Sigma: 1.8, Bound: 130}, at(100), 97},
		{"narrow Gaussian under a wide band, centre just outside", ConstrainedGaussian{Center: g.Center, Sigma: 1.8, Bound: 130}, at(100), 99.9},
		{"wide circle, centre just outside", g, at(5000.5), 5000},
	}
}

func TestProbInCircleEdges(t *testing.T) {
	g := ConstrainedGaussian{Center: Point{X: 120, Y: -40}, Sigma: 20, Bound: 100}
	at := func(d float64) Point { return Point{X: g.Center.X + d*0.6, Y: g.Center.Y + d*0.8} }
	for _, c := range circleEdgeCases() {
		got, want := c.g.ProbInCircle(c.q, c.r), radialProbInCircle(c.g, c.q, c.r)
		if math.Abs(got-want) > CircleTolerance {
			t.Errorf("%s: got %v, reference %v", c.name, got, want)
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

// checkAtLeast fails unless ProbInCircleAtLeast keeps ProbInCircle's
// answer p for the floor p itself (the half-plane bound lies at most
// CircleTolerance below p), returns it bit for bit, and refuses nothing
// while the centre lies inside the disk, whatever the floor. It reports
// whether an infinite floor was refused.
func checkAtLeast(t *testing.T, g ConstrainedGaussian, q Point, r float64) (refused bool) {
	t.Helper()
	p := g.ProbInCircle(q, r)
	if got, ok := g.ProbInCircleAtLeast(q, r, p); !ok || got != p {
		t.Fatalf("g=%+v q=%+v r=%v: ProbInCircleAtLeast(floor %v) = %v, %v; ProbInCircle %v", g, q, r, p, got, ok, p)
	}
	_, ok := g.ProbInCircleAtLeast(q, r, math.Inf(1))
	if !ok && g.Center.Dist(q) <= r {
		t.Fatalf("g=%+v q=%+v r=%v: centre inside the disk, but an infinite floor was refused", g, q, r)
	}
	return !ok
}

// TestProbInCircleAtLeastKeepsTheMargin holds the half-plane bound above
// the kernel, to within CircleTolerance, wherever the kernel is held to
// its reference: the random sweep and the edge cases.
func TestProbInCircleAtLeastKeepsTheMargin(t *testing.T) {
	refused, n := 0, randomCircleCases()
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < n; i++ {
		g, q, r := randomCircleCase(rng)
		if checkAtLeast(t, g, q, r) {
			refused++
		}
	}
	for _, c := range circleEdgeCases() {
		if checkAtLeast(t, c.g, c.q, c.r) {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("no case had its centre outside the disk; the bound went untested")
	}
}

// TestProbInCircleAtLeastRefusesBelowTheBound pins the bound to the
// half-plane tail ½·erfc((d − R)/σ√2), σ clamped as the kernel clamps
// it, and the margin to CircleTolerance: a floor just above bound +
// CircleTolerance is refused, one just below is integrated.
func TestProbInCircleAtLeastRefusesBelowTheBound(t *testing.T) {
	for _, c := range []struct {
		name  string
		g     ConstrainedGaussian
		d, r  float64
		sigma float64 // σ after the clamp
	}{
		{"dataset, two sigmas out", ConstrainedGaussian{Sigma: 20, Bound: 100}, 190, 150, 20},
		{"bound below sigma", ConstrainedGaussian{Sigma: 50, Bound: 20}, 40, 30, 50},
		{"narrow Gaussian", ConstrainedGaussian{Sigma: 1.8, Bound: 130}, 100, 99, 1.8},
		{"flat density, far off", ConstrainedGaussian{Sigma: 1e300, Bound: 1}, 1e100, 1, 1e100},
	} {
		q := Point{X: c.d * 0.6, Y: c.d * 0.8}
		bound := math.Erfc((c.d-c.r)/(c.sigma*math.Sqrt2)) / 2
		if _, ok := c.g.ProbInCircleAtLeast(q, c.r, bound+CircleTolerance*(1-1e-6)); !ok {
			t.Errorf("%s: refused a floor within CircleTolerance of the bound %v", c.name, bound)
		}
		if _, ok := c.g.ProbInCircleAtLeast(q, c.r, bound+CircleTolerance*(1+1e-6)); ok {
			t.Errorf("%s: integrated a floor more than CircleTolerance above the bound %v", c.name, bound)
		}
	}
}

// TestProbInCircleRotationInvariant: the answer depends on where q is
// only through its distance from the centre, so turning the query
// about the object moves it by rounding alone.
func TestProbInCircleRotationInvariant(t *testing.T) {
	g := ConstrainedGaussian{Center: Point{X: 120, Y: -40}, Sigma: 20, Bound: 100}
	// The same "centre on the circle's edge" geometry, axis-aligned and
	// diagonal (the 48×48 grid this kernel replaced answered 0.4601 and
	// 0.4627).
	axis := g.ProbInCircle(Point{X: g.Center.X + 100, Y: g.Center.Y}, 100)
	diag := g.ProbInCircle(Point{X: g.Center.X + 60, Y: g.Center.Y + 80}, 100)
	if math.Abs(axis-diag) > 1e-12 {
		t.Errorf("centre on the edge: axis-aligned %v, diagonal %v", axis, diag)
	}
	for _, r := range []float64{0.5, 25, 100, 180} {
		for _, d := range []float64{0.1, 10, 50, 99, 100, 150, r} {
			lo, hi := math.Inf(1), math.Inf(-1)
			for k := 0; k < 64; k++ {
				a := 2 * math.Pi * float64(k) / 64
				p := g.ProbInCircle(Point{X: g.Center.X + d*math.Cos(a), Y: g.Center.Y + d*math.Sin(a)}, r)
				lo, hi = math.Min(lo, p), math.Max(hi, p)
			}
			if hi-lo > 1e-12 {
				t.Errorf("r=%v d=%v: %v to %v over 64 angles", r, d, lo, hi)
			}
		}
	}
}

// TestProbInCircleMonotoneInRadius: a larger disk about the same point
// holds at least as much mass.
func TestProbInCircleMonotoneInRadius(t *testing.T) {
	for _, g := range []ConstrainedGaussian{
		{Center: Point{X: 10, Y: 20}, Sigma: 20, Bound: 100},
		{Center: Point{X: 10, Y: 20}, Sigma: 2, Bound: 120},
		{Center: Point{X: 10, Y: 20}, Sigma: 60, Bound: 15},
	} {
		for _, d := range []float64{0, 3, 30, 80, 100, 140} {
			q := Point{X: g.Center.X + d*0.8, Y: g.Center.Y - d*0.6}
			prev := 0.0
			for r := 0.0; r <= 300; r += 0.25 {
				p := g.ProbInCircle(q, r)
				if p < prev-1e-12 {
					t.Fatalf("g=%+v d=%v: P(%v) = %v < P(%v) = %v", g, d, r, p, r-0.25, prev)
				}
				prev = p
			}
		}
	}
}

// TestAcosMatchesHalfAngle holds the kernel's arc cosine to the
// half-angle form 2·asin(√((1 − x)/2)), taken as π − 2·asin(√((1 + x)/2))
// below 0, where 1 + x, not 1 − x, is exact. Neither form cancels near
// ±1, where math.Acos's π/2 − asin(x) loses up to half its digits.
func TestAcosMatchesHalfAngle(t *testing.T) {
	ref := func(x float64) float64 {
		if x < 0 {
			return math.Pi - 2*math.Asin(math.Sqrt((1+x)/2))
		}
		return 2 * math.Asin(math.Sqrt((1-x)/2))
	}
	for x, want := range map[float64]float64{-1: math.Pi, 0: math.Pi / 2, 1: 0} {
		if got := acos(x); got != want {
			t.Errorf("acos(%v) = %v, want %v", x, got, want)
		}
	}
	const n = 1 << 20
	xs := make([]float64, 0, n+1+2*16)
	for i := 0; i <= n; i++ {
		xs = append(xs, -1+2*float64(i)/n)
	}
	for k := 1; k <= 16; k++ {
		e := math.Pow(10, -float64(k))
		xs = append(xs, 1-e, -1+e)
	}
	slices.Sort(xs)
	worst, at := 0.0, 0.0
	prev := math.Inf(1)
	for _, x := range xs {
		got := acos(x)
		if e := math.Abs(got - ref(x)); e > worst {
			worst, at = e, x
		}
		if got > prev {
			t.Fatalf("acos(%v) = %v rises above %v", x, got, prev)
		}
		prev = got
	}
	if worst > 2e-15 {
		t.Fatalf("acos is %v off the half-angle form at x = %v, want at most 2e-15", worst, at)
	}
	t.Logf("largest error %v, at x = %v", worst, at)
}

func TestProbInCircleDoesNotAllocate(t *testing.T) {
	g := ConstrainedGaussian{Center: Point{X: 10, Y: 20}, Sigma: 20, Bound: 100}
	q := Point{X: 90, Y: -15}
	if n := testing.AllocsPerRun(100, func() { sinkFloat = g.ProbInCircle(q, 100) }); n != 0 {
		t.Fatalf("ProbInCircle allocates %v times per call, want 0", n)
	}
}

// radialProbInCircle is the reference ProbInCircle is held to. In
// polar coordinates about the object centre the mass is
// ∫₀ᴮ (ρ/σ²)·e^{-ρ²/2σ²}·φ(ρ)/2π dρ over the truncation mass, φ(ρ)
// being the arc of the radius-ρ circle inside the query disk. Unlike
// the kernel it integrates all of [0, Bound] with no cut-off, by
// Simpson's rule with 2 000 intervals on each smooth piece of φ.
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

// FuzzProbInCircle: for any valid distribution and any finite radius
// the answer is a probability, the disjoint and containing cases are
// exact, and the half-plane bound keeps its margin (checkAtLeast).
func FuzzProbInCircle(f *testing.F) {
	f.Add(0.0, 0.0, 20.0, 100.0, 100.0, 0.0, 100.0)      // centre on the edge
	f.Add(120.0, -40.0, 20.0, 100.0, 180.0, 40.0, 100.0) // diagonal twin
	f.Add(0.0, 0.0, 1.8, 150.0, 60.0, 80.0, 130.0)       // narrow Gaussian
	f.Add(0.0, 0.0, 50.0, 20.0, 25.0, 0.0, 30.0)         // bound below sigma
	f.Add(0.0, 0.0, 10.0, 50.0, 1000.0, 0.0, 100.0)      // disjoint
	f.Add(0.0, 0.0, 10.0, 50.0, 0.0, 0.0, 200.0)         // contained
	f.Add(0.0, 0.0, 1e300, 1e-300, 1e-300, 0.0, 1e-300)  // flat density
	f.Add(1e300, 0.0, 5e-324, 1e300, 0.0, 0.0, 1e300)    // point mass on the edge
	f.Add(0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0)             // zero radius
	f.Fuzz(func(t *testing.T, cx, cy, sigma, bound, qx, qy, r float64) {
		g := ConstrainedGaussian{Center: Point{X: cx, Y: cy}, Sigma: sigma, Bound: bound}
		if g.Validate() != nil || !finite(qx) || !finite(qy) || !finite(r) || r < 0 {
			t.Skip()
		}
		q := Point{X: qx, Y: qy}
		p := g.ProbInCircle(q, r)
		if !(p >= 0 && p <= 1) {
			t.Fatalf("g=%+v q=%+v r=%v: %v is not a probability", g, q, r, p)
		}
		// A bound below the distance's rounding can make a pair of
		// disks both disjoint and containing; disjoint wins.
		switch d := g.Center.Dist(q); {
		case d >= r+bound:
			if p != 0 {
				t.Fatalf("g=%+v q=%+v r=%v: disjoint, but %v", g, q, r, p)
			}
		case d+bound <= r:
			if p != 1 {
				t.Fatalf("g=%+v q=%+v r=%v: contained, but %v", g, q, r, p)
			}
		}
		checkAtLeast(t, g, q, r)
	})
}

var sinkFloat float64

func BenchmarkAcos(b *testing.B) {
	for _, bc := range []struct {
		name string
		f    func(float64) float64
	}{{"fdlibm", acos}, {"math", math.Acos}} {
		b.Run(bc.name, func(b *testing.B) {
			s := 0.0
			for i := 0; i < b.N; i++ {
				s += bc.f(float64(i%2001)/1000 - 1)
			}
			sinkFloat = s
		})
	}
}

// BenchmarkHalfPlaneBound times ProbInCircleAtLeast on the dataset's
// distribution with the query disk's edge 15 m short of the centre: at
// floor 0.5 the bound (0.23) refuses it, at floor 0.2 the kernel runs.
func BenchmarkHalfPlaneBound(b *testing.B) {
	g := ConstrainedGaussian{Center: Point{X: 10, Y: 20}, Sigma: 20, Bound: 100}
	q := Point{X: g.Center.X + 115*0.6, Y: g.Center.Y + 115*0.8}
	for _, bc := range []struct {
		name  string
		floor float64
		ok    bool
	}{{"refused", 0.5, false}, {"integrated", 0.2, true}} {
		b.Run(bc.name, func(b *testing.B) {
			if _, ok := g.ProbInCircleAtLeast(q, 100, bc.floor); ok != bc.ok {
				b.Fatalf("floor %v: ok = %v, want %v", bc.floor, ok, bc.ok)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkFloat, _ = g.ProbInCircleAtLeast(q, 100, bc.floor)
			}
		})
	}
}

func BenchmarkProbInCircle(b *testing.B) {
	g := ConstrainedGaussian{Center: Point{X: 10, Y: 20}, Sigma: 20, Bound: 100}
	q := Point{X: 90, Y: -15}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFloat = g.ProbInCircle(q, 100)
	}
}
