package main

import (
	"cmp"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"

	"upidb"
	"upidb/internal/dataset"
)

// row is one result as every transport reports it.
type row struct {
	id   uint64
	conf float64
}

// byConfThenID is the engine's documented result order.
func byConfThenID(a, b row) int {
	if c := cmp.Compare(b.conf, a.conf); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// weighted draws values in proportion to how many tuples carry them, so
// queries hit what the data holds: uniform draws over the catalog
// return mostly empty results and make every percentile meaningless.
type weighted struct {
	values []string
	cum    []float64
}

func newWeighted(values []string, weight func(string) int) weighted {
	w := weighted{values: values, cum: make([]float64, len(values))}
	sum := 0.0
	for i, v := range values {
		sum += float64(weight(v))
		w.cum[i] = sum
	}
	return w
}

func (w weighted) draw(rng *rand.Rand) string {
	u := rng.Float64() * w.cum[len(w.cum)-1]
	i := sort.SearchFloat64s(w.cum, u)
	return w.values[min(i, len(w.values)-1)]
}

// each calls fn with every value and its share of the draws.
func (w weighted) each(fn func(value string, share float64)) {
	prev, total := 0.0, w.cum[len(w.cum)-1]
	for i, v := range w.values {
		fn(v, (w.cum[i]-prev)/total)
		prev = w.cum[i]
	}
}

// mix is a workload's traffic: op templates with their shares. Write
// templates carry no tuple; the instance fills them in when drawn.
type mix struct {
	ops    []op
	shares []float64
}

func (m *mix) add(share float64, o op) {
	m.ops = append(m.ops, o)
	m.shares = append(m.shares, share)
}

// deck deals n ops from the mix by systematic sampling — every class
// of template appears within one of its expected count, the same count
// for every seed and every deck — and shuffles them with rng. Clients
// run whole decks, so every cycle carries the same mix and only the
// order varies: with independent draws the share of heavy queries
// wanders by a percent from run to run, which moves a median that sits
// between two classes of query by more than any code change would. The
// i-th deck starts its sampling at its own offset (golden-ratio spaced),
// so that among templates with a share of less than one op per deck,
// such as the values of one class, each deck picks others.
func (m *mix) deck(rng *rand.Rand, n, i int) []op {
	total := 0.0
	for _, s := range m.shares {
		total += s
	}
	deck := make([]op, 0, n)
	_, next := math.Modf(float64(i) * math.Phi)
	acc := 0.0
	for j, o := range m.ops {
		acc += m.shares[j] / total * float64(n)
		for ; next < acc && len(deck) < n; next++ {
			deck = append(deck, o)
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// discreteData is one seed's DBLP-style author table plus the
// brute-force view of it the checkers compare against.
type discreteData struct {
	tuples []*upidb.Tuple
	// byInst and byCountry hold, per value, every tuple carrying it
	// with its confidence, in result order.
	byInst    map[string][]row
	byCountry map[string][]row
	allInst   weighted // every institution, by occurrences
	topInst   weighted // the 64 most popular institutions
	tailInst  []string // all but the most popular fifth, most popular first
	countries weighted
}

// invert builds value -> rows in result order by one linear scan and a
// sort: the oracle shares no code with the engine's indexes.
func invert(tuples []*upidb.Tuple, attr string) map[string][]row {
	m := make(map[string][]row)
	for _, t := range tuples {
		d, _ := t.Uncertain(attr)
		for _, a := range d {
			if c := t.Confidence(attr, a.Value); c > 0 {
				m[a.Value] = append(m[a.Value], row{t.ID, c})
			}
		}
	}
	for _, rs := range m {
		slices.SortFunc(rs, byConfThenID)
	}
	return m
}

func genDiscrete(seed int64, n int) (*discreteData, error) {
	cfg := dataset.DefaultDBLPConfig()
	cfg.Authors, cfg.Publications, cfg.Seed = n, 0, seed
	gen, err := dataset.GenerateDBLP(cfg)
	if err != nil {
		return nil, err
	}
	d := &discreteData{tuples: gen.Authors}
	d.byInst = invert(d.tuples, dataset.AttrInstitution)
	d.byCountry = invert(d.tuples, dataset.AttrCountry)
	occInst := func(v string) int { return len(d.byInst[v]) }
	insts := slices.Sorted(maps.Keys(d.byInst))
	d.allInst = newWeighted(insts, occInst)
	top := slices.Clone(insts)
	slices.SortStableFunc(top, func(a, b string) int { return cmp.Compare(occInst(b), occInst(a)) })
	d.topInst = newWeighted(top[:min(64, len(top))], occInst)
	d.tailInst = top[len(top)/5:]
	d.countries = newWeighted(slices.Sorted(maps.Keys(d.byCountry)), func(v string) int { return len(d.byCountry[v]) })
	return d, nil
}

// ptqPrefix is the oracle's PTQ answer: the rows of rs with confidence
// at least qt (rs is in result order, so they form a prefix).
func ptqPrefix(rs []row, qt float64) []row {
	n := sort.Search(len(rs), func(i int) bool { return rs[i].conf < qt })
	return rs[:n]
}

// freshTuple is the j-th tuple of the insert stream: the distributions
// of an existing author under a new ID past the loaded range.
func (d *discreteData) freshTuple(j int) *upidb.Tuple {
	t := *d.tuples[j%len(d.tuples)]
	t.ID = uint64(len(d.tuples) + 1 + j)
	return &t
}

// spatialData is one seed's Cartel-style observations with the pools
// the spatial workload draws its queries from.
type spatialData struct {
	obs   []*upidb.Observation
	bySeg map[string][]row
	// circles is the query pool: centres are observation centres, so
	// busy roads are queried more, like the data. A pool (not a fresh
	// centre per op) lets the oracle integrate each circle once.
	circles  []circleQuery
	segments []string
	grid     map[[2]int][]int32 // cell -> observation indexes
}

type circleQuery struct {
	center upidb.Point
	radius float64
}

const (
	circleThreshold = 0.5
	segmentQT       = 0.3
	gridCell        = 200.0
)

func cellOf(p upidb.Point) [2]int {
	return [2]int{int(math.Floor(p.X / gridCell)), int(math.Floor(p.Y / gridCell))}
}

func genSpatial(seed int64, n, poolSize int) (*spatialData, error) {
	cfg := dataset.DefaultCartelConfig()
	cfg.Observations, cfg.Seed = n, seed
	gen, err := dataset.GenerateCartel(cfg)
	if err != nil {
		return nil, err
	}
	d := &spatialData{obs: gen.Observations, bySeg: make(map[string][]row), grid: make(map[[2]int][]int32)}
	for i, o := range d.obs {
		for _, a := range o.Segment {
			d.bySeg[a.Value] = append(d.bySeg[a.Value], row{o.ID, a.Prob})
		}
		c := cellOf(o.Loc.Center)
		d.grid[c] = append(d.grid[c], int32(i))
	}
	for _, rs := range d.bySeg {
		slices.SortFunc(rs, byConfThenID)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < poolSize; i++ {
		o := d.obs[rng.Intn(len(d.obs))]
		d.circles = append(d.circles, circleQuery{o.Loc.Center, []float64{50, 100}[i%2]})
		s := d.obs[rng.Intn(len(d.obs))].Segment
		d.segments = append(d.segments, s[rng.Intn(len(s))].Value)
	}
	return d, nil
}

// freshObs is the j-th observation of the insert stream.
func (d *spatialData) freshObs(j int) *upidb.Observation {
	o := *d.obs[j%len(d.obs)]
	o.ID = uint64(len(d.obs) + 1 + j)
	return &o
}

// near calls fn for every loaded observation whose centre lies within
// reach of p.
func (d *spatialData) near(p upidb.Point, reach float64, fn func(o *upidb.Observation)) {
	lo, hi := cellOf(upidb.Point{X: p.X - reach, Y: p.Y - reach}), cellOf(upidb.Point{X: p.X + reach, Y: p.Y + reach})
	for x := lo[0]; x <= hi[0]; x++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for _, i := range d.grid[[2]int{x, y}] {
				if o := d.obs[i]; o.Loc.Center.Dist(p) <= reach {
					fn(o)
				}
			}
		}
	}
}
