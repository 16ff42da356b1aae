package cupi

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"upidb/internal/dataset"
	"upidb/internal/heapfile"
	"upidb/internal/prob"
	"upidb/internal/rtree"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
)

func newFS() *storage.FS { return storage.NewFS(sim.NewDisk(sim.DefaultParams())) }

func smallCartel(t testing.TB, n int) *dataset.Cartel {
	t.Helper()
	cfg := dataset.DefaultCartelConfig()
	cfg.Observations = n
	cfg.GridN = 8
	c, err := dataset.GenerateCartel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// bruteQuery is the oracle: exact integration on every observation.
func bruteQuery(obs []*tuple.Observation, q prob.Point, radius, threshold float64) map[uint64]float64 {
	out := make(map[uint64]float64)
	for _, o := range obs {
		if p := o.Loc.ProbInCircle(q, radius); p >= threshold {
			out[o.ID] = p
		}
	}
	return out
}

// obsIDAt translates an R-Tree leaf entry's Data, its row's heap
// position, to the ID of the observation stored there. It reads the
// record's leading ID straight from the page, so a failed insert's
// tombstoned row translates too.
func obsIDAt(t testing.TB, tab *Table, data uint64) uint64 {
	t.Helper()
	rid := entryRow(data)
	page, err := tab.heap.Pager().Read(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	off := binary.BigEndian.Uint16(page[4+int(rid.Slot)*4:]) // heap page header, then the slot's offset
	return binary.BigEndian.Uint64(page[off:])
}

// rowOf returns the heap position of observation id's live row.
func rowOf(t testing.TB, tab *Table, id uint64) heapfile.RowID {
	t.Helper()
	var rid heapfile.RowID
	found := false
	if err := tab.heap.Scan(func(r heapfile.RowID, rec []byte) bool {
		found = binary.BigEndian.Uint64(rec) == id
		rid = r
		return !found
	}); err != nil || !found {
		t.Fatalf("no live row for observation %d (err %v)", id, err)
	}
	return rid
}

// eachLayout runs fn as one subtest per heap layout.
func eachLayout(t *testing.T, fn func(t *testing.T, opts Options)) {
	for _, l := range []struct {
		name string
		opts Options
	}{{"clustered", Options{}}, {"unclustered", Options{Unclustered: true}}} {
		t.Run(l.name, func(t *testing.T) { fn(t, l.opts) })
	}
}

// busiestSegment returns the segment most observations list first.
func busiestSegment(obs []*tuple.Observation) string {
	counts := make(map[string]int)
	for _, o := range obs {
		counts[o.Segment.First().Value]++
	}
	seg, best := "", 0
	for s, n := range counts {
		if n > best || (n == best && s < seg) {
			seg, best = s, n
		}
	}
	return seg
}

func TestPCRAux(t *testing.T) {
	g := prob.ConstrainedGaussian{Center: prob.Point{X: 0, Y: 0}, Sigma: 20, Bound: 100}
	aux := pcrAux(g)
	for i := 1; i < len(aux); i++ {
		if aux[i] <= aux[i-1] {
			t.Fatalf("quantile radii not increasing: %v", aux)
		}
	}
	if aux[len(aux)-1] > g.Bound {
		t.Fatalf("quantile radius exceeds bound: %v", aux)
	}
}

func TestCheckPCRSoundness(t *testing.T) {
	g := prob.ConstrainedGaussian{Center: prob.Point{X: 0, Y: 0}, Sigma: 20, Bound: 100}
	aux := pcrAux(g)
	// Sweep query geometries; whenever PCR decides, the exact
	// integration must agree.
	for _, qx := range []float64{0, 30, 60, 90, 120, 160, 250} {
		for _, radius := range []float64{20, 60, 120, 200} {
			for _, th := range []float64{0.2, 0.5, 0.8} {
				q := prob.Point{X: qx, Y: 0}
				exact := g.ProbInCircle(q, radius)
				switch checkPCR(g.Center, aux, q, radius, th) {
				case pcrAccept:
					if exact < th-0.02 {
						t.Fatalf("accept unsound: q=%v r=%v th=%v exact=%v", qx, radius, th, exact)
					}
				case pcrReject:
					if exact >= th+0.02 {
						t.Fatalf("reject unsound: q=%v r=%v th=%v exact=%v", qx, radius, th, exact)
					}
				}
			}
		}
	}
}

func TestQueryCircleMatchesBrute(t *testing.T) {
	checkCircleMatchesBrute(t, Options{})
}

// TestUnclusteredQueryCircleMatchesBrute runs the same oracle over the
// U-Tree baseline's arrival-order heap.
func TestUnclusteredQueryCircleMatchesBrute(t *testing.T) {
	checkCircleMatchesBrute(t, Options{Unclustered: true})
}

func checkCircleMatchesBrute(t *testing.T, opts Options) {
	c := smallCartel(t, 1500)
	tab, err := BulkBuild(newFS(), "c", c.Observations, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []prob.Point{{X: 0, Y: 0}, {X: 300, Y: -200}, {X: -500, Y: 500}, {X: 400, Y: 300}} {
		for _, radius := range []float64{150, 400} {
			for _, th := range []float64{0.3, 0.6} {
				want := bruteQuery(c.Observations, q, radius, th)
				got, stats, err := tab.QueryCircle(context.Background(), q, radius, th)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("q=%+v r=%v th=%v: got %d want %d (stats %+v)", q, radius, th, len(got), len(want), stats)
				}
				for _, r := range got {
					if w, ok := want[r.Obs.ID]; !ok || math.Abs(w-r.Confidence) > 1e-9 {
						t.Fatalf("result %d mismatch", r.Obs.ID)
					}
				}
			}
		}
	}
}

func TestPCRPruningDoesWork(t *testing.T) {
	c := smallCartel(t, 2000)
	eachLayout(t, func(t *testing.T, opts Options) {
		tab, err := BulkBuild(newFS(), "c", c.Observations, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := tab.QueryCircle(context.Background(), prob.Point{X: 0, Y: 0}, 300, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Candidates == 0 {
			t.Fatal("no candidates")
		}
		decided := stats.PCRAccepted + stats.PCRRejected
		if decided*3 < stats.Candidates {
			t.Fatalf("PCR decided only %d of %d candidates", decided, stats.Candidates)
		}
		if stats.Integrations >= stats.Candidates {
			t.Fatal("integration count should be reduced by PCR")
		}
		if stats.Integrations+stats.Bounded != stats.Fetched {
			t.Fatalf("%d integrations and %d bound rejections for %d fetched candidates; every fetched candidate is one or the other", stats.Integrations, stats.Bounded, stats.Fetched)
		}
		if stats.Bounded == 0 {
			t.Fatalf("the half-plane bound rejected none of %d fetched candidates", stats.Fetched)
		}
	})
}

func TestQuerySegmentMatchesBrute(t *testing.T) {
	c := smallCartel(t, 1200)
	seg := busiestSegment(c.Observations)
	eachLayout(t, func(t *testing.T, opts Options) {
		tab, err := BulkBuild(newFS(), "c", c.Observations, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, qt := range []float64{0.1, 0.5, 0.8} {
			want := 0
			for _, o := range c.Observations {
				if o.Segment.P(seg) >= qt {
					want++
				}
			}
			got, _, err := tab.QuerySegment(context.Background(), seg, qt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != want {
				t.Fatalf("segment %s qt=%v: got %d want %d", seg, qt, len(got), want)
			}
			for i := 1; i < len(got); i++ {
				if got[i-1].Confidence < got[i].Confidence {
					t.Fatal("segment results not sorted by confidence desc")
				}
			}
		}
	})
}

// TestCUPIAgreesWithUTree: the continuous UPI and the U-Tree over an
// unclustered heap give the same answers in the same order.
func TestCUPIAgreesWithUTree(t *testing.T) {
	c := smallCartel(t, 1000)
	cu, err := BulkBuild(newFS(), "c", c.Observations, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ut, err := BulkBuild(newFS(), "u", c.Observations, Options{Unclustered: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := prob.Point{X: 100, Y: -100}
	a, _, err := cu.QueryCircle(ctx, q, 350, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ut.QueryCircle(ctx, q, 350, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("answer sizes: clustered %d vs unclustered %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Obs.ID != b[i].Obs.ID || a[i].Confidence != b[i].Confidence {
			t.Fatalf("result %d differs: %d vs %d", i, a[i].Obs.ID, b[i].Obs.ID)
		}
	}
}

// coldCost runs one query from cold caches and returns what it charged.
func coldCost(t *testing.T, disk *sim.Disk, tab *Table, run func(*Table) (int, error)) (sim.Stats, int) {
	t.Helper()
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	sp := sim.StartSpan(disk)
	n, err := run(tab)
	if err != nil {
		t.Fatal(err)
	}
	return sp.End(), n
}

// figureTables bulk-loads one Cartel dataset in both layouts, each on
// its own disk.
func figureTables(t *testing.T) (c *dataset.Cartel, cu, ut *Table, cuDisk, utDisk *sim.Disk) {
	t.Helper()
	cfg := dataset.DefaultCartelConfig()
	cfg.Observations = 20000
	cfg.GridN = 20
	c, err := dataset.GenerateCartel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cuDisk, utDisk = sim.NewDisk(sim.DefaultParams()), sim.NewDisk(sim.DefaultParams())
	if cu, err = BulkBuild(storage.NewFS(cuDisk), "c", c.Observations, Options{}); err != nil {
		t.Fatal(err)
	}
	if ut, err = BulkBuild(storage.NewFS(utDisk), "u", c.Observations, Options{Unclustered: true}); err != nil {
		t.Fatal(err)
	}
	return c, cu, ut, cuDisk, utDisk
}

// TestFig7Property: the continuous UPI must answer circle queries with
// far less modeled I/O time than the U-Tree over an unclustered heap
// (paper Figure 7: 50-60× on the real datasets).
func TestFig7Property(t *testing.T) {
	_, cu, ut, cuDisk, utDisk := figureTables(t)
	// The paper's Query 4 is selective relative to the whole metro
	// area (radius <= 1km over all of Boston); an off-center query
	// with modest radius reproduces that regime at this scale. A
	// saturating query would make both indexes degenerate to a full
	// scan and hide the difference (that regime is exercised by the
	// cutoff-index experiments instead).
	q := prob.Point{X: 1200, Y: 900}
	const radius, th = 250, 0.5
	circle := func(tab *Table) (int, error) {
		rs, _, err := tab.QueryCircle(context.Background(), q, radius, th)
		return len(rs), err
	}
	cuCost, nC := coldCost(t, cuDisk, cu, circle)
	utCost, nU := coldCost(t, utDisk, ut, circle)
	if nC != nU || nC < 10 {
		t.Fatalf("answers: %d vs %d", nC, nU)
	}
	if utCost.Elapsed < cuCost.Elapsed*5 {
		t.Fatalf("CUPI should be >=5x faster: clustered=%v unclustered=%v (seeks %d vs %d)",
			cuCost.Elapsed, utCost.Elapsed, cuCost.Seeks, utCost.Seeks)
	}
}

// TestFig8Property: the segment secondary index into the clustered
// CUPI heap must beat the same index into the unclustered heap.
func TestFig8Property(t *testing.T) {
	c, cu, ut, cuDisk, utDisk := figureTables(t)
	seg := busiestSegment(c.Observations)
	segment := func(tab *Table) (int, error) {
		rs, _, err := tab.QuerySegment(context.Background(), seg, 0.3)
		return len(rs), err
	}
	cuCost, nC := coldCost(t, cuDisk, cu, segment)
	utCost, nU := coldCost(t, utDisk, ut, segment)
	if nC != nU || nC < 20 {
		t.Fatalf("answers: %d vs %d", nC, nU)
	}
	if utCost.Elapsed < cuCost.Elapsed*2 {
		t.Fatalf("clustered secondary should be >=2x faster: clustered=%v unclustered=%v (seeks %d vs %d)",
			cuCost.Elapsed, utCost.Elapsed, cuCost.Seeks, utCost.Seeks)
	}
}

func TestInsertAfterBulkLoad(t *testing.T) {
	checkInsertAfterBulkLoad(t, Options{})
}

// TestUnclusteredInsertAfterBulkLoad inserts into the U-Tree baseline,
// whose heap appends in arrival order.
func TestUnclusteredInsertAfterBulkLoad(t *testing.T) {
	checkInsertAfterBulkLoad(t, Options{Unclustered: true})
}

func checkInsertAfterBulkLoad(t *testing.T, opts Options) {
	c := smallCartel(t, 500)
	tab, err := BulkBuild(newFS(), "c", c.Observations[:400], opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range c.Observations[400:] {
		if err := tab.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate insert must fail.
	if err := tab.Insert(c.Observations[0]); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	for _, radius := range []float64{400, 500} {
		want := bruteQuery(c.Observations, prob.Point{}, radius, 0.4)
		got, _, err := tab.QueryCircle(context.Background(), prob.Point{}, radius, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("r=%v: got %d want %d", radius, len(got), len(want))
		}
	}
}

func TestSizeAndCaches(t *testing.T) {
	c := smallCartel(t, 400)
	eachLayout(t, func(t *testing.T, opts Options) {
		tab, err := BulkBuild(newFS(), "c", c.Observations, opts)
		if err != nil {
			t.Fatal(err)
		}
		if tab.SizeBytes() == 0 {
			t.Fatal("SizeBytes = 0")
		}
		if got, want := tab.Heap().Pager().PageSize(), opts.heapPageSize(); got != want {
			t.Fatalf("heap page size %d, want %d", got, want)
		}
		if err := tab.DropCaches(); err != nil {
			t.Fatal(err)
		}
		// Query still works from cold caches.
		if _, _, err := tab.QueryCircle(context.Background(), prob.Point{}, 300, 0.5); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRejectsNonFiniteLocation: Insert and BulkBuild refuse an
// observation whose centre, sigma or bound is not a finite number, and
// the table answers as before.
func TestRejectsNonFiniteLocation(t *testing.T) {
	c := smallCartel(t, 300)
	eachLayout(t, func(t *testing.T, opts Options) {
		fs := newFS()
		tab, err := BulkBuild(fs, "c", c.Observations, opts)
		if err != nil {
			t.Fatal(err)
		}
		q := prob.Point{X: 0, Y: 0}
		want := bruteQuery(c.Observations, q, 500, 0.4)
		n := 0
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for field, set := range map[string]func(*tuple.Observation){
				"centre x": func(o *tuple.Observation) { o.Loc.Center.X = v },
				"centre y": func(o *tuple.Observation) { o.Loc.Center.Y = v },
				"sigma":    func(o *tuple.Observation) { o.Loc.Sigma = v },
				"bound":    func(o *tuple.Observation) { o.Loc.Bound = v },
			} {
				bad := *c.Observations[0]
				bad.ID = uint64(len(c.Observations) + 1000 + n)
				set(&bad)
				if err := tab.Insert(&bad); err == nil {
					t.Errorf("Insert with %s = %v accepted", field, v)
				}
				n++
				obs := append(append([]*tuple.Observation(nil), c.Observations[:10]...), &bad)
				if _, err := BulkBuild(fs, fmt.Sprintf("bad%d", n), obs, opts); err == nil {
					t.Errorf("BulkBuild with %s = %v accepted", field, v)
				}
			}
		}
		got, _, err := tab.QueryCircle(context.Background(), q, 500, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("got %d results, want %d", len(got), len(want))
		}
		for _, r := range got {
			if w, ok := want[r.Obs.ID]; !ok || math.Abs(w-r.Confidence) > 1e-9 {
				t.Fatalf("result %d with confidence %v, want %v (present %v)", r.Obs.ID, r.Confidence, w, ok)
			}
		}
	})
}

// TestHeapClusteredByLeafOrder checks the Section 5 invariant directly:
// scanning the clustered heap visits observations in R-Tree DFS leaf
// order, while the unclustered heap keeps their arrival order.
func TestHeapClusteredByLeafOrder(t *testing.T) {
	c := smallCartel(t, 800)
	var arrival []uint64
	for _, o := range c.Observations {
		arrival = append(arrival, o.ID)
	}
	eachLayout(t, func(t *testing.T, opts Options) {
		tab, err := BulkBuild(newFS(), "c", c.Observations, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := arrival
		if !opts.Unclustered {
			want = nil
			err = tab.RTree().Leaves(func(_ storage.PageID, es []rtree.Entry) bool {
				for _, e := range es {
					want = append(want, obsIDAt(t, tab, e.Data))
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		var heapOrder []uint64
		err = tab.Heap().Scan(func(_ heapfile.RowID, rec []byte) bool {
			o, derr := tuple.DecodeObservation(rec)
			if derr != nil {
				t.Fatal(derr)
			}
			heapOrder = append(heapOrder, o.ID)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(heapOrder) || len(want) != 800 {
			t.Fatalf("order lengths: want=%d heap=%d", len(want), len(heapOrder))
		}
		for i := range want {
			if want[i] != heapOrder[i] {
				t.Fatalf("position %d: want=%d heap=%d", i, want[i], heapOrder[i])
			}
		}
	})
}

// nodeReads counts the R-Tree node pages a view of the table misses.
type nodeReads int

func (n *nodeReads) Read(file string, _, _ int64) {
	if strings.HasSuffix(file, ".rtree") {
		*n++
	}
}

func (*nodeReads) Write(string, int64, int64) {}

// TestCircleCursorEarlyCloseReadsLess: a CircleCursor reads R-Tree
// node pages only as its pulls demand them, so one closed after its
// first row has read fewer than a full drain, and that row is the
// drain's first.
func TestCircleCursorEarlyCloseReadsLess(t *testing.T) {
	c := smallCartel(t, 3000)
	tab, err := BulkBuild(newFS(), "c", c.Observations, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := prob.Point{X: 0, Y: 0}
	const radius, th = 600, 0.3
	run := func(pulls int) ([]Result, nodeReads) {
		t.Helper()
		if err := tab.DropCaches(); err != nil {
			t.Fatal(err)
		}
		var reads nodeReads
		cur := tab.View(&reads).CircleCursor(ctx, q, radius, th)
		defer cur.Close()
		var out []Result
		for pulls < 0 || len(out) < pulls {
			r, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			out = append(out, r)
		}
		cur.Close()
		return out, reads
	}
	all, full := run(-1)
	first, early := run(1)
	if len(all) < 10 || len(first) != 1 {
		t.Fatalf("drain %d rows, early close %d: the check is vacuous", len(all), len(first))
	}
	if first[0].Obs.ID != all[0].Obs.ID || first[0].Confidence != all[0].Confidence {
		t.Fatalf("first row %d, drain's first %d", first[0].Obs.ID, all[0].Obs.ID)
	}
	if early >= full {
		t.Fatalf("closed after one row: %d node pages read, full drain %d", early, full)
	}
}
