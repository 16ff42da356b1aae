package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"upidb"
	"upidb/internal/dataset"
	"upidb/internal/storage"
	"upidb/internal/tuple"
)

const (
	fullAuthors = 70_000
	// coldAuthors sizes embed-cold-paths: its cutoff-index chases and
	// full scans cost tens to hundreds of milliseconds each at 70k
	// tuples, which leaves a timed phase far short of the 2 000 reads a
	// p99 needs. The heap file of 30k tuples is still 6x the buffer pool.
	coldAuthors      = 30_000
	fullObservations = 150_000
	circlePool       = 512
	// datasetSeed fixes the tables and the spatial query pools; -seed
	// drives everything drawn from them: which ops, which values, which
	// thresholds, which tuples are deleted. A generated table's shape
	// (how many tuples share the popular values) moves throughput by
	// +-25 % from one dataset seed to the next, far more than any bound
	// could absorb, so the data is a fixture and the traffic varies.
	datasetSeed = 1
	// serve-fractured-mixed: two shards, a RAM buffer small enough that
	// each shard flushes well over minFlushes times and is merged well
	// over minMerges times inside one timed phase (see
	// checkBackgroundWork).
	mixedShards       = 2
	mixedBuffer       = 64
	mixedMaxFractures = 4
	minFlushes        = 12
	minMerges         = 3
)

// instance is one built workload: a database under load, the ops to
// send it, and the model that checks what comes back.
type instance struct {
	dir     string
	db      *upidb.DB
	backend *benchBackend
	tab     *upidb.Table        // discrete workloads
	spatial *upidb.SpatialTable // embed-spatial
	served  *served             // serve-* workloads
	chk     checker
	// clients is how many closed loops drive the untraced run, chosen per
	// workload by which count repeats better on this two-core host
	// (README.md, "Client counts"). serve-fractured-mixed has one: its
	// request already keeps two goroutines busy beside the merger, and
	// with two clients the tail spread twice as wide from run to run.
	// embed-cold-paths has one: two completed less than one (167 against
	// 192 ops/s) and the median op sat on the edge between running beside
	// the other client's full scan and not. serve-hot-read keeps two: one
	// client leaves a core idle between hand-offs, and waking an idle
	// virtual CPU costs more, and less evenly, than the 0.4 ms the median
	// request takes. embed-spatial keeps two: its inserts are there to
	// wait on the lock another caller's stream holds.
	clients int
	// traffic is the op mix; deckSize is how many ops a client's deck
	// holds: about a fifth of what a client completes in one timed phase
	// here, so a phase is some five whole cycles and ends within a tenth
	// of its nominal length. minCycles is how many whole decks the phase
	// runs at least, however slow the host: the floor under the sample
	// counts (2 000 timed reads; on serve-fractured-mixed also the
	// flushes and merges of checkBackgroundWork).
	traffic   mix
	deckSize  int
	minCycles int
	// fill completes a write template drawn by client c.
	fill func(o *op, c int)
	// probes are the ladder's queries, drawn from the workload's own
	// distribution of values.
	probes []op
	// The data and the table layout, for the checker and the ladder.
	discrete *discreteData
	space    *spatialData
	shards   int
	prefrac  int // flushed fractures beside the main partition
}

func (in *instance) transport(rec *recorder) transport {
	switch {
	case in.served != nil:
		return in.served.newClient(rec)
	case in.spatial != nil:
		return spatialTransport{in.spatial}
	}
	return embedTransport{in.tab}
}

func (in *instance) close() error {
	var first error
	if in.served != nil {
		first = in.served.stop()
	}
	if err := in.db.Close(); err != nil && first == nil {
		first = err
	}
	if err := os.RemoveAll(in.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// openDB creates a database on real files under a fresh directory,
// through the timing/freezing backend. WithBackend turns the disk
// default off, so durability is switched back on explicitly: every
// acknowledged write is fsynced, as upidb.Create(dir) would do.
func openDB(root string, rec *recorder, opts ...upidb.Option) (*upidb.DB, *benchBackend, string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, nil, "", err
	}
	dir, err := os.MkdirTemp(root, "data-")
	if err != nil {
		return nil, nil, "", err
	}
	disk, err := storage.NewDiskBackend(dir)
	if err != nil {
		return nil, nil, "", err
	}
	bb := &benchBackend{Backend: disk, rec: rec}
	opts = append([]upidb.Option{upidb.WithBackend(bb), upidb.WithDurability(true), upidb.WithCutoff(0.1)}, opts...)
	db, err := upidb.Create("", opts...)
	if err != nil {
		return nil, nil, "", err
	}
	return db, bb, dir, nil
}

func scaled(full int, scale float64) int { return max(int(float64(full)*scale), 500) }

func deckOf(full int, scale float64) int { return max(int(float64(full)*scale), 32) }

// loader is what a table and the ladder's lower storeys share, so each
// is fractured the same way.
type loader interface {
	Insert(*tuple.Tuple) error
	Flush() error
}

// fractureSplit divides tuples into the bulk-loaded main part and
// `fractures` equal later parts of 2.5 % each.
func fractureSplit(tuples []*upidb.Tuple, fractures int) (main []*upidb.Tuple, parts [][]*upidb.Tuple) {
	per := len(tuples) / 40
	cut := len(tuples) - fractures*per
	main = tuples[:cut]
	for f := 0; f < fractures; f++ {
		parts = append(parts, tuples[cut+f*per:cut+(f+1)*per])
	}
	return main, parts
}

func flushParts(l loader, parts [][]*upidb.Tuple) error {
	for _, p := range parts {
		for _, t := range p {
			if err := l.Insert(t); err != nil {
				return err
			}
		}
		if err := l.Flush(); err != nil {
			return err
		}
	}
	return nil
}

var secAttrs = []string{dataset.AttrCountry}

// buildDiscrete loads an author table and, for serve-* workloads, puts
// the server in front of it.
func buildDiscrete(cfg runConfig, rec *recorder, authors, shards, prefrac int, http bool, opts ...upidb.Option) (*instance, error) {
	d, err := genDiscrete(datasetSeed, scaled(authors, cfg.scale))
	if err != nil {
		return nil, err
	}
	db, bb, dir, err := openDB(cfg.dir, rec)
	if err != nil {
		return nil, err
	}
	in := &instance{dir: dir, db: db, backend: bb, discrete: d, shards: shards, prefrac: prefrac}
	main, parts := fractureSplit(d.tuples, prefrac)
	opts = append([]upidb.Option{upidb.WithShards(shards)}, opts...)
	if in.tab, err = db.BulkLoadTable(tableName, dataset.AttrInstitution, secAttrs, main, opts...); err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	if err := flushParts(in.tab, parts); err != nil {
		return nil, fmt.Errorf("pre-fracture: %w", err)
	}
	in.chk = newDiscreteChecker(d)
	if http {
		if in.served, err = serve(db, rec); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// probeOps draws the ladder's n probe queries with gen; the same seed
// gives the same probes in the traced phase and in the ladder.
func probeOps(seed int64, n int, gen func(rng *rand.Rand) op) []op {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = gen(rng)
		ops[i].probe = i + 1
	}
	return ops
}

const numProbes = 32

func setupHotRead(cfg runConfig, rec *recorder) (*instance, error) {
	in, err := buildDiscrete(cfg, rec, fullAuthors, 1, 0, true)
	if err != nil {
		return nil, err
	}
	d := in.discrete
	// Templates are added class by class: a deck then holds each class
	// within one op of its share, whatever offset it is dealt at.
	for _, qt := range []float64{0.1, 0.3, 0.5} {
		d.topInst.each(func(v string, _ float64) { in.traffic.add(0.70/3, op{kind: opPTQ, value: v, qt: qt}) })
	}
	d.topInst.each(func(v string, _ float64) { in.traffic.add(0.30, op{kind: opTopK, value: v, k: 10}) })
	in.clients, in.deckSize, in.minCycles = 2, deckOf(1536, cfg.scale), 2
	in.probes = probeOps(cfg.seed, numProbes, func(rng *rand.Rand) op {
		return op{kind: opPTQ, value: d.topInst.draw(rng), qt: 0.1}
	})
	return in, nil
}

func setupMixed(cfg runConfig, rec *recorder) (*instance, error) {
	in, err := buildDiscrete(cfg, rec, fullAuthors, mixedShards, 0, true,
		upidb.WithBufferTuples(mixedBuffer),
		upidb.WithAutoMerge(upidb.AutoMergeOptions{MaxFractures: mixedMaxFractures}))
	if err != nil {
		return nil, err
	}
	d := in.discrete
	in.clients = 1
	// The one client inserts fresh ids and deletes loaded ones in a
	// seed-derived order.
	inserted, deleted := 0, 0
	victims := rand.New(rand.NewSource(cfg.seed ^ 0xde1e7e)).Perm(len(d.tuples)) // tuple i has id i+1
	in.traffic.add(0.40, op{kind: opInsert})
	in.traffic.add(0.05, op{kind: opDelete})
	for _, qt := range []float64{0.1, 0.3} {
		d.allInst.each(func(v string, share float64) { in.traffic.add(0.40*share/2, op{kind: opPTQ, value: v, qt: qt}) })
	}
	d.allInst.each(func(v string, share float64) { in.traffic.add(0.15*share, op{kind: opTopK, value: v, k: 10}) })
	// A deck's 512 inserts fill each shard's buffer four times, which
	// brings it one merge: five decks clear the floors of
	// checkBackgroundWork on any host, in the traced run too, where every
	// eighth op is a probe query instead.
	in.deckSize, in.minCycles = deckOf(1280, cfg.scale), 5
	in.fill = func(o *op, _ int) {
		if o.kind == opInsert {
			o.tuple = d.freshTuple(inserted)
			inserted++
			return
		}
		// Deleting a tuple twice is harmless; the victims wrap around
		// only on a run many times longer than any the contract allows.
		o.id = uint64(victims[deleted%len(victims)] + 1)
		deleted++
	}
	in.probes = probeOps(cfg.seed, numProbes, func(rng *rand.Rand) op {
		return op{kind: opPTQ, value: d.allInst.draw(rng), qt: 0.1}
	})
	return in, nil
}

func setupColdPaths(cfg runConfig, rec *recorder) (*instance, error) {
	in, err := buildDiscrete(cfg, rec, coldAuthors, 1, 2, false)
	if err != nil {
		return nil, err
	}
	d := in.discrete
	// Low-threshold PTQs draw their value evenly over all but the most
	// popular fifth of the catalog. At this threshold every institution
	// has rows; on a popular one the planner gives up the cutoff-index
	// chase, which this class is here to exercise, for a full scan.
	// Drawn over the whole catalog, full scans were 13 % of the ops and
	// three quarters of the time, which left a phase with half of the
	// 2 000 reads a p99 needs; the secondary class keeps the route choice
	// and the full scans in the mix, at 4 % of the ops.
	for _, v := range d.tailInst {
		in.traffic.add(0.56/float64(len(d.tailInst)), op{kind: opLowQT, value: v, qt: 0.02})
	}
	d.allInst.each(func(v string, share float64) { in.traffic.add(0.40*share, op{kind: opCollect, value: v, qt: 0.1}) })
	for _, qt := range []float64{0.6, 0.9} {
		d.countries.each(func(v string, share float64) { in.traffic.add(0.04*share/2, op{kind: opSecondary, value: v, qt: qt}) })
	}
	in.clients, in.deckSize, in.minCycles = 1, deckOf(640, cfg.scale), 4
	in.probes = probeOps(cfg.seed, numProbes, func(rng *rand.Rand) op {
		return op{kind: opLowQT, value: d.tailInst[rng.Intn(len(d.tailInst))], qt: 0.02}
	})
	return in, nil
}

func setupSpatial(cfg runConfig, rec *recorder) (*instance, error) {
	d, err := genSpatial(datasetSeed, scaled(fullObservations, cfg.scale), circlePool)
	if err != nil {
		return nil, err
	}
	db, bb, dir, err := openDB(cfg.dir, rec)
	if err != nil {
		return nil, err
	}
	in := &instance{dir: dir, db: db, backend: bb, clients: 2, space: d}
	if in.spatial, err = db.BulkLoadSpatial("cars", d.obs); err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	in.chk = &spatialChecker{d: d}
	inserted := make([]int, in.clients)
	circle := func(i int) op { return op{kind: opCircle, circle: d.circles[i], pool: i} }
	for i := range d.circles {
		in.traffic.add(0.65/float64(len(d.circles)), circle(i))
	}
	for i, seg := range d.segments {
		in.traffic.add(0.30/float64(len(d.segments)), op{kind: opSegment, value: seg, qt: segmentQT, pool: i})
	}
	in.traffic.add(0.05, op{kind: opInsert})
	in.deckSize, in.minCycles = deckOf(384, cfg.scale), 3
	in.fill = func(o *op, c int) {
		o.obs = d.freshObs(inserted[c]*in.clients + c)
		inserted[c]++
	}
	in.probes = probeOps(cfg.seed, numProbes, func(rng *rand.Rand) op { return circle(rng.Intn(len(d.circles))) })
	return in, nil
}

var setups = map[string]func(runConfig, *recorder) (*instance, error){
	wlHotRead:   setupHotRead,
	wlMixed:     setupMixed,
	wlColdPaths: setupColdPaths,
	wlSpatial:   setupSpatial,
}

// mixedEpilogue is serve-fractured-mixed's end-of-run check: quiesce,
// compare the whole table with the model, then kill the backend — every
// later mutation fails, as if the process had died — and require a
// fresh Open of the directory to serve every acknowledged insert and no
// acknowledged delete. In a traced run the reopened database then
// flushes and merges, and what is left on disk is compared with the live
// tuples' encoded size. Freezing does not discard OS-cached bytes that were never
// fsynced; that remains the crash-matrix tests' job.
func mixedEpilogue(ctx context.Context, in *instance, rep *report) error {
	chk := in.chk.(*discreteChecker)
	if err := in.tab.StopAutoMerge(); err != nil {
		return fmt.Errorf("stop auto-merge: %w", err)
	}
	if err := chk.sweep(ctx, in.tab); err != nil {
		return fmt.Errorf("oracle comparison: %w", err)
	}
	in.backend.frozen.Store(true)
	start := time.Now()
	db, err := upidb.Open(in.dir)
	if err != nil {
		return fmt.Errorf("durability: reopen: %w", err)
	}
	defer db.Close()
	tab, err := db.OpenTable(tableName, dataset.AttrInstitution, secAttrs, upidb.WithCutoff(0.1))
	if err != nil {
		return fmt.Errorf("durability: reopen: %w", err)
	}
	reopen := time.Since(start)
	if err := chk.sweep(ctx, tab); err != nil {
		return fmt.Errorf("durability: %w", err)
	}
	if !rep.Traced {
		return nil
	}
	rep.layer("fracture.reopen_ms", ms(reopen))
	if err := tab.Flush(); err != nil {
		return err
	}
	if err := tab.Merge(); err != nil {
		return err
	}
	size, err := dirSize(in.dir)
	if err != nil {
		return err
	}
	rep.layer("space.amp", float64(size)/float64(chk.liveBytes()))
	return nil
}

func dirSize(dir string) (int64, error) {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
