package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"upidb"
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // 1 = the sizes BENCHMARK.json was frozen at
	dir      string  // data directories are created under it
}

// sample is one timed op.
type sample struct {
	kind   opKind
	traced bool
	failed bool
	known  bool // accepted only under a known engine defect (see verify)
	probe  int
	lat    time.Duration
	first  time.Duration // 0 = no first-row time
	plan   string
}

// report collects what one run measured.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	Scale    float64            `json:"scale"`
	Host     hostInfo           `json:"host"`
	Policy   string             `json:"flush_policy"`
	Clients  int                `json:"clients"`
	Samples  map[string]int     `json:"samples"`
	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Ladder holds the median time of the probe set at each storey.
	Ladder map[string]float64 `json:"ladder_us,omitempty"`
	// Spans is the traced run's self-time table, by span name.
	Spans     map[string]spanRow `json:"spans,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
}

type spanRow struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// layer records a per-layer metric, unless the workload never enters
// the layer (see layerSpec.on): counters read on every run stay out of
// the reports of workloads they say nothing about. A ratio with nothing
// under it is reported as 0, never as NaN: the result line must stay
// valid JSON.
func (r *report) layer(name string, v float64) {
	if !layerSets[name].holds(r.Workload) {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.PerLayer[name] = v
}

var layerSets = func() map[string]workloadSet {
	m := make(map[string]workloadSet, len(perLayerSpecs))
	for _, l := range perLayerSpecs {
		m[l.Name] = l.on
	}
	return m
}()

// fail records a failed check or op; only the first few are kept.
func (r *report) fail(err error) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of ds (nearest rank), 0 when empty.
// ds keeps its order: the ladder's slices are indexed by probe.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	ds = slices.Clone(ds)
	slices.Sort(ds)
	return ds[min(int(math.Ceil(q*float64(len(ds))))-1, len(ds)-1)]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

const (
	// warmShare of the timed phase's length is spent, untimed and before
	// it, on each client's first ops: caches fill, plans are costed,
	// connections open. It is part of set-up.
	warmShare = 0.05
	// probeEvery spaces the ladder's probe queries through the traced
	// run, so the same queries are timed in both places.
	probeEvery = 8
	// traceSlices is how many tracing-on/off slices the traced run
	// alternates through over its nominal length; the ratio of their
	// throughputs is the tracing overhead.
	traceSlices = 10
)

// phase is the timed phase's clock, shared by its clients. Clients run
// whole decks: every run then executes the same mix cycle for cycle, so
// counts repeat wherever the cycle count does, and a percentile is pinned
// to the same heavy queries instead of to how far into a deck the
// deadline fell. The phase ends with the cycle that finishes nearest to
// its nominal length, but not before the workload's minimum of cycles:
// on a slow host the phase runs longer instead of coming up short of the
// samples its percentiles need. The first client to finish a cycle judges
// it for all, so that none runs a cycle alone on the two cores.
type phase struct {
	start time.Time
	d     time.Duration
	min   int // whole cycles the phase runs at least

	mu     sync.Mutex
	judged int // cycles judged so far
	last   int // the final cycle; 0 while undecided
}

// over reports whether a client that took `took` for its cycle-th deck
// stops here.
func (p *phase) over(cycle int, took time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.last == 0 && cycle > p.judged {
		p.judged = cycle
		if cycle >= p.min && time.Since(p.start)+took/2 >= p.d {
			p.last = cycle
		}
	}
	return p.last != 0 && cycle >= p.last
}

// client drives one closed loop: the next op is sent when the previous
// reply has been fully consumed and checked.
type client struct {
	id, of int // this client's index, and how many there are
	in     *instance
	tr     transport
	rng    *rand.Rand // shuffles this client's decks
	rec    *recorder
	dealt  int // decks dealt so far
	n      int // timed ops so far
	// ingested is the encoded size of the acknowledged writes (traced
	// runs only: it feeds storage.write_amp).
	ingested int64
	res      opResult
	samples  []sample
	errs     []error
	cycles   int           // whole decks run in the timed phase
	wall     time.Duration // this client's timed phase
}

func newClient(in *instance, id, of int, seed int64, rec *recorder) *client {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(id)))
	return &client{id: id, of: of, in: in, tr: in.transport(rec), rec: rec, rng: rng, samples: make([]sample, 0, 1<<16)}
}

func (c *client) close() {
	if h, ok := c.tr.(*httpTransport); ok {
		h.client.CloseIdleConnections()
	}
}

// deal returns the client's next deck. No two decks of a run are dealt
// at the same offset, so later cycles and the other client query other
// values of the same classes, in the same shares.
func (c *client) deal() []op {
	i := c.dealt*c.of + c.id
	c.dealt++
	return c.in.traffic.deck(c.rng, c.in.deckSize, i)
}

// one sends, times and checks a single op.
func (c *client) one(ctx context.Context, o op) sample {
	if o.kind.isWrite() {
		c.in.fill(&o, c.id)
	}
	c.res = opResult{rows: c.res.rows[:0]}
	stamp := c.in.chk.begin(&o)
	span := c.rec.begin(levelOp, "op")
	start := time.Now()
	err := c.tr.do(ctx, &o, &c.res)
	end := time.Now()
	c.rec.end(levelOp, span)
	s := sample{kind: o.kind, traced: span != noSpan, probe: o.probe, lat: end.Sub(start), plan: c.res.plan}
	if !c.res.firstRow.IsZero() {
		s.first = c.res.firstRow.Sub(start)
	}
	if err == nil {
		s.known, err = c.in.chk.end(&o, stamp, &c.res)
	}
	if err == nil && c.rec != nil {
		c.ingested += encodedSize(&o)
	}
	if err != nil {
		s.failed = true
		c.errs = append(c.errs, fmt.Errorf("client %d (%v): %w", c.id, o.kind, err))
	}
	return s
}

// warm runs the untimed first ops, so caches fill and lazy set-up ends.
func (c *client) warm(ctx context.Context, d time.Duration) {
	deck := c.deal()
	for i, start := 0, time.Now(); ctx.Err() == nil && time.Since(start) < d; i++ {
		c.one(ctx, deck[i%len(deck)])
	}
}

// timed runs whole decks until the phase is over. In a traced run the
// recorder is switched on for every other slice of the phase, and every
// probeEvery-th op is one of the ladder's probes.
func (c *client) timed(ctx context.Context, p *phase) {
	defer func() { c.wall = time.Since(p.start) }()
	for {
		began := time.Now()
		for _, o := range c.deal() {
			if ctx.Err() != nil {
				return
			}
			if c.rec != nil {
				c.rec.on.Store(int(time.Since(p.start)*traceSlices/p.d)%2 == 1)
				if c.n%probeEvery == 0 {
					o = c.in.probes[(c.n/probeEvery)%len(c.in.probes)]
				}
			}
			c.n++
			c.samples = append(c.samples, c.one(ctx, o))
		}
		c.cycles++
		if p.over(c.cycles, time.Since(began)) {
			return
		}
	}
}

// built is a workload instance with its clients, warmed up.
type built struct {
	in      *instance
	clients []*client
	took    time.Duration
}

// build does everything setup_s covers: generate, load, pre-fracture,
// listener up, warm-up.
func build(ctx context.Context, cfg runConfig, rec *recorder) (*built, error) {
	start := time.Now()
	in, err := setups[cfg.workload](cfg, rec)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	b := &built{in: in}
	n := in.clients
	if cfg.trace {
		n = 1 // span containment needs one op in flight
	}
	warm := time.Duration(cfg.seconds * warmShare * float64(time.Second))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		c := newClient(in, i, n, cfg.seed, rec)
		b.clients = append(b.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.warm(ctx, warm)
		}()
	}
	wg.Wait()
	runtime.GC()
	b.took = time.Since(start)
	return b, nil
}

func (b *built) close() error {
	for _, c := range b.clients {
		c.close()
	}
	return b.in.close()
}

// checkBackgroundWork is serve-fractured-mixed's assertion that the
// timed phase really ran beside flushes and merges. Whatever the host's
// speed, every full RAM buffer must have been flushed and a shard that
// flushed twice the merge trigger must have been merged. At full scale
// the phase's minimum of whole decks (instance.minCycles) moreover holds
// enough inserts for minFlushes and minMerges per shard (ids are hashed,
// so the two shards fill evenly and the totals are compared).
func checkBackgroundWork(rep *report, cfg runConfig, m0, m1 upidb.MetricsSnapshot) error {
	delta := func(name string) int { return int(m1.Counters[name] - m0.Counters[name]) }
	flushes, merges := delta("upidb_fracture_flushes_total"), delta("upidb_fracture_merges_total")
	rep.Samples["flushes"], rep.Samples["merges"] = flushes, merges
	if want := rep.Samples["insert"]/mixedBuffer - mixedShards; flushes < want {
		return fmt.Errorf("%d acknowledged inserts filled the %d-tuple buffers %d times, but only %d flushes ran", rep.Samples["insert"], mixedBuffer, want+mixedShards, flushes)
	}
	if flushes >= 2*mixedMaxFractures*mixedShards && merges < mixedShards {
		return fmt.Errorf("%d flushes but only %d merges: the background merger did not keep up", flushes, merges)
	}
	if cfg.scale == 1 && (flushes < minFlushes*mixedShards || merges < minMerges*mixedShards) {
		return fmt.Errorf("%d flushes and %d merges in the timed phase, want at least %d and %d on each of %d shards", flushes, merges, minFlushes, minMerges, mixedShards)
	}
	return nil
}

// run executes one workload and returns its report. The error is for
// what prevents measuring at all; failed ops are counted in the report.
func run(ctx context.Context, cfg runConfig) (*report, error) {
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace, Scale: cfg.scale,
		Host:     hostFingerprint(cfg.dir),
		Policy:   "fsync per acknowledged write (WAL), same on every run; reads come from the OS cache",
		Samples:  map[string]int{},
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}, Ladder: map[string]float64{}}
	var rec *recorder
	repeats := setupRepeats
	if cfg.trace {
		rec, repeats = newRecorder(), 1
	}

	// Set-up, several times: the median is reported, the last is used.
	var b *built
	var setupTimes []float64
	for i := 0; i < repeats; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if b, err = build(ctx, cfg, rec); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, b.took.Seconds())
	}
	defer b.close()
	rep.Clients = len(b.clients)
	for _, c := range b.clients {
		for _, err := range c.errs { // warm-up ops are checked too
			rep.Attempted++
			rep.fail(err)
		}
		c.errs = nil
	}

	var before, after runtime.MemStats
	m0 := b.in.db.Metrics()
	d0 := b.in.db.DiskStats()
	io0 := b.in.backend.snapshot()
	runtime.ReadMemStats(&before)
	ph := &phase{start: time.Now(), d: time.Duration(cfg.seconds * float64(time.Second)), min: b.in.minCycles}
	var wg sync.WaitGroup
	for _, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.timed(ctx, ph)
		}()
	}
	wg.Wait()
	wall := time.Since(ph.start)
	runtime.ReadMemStats(&after)
	m1, d1, io1 := b.in.db.Metrics(), b.in.db.DiskStats(), b.in.backend.snapshot()
	if rec != nil {
		rec.on.Store(false)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var all []sample
	ok, known, rate := 0, 0, 0.0
	var reads, firsts, writes []time.Duration
	rep.Samples["cycles"] = b.clients[0].cycles
	for _, c := range b.clients {
		all = append(all, c.samples...)
		for _, err := range c.errs {
			rep.fail(err)
		}
		rep.Samples["cycles"] = min(rep.Samples["cycles"], c.cycles)
		done := 0
		for _, s := range c.samples {
			if s.failed {
				continue
			}
			done++
			if s.known {
				known++
			}
			rep.Samples[s.kind.String()]++
			if s.kind.isWrite() {
				writes = append(writes, s.lat)
				continue
			}
			reads = append(reads, s.lat)
			if s.plan != "" {
				rep.Samples[s.kind.String()+":"+s.plan]++ // the route the planner chose
			}
			if s.first > 0 {
				firsts = append(firsts, s.first)
			}
		}
		ok += done
		// Each closed loop ran for its own wall time; they end within a
		// fraction of a cycle of each other.
		rate += float64(done) / c.wall.Seconds()
	}
	rep.Attempted += len(all)
	rep.Samples["reads"], rep.Samples["writes"], rep.Samples["first_row"] = len(reads), len(writes), len(firsts)
	if known > 0 {
		rep.Samples[knownTopKShort] = known
	}
	if ok == 0 {
		return nil, fmt.Errorf("no op succeeded: %v", rep.Errors)
	}

	if err := b.in.chk.finish(ctx); err != nil {
		rep.fail(fmt.Errorf("output check: %w", err))
	}
	if cfg.workload == wlMixed {
		if err := checkBackgroundWork(rep, cfg, m0, m1); err != nil {
			rep.fail(err)
		}
	}

	if !cfg.trace {
		rep.EndToEnd["setup_s"] = medianFloat(setupTimes)
		rep.EndToEnd["ops_per_s"] = rate
		rep.EndToEnd["read_p50_ms"] = ms(median(reads))
		rep.EndToEnd["first_row_p50_ms"] = ms(median(firsts))
		rep.EndToEnd["allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(ok)
		rep.EndToEnd["alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(ok)
	} else {
		tr := &tracedRun{b: b, rec: rec, all: all, wall: wall, before: &before, after: &after,
			m0: m0, m1: m1, d0: d0, d1: d1, io0: io0, io1: io1}
		tr.fill(rep, reads, writes)
	}

	if cfg.workload == wlMixed {
		if err := mixedEpilogue(ctx, b.in, rep); err != nil {
			rep.fail(err)
		}
	}
	if cfg.trace {
		if err := runLadder(ctx, cfg, b.in, rep, all); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		if err := rec.writeFile(tracePath(cfg)); err != nil {
			return nil, err
		}
		rep.Spans = map[string]spanRow{}
		for name, t := range rec.totals() {
			rep.Spans[name] = spanRow{t.count, t.total.Seconds(), t.self.Seconds()}
		}
	}
	return rep, nil
}
