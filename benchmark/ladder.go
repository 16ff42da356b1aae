package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"upidb"
	"upidb/internal/btree"
	"upidb/internal/dataset"
	"upidb/internal/fracture"
	"upidb/internal/keyenc"
	"upidb/internal/shard"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// The layer ladder: after the timed phase, a fixed seed-derived probe
// set from the workload's own distribution is run at every storey a
// query of the workload crosses, each storey built with that layer's
// public constructor over the same tuples: btree seek+scan -> upi cursor
// -> fracture Prepare+Stream/Collect -> shard Prepare+Stream/Collect ->
// Table.Run and, for the serve-* workloads, -> server handler into
// memory -> loopback HTTP. A storey's self time is its time minus the
// storey below, probe by probe. The ladder records no spans: the trace
// holds the timed phase and nothing else.

const ladderReps = 3 // timed repetitions per probe and storey, after one warm run

// rung is one storey of the ladder: how to run a probe on it, streamed
// and (where the storey has such a path) materialised.
type rung struct {
	stream  func(o *op) (int, error)
	collect func(o *op) (int, error)
}

type rungTimes struct {
	stream, collect []time.Duration // per probe, median of ladderReps
	rows            []int
	allocs          float64 // mallocs per streamed run
}

// passes times f over every probe ladderReps+1 times, probes in the
// inner loop so that no probe runs back to back with itself, drops the
// first (warm) pass and returns each probe's median.
func passes(n int, f func(i int) error) ([]time.Duration, error) {
	ds := make([][]time.Duration, n)
	for pass := 0; pass <= ladderReps; pass++ {
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := f(i); err != nil {
				return nil, err
			}
			if pass > 0 {
				ds[i] = append(ds[i], time.Since(start))
			}
		}
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = median(ds[i])
	}
	return out, nil
}

func measureRung(r rung, probes []op) (rungTimes, error) {
	t := rungTimes{rows: make([]int, len(probes))}
	var before, after runtime.MemStats
	var err error
	runtime.ReadMemStats(&before)
	t.stream, err = passes(len(probes), func(i int) (err error) { t.rows[i], err = r.stream(&probes[i]); return })
	if err != nil {
		return t, err
	}
	runtime.ReadMemStats(&after)
	t.allocs = float64(after.Mallocs-before.Mallocs) / float64(len(probes)*(ladderReps+1))
	if r.collect != nil {
		t.collect, err = passes(len(probes), func(i int) error { _, err := r.collect(&probes[i]); return err })
	}
	return t, err
}

// selfTime is the median over probes of upper minus lower.
func selfTime(upper, lower []time.Duration) time.Duration {
	ds := make([]time.Duration, len(upper))
	for i := range upper {
		ds[i] = upper[i] - lower[i]
	}
	return median(ds)
}

// perRowNs is the summed difference spread over the rows returned.
func perRowNs(upper, lower []time.Duration, rows []int) float64 {
	var d time.Duration
	n := 0
	for i := range upper {
		d += upper[i] - lower[i]
		n += rows[i]
	}
	return float64(d) / float64(max(n, 1))
}

func sumRows(rows []int) int {
	n := 0
	for _, r := range rows {
		n += r
	}
	return n
}

// medianOf times f over n items.
func medianOf(n int, f func(i int) error) (time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		start := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	return median(ds), nil
}

// diskFS is a storage.FS over real files in a fresh directory.
func diskFS(root string) (*storage.FS, string, error) {
	dir, err := os.MkdirTemp(root, "ladder-")
	if err != nil {
		return nil, "", err
	}
	disk, err := storage.NewDiskBackend(dir)
	if err != nil {
		return nil, "", err
	}
	return storage.NewFSOn(sim.NewDisk(sim.DefaultParams()), disk), dir, nil
}

func drain[R any](next func() (R, bool, error)) (int, error) {
	for n := 0; ; n++ {
		_, ok, err := next()
		if err != nil || !ok {
			return n, err
		}
	}
}

// sink is the in-memory response writer of the server storey.
type sink struct {
	h      http.Header
	status int
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) Write(b []byte) (int, error) { return len(b), nil }
func (s *sink) WriteHeader(code int)        { s.status = code }
func (s *sink) Flush()                      {}

// handlerRung runs a probe through the server's handler with no
// network and no client.
func handlerRung(ctx context.Context, h http.Handler) func(o *op) (int, error) {
	return func(o *op) (int, error) {
		body, err := json.Marshal(wireQuery{Kind: "ptq", Value: o.value, QT: o.qt})
		if err != nil {
			return 0, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/tables/"+tableName+"/query", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		w := &sink{h: http.Header{}, status: http.StatusOK}
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			return 0, fmt.Errorf("handler answered %d", w.status)
		}
		return 0, nil
	}
}

func transportRung(ctx context.Context, tr transport, kind opKind) func(o *op) (int, error) {
	var res opResult
	return func(o *op) (int, error) {
		q := *o
		q.kind = kind
		res = opResult{rows: res.rows[:0]}
		err := tr.do(ctx, &q, &res)
		return len(res.rows), err
	}
}

// ladderInput describes the table a discrete ladder rebuilds.
type ladderInput struct {
	tuples  []*upidb.Tuple
	shards  int
	prefrac int
	served  bool // the workload's queries cross the server and HTTP
	probes  []op // streamed primary PTQs
	d       *discreteData
}

// storeys holds one table built at every level of the engine.
type storeys struct {
	tab     *upi.Table      // all tuples in one UPI; its heap is the btree storey
	store   *fracture.Store // fractured like the workload's table
	sharded *shard.Table
	db      *upidb.DB
	table   *upidb.Table
	sv      *served        // nil unless the workload is served
	client  *httpTransport // likewise
	root    string
	dirs    []string
}

// newFS gives the next storey real files of its own.
func (s *storeys) newFS() (*storage.FS, error) {
	fs, dir, err := diskFS(s.root)
	s.dirs = append(s.dirs, dir)
	return fs, err
}

func (s *storeys) close() {
	if s.client != nil {
		s.client.client.CloseIdleConnections()
	}
	if s.sv != nil {
		s.sv.stop()
	}
	if s.db != nil {
		s.db.Close()
	}
	if s.sharded != nil {
		s.sharded.Close()
	}
	if s.store != nil {
		s.store.Close()
	}
	for _, d := range s.dirs {
		os.RemoveAll(d)
	}
}

// buildStoreys builds each storey with that layer's public constructor
// over the same tuples, fractured the same way. Deterministic builds
// give every storey the same pages.
func buildStoreys(root string, in ladderInput, rep *report) (s *storeys, err error) {
	s = &storeys{root: root}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	upiOpts := upi.Options{Cutoff: 0.1}
	fcfg := fracture.Config{UPI: upiOpts}
	main, parts := fractureSplit(in.tuples, in.prefrac)

	fs, err := s.newFS()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if s.tab, err = upi.BulkBuild(fs, tableName, dataset.AttrInstitution, secAttrs, upiOpts, in.tuples); err != nil {
		return nil, err
	}
	rep.layer("upi.bulk_build_s", time.Since(start).Seconds())

	if fs, err = s.newFS(); err != nil {
		return nil, err
	}
	if s.store, err = fracture.BulkLoad(fs, tableName, dataset.AttrInstitution, secAttrs, fcfg, main); err != nil {
		return nil, err
	}
	if err = flushParts(s.store, parts); err != nil {
		return nil, err
	}

	if fs, err = s.newFS(); err != nil {
		return nil, err
	}
	if s.sharded, err = shard.BulkLoad(fs, tableName, dataset.AttrInstitution, secAttrs, fcfg, in.shards, sim.DefaultParams(), main); err != nil {
		return nil, err
	}
	if err = flushParts(s.sharded, parts); err != nil {
		return nil, err
	}

	var dir string
	s.db, _, dir, err = openDB(root, nil)
	s.dirs = append(s.dirs, dir)
	if err != nil {
		return nil, err
	}
	if s.table, err = s.db.BulkLoadTable(tableName, dataset.AttrInstitution, secAttrs, main, upidb.WithShards(in.shards)); err != nil {
		return nil, err
	}
	if err = flushParts(s.table, parts); err != nil {
		return nil, err
	}
	if !in.served {
		return s, nil
	}
	if s.sv, err = serve(s.db, nil); err != nil {
		return nil, err
	}
	s.client = s.sv.newClient(nil)
	return s, nil
}

// resultStream is what fracture.Stream and shard.Stream share.
type resultStream interface {
	Next() (upi.Result, bool, error)
	Close()
}

// preparedRung is the storey of a layer that prepares a fracture.Req
// and then streams or collects it (fracture.Store, shard.Table).
func preparedRung[S resultStream, P interface {
	Stream(context.Context) S
	Collect(context.Context) ([]upi.Result, fracture.Stats, error)
}](ctx context.Context, prepare func(context.Context, fracture.Req) (P, error)) rung {
	ptq := func(o *op) fracture.Req { return fracture.Req{Kind: fracture.KindPTQ, Value: o.value, QT: o.qt} }
	return rung{
		stream: func(o *op) (int, error) {
			p, err := prepare(ctx, ptq(o))
			if err != nil {
				return 0, err
			}
			st := p.Stream(ctx)
			defer st.Close()
			return drain(st.Next)
		},
		collect: func(o *op) (int, error) {
			p, err := prepare(ctx, ptq(o))
			if err != nil {
				return 0, err
			}
			rs, _, err := p.Collect(ctx)
			return len(rs), err
		},
	}
}

// The storeys bottom-up; the last two exist for served workloads only.
var storeyNames = [...]string{"btree", "upi", "fracture", "shard", "upidb", "server", "http"}

const (
	storeyBtree = iota
	storeyUPI
	storeyFracture
	storeyShard
	storeyUpidb
	storeyServer
	storeyHTTP
)

// rungs lists the storeys in storeyNames' order.
func (s *storeys) rungs(ctx context.Context) []rung {
	heap := s.tab.Heap()
	embed := embedTransport{s.table}
	rungs := []rung{
		{stream: func(o *op) (int, error) {
			// The heap range of the value, down to the threshold: what a
			// PTQ at or above the cutoff reads.
			n := 0
			var derr error
			err := heap.Scan(upi.ValuePrefix(o.value), upi.ValuePrefixEnd(o.value), func(k, _ []byte) bool {
				_, conf, _, err := upi.DecodeHeapKey(k)
				if err != nil || conf < o.qt {
					derr = err
					return false
				}
				n++
				return true
			})
			if err == nil {
				err = derr
			}
			return n, err
		}},
		{stream: func(o *op) (int, error) {
			c := s.tab.QueryCursor(ctx, o.value, o.qt)
			defer c.Close()
			return drain(c.Next)
		}},
		preparedRung[*fracture.Stream](ctx, s.store.Prepare),
		preparedRung[*shard.Stream](ctx, s.sharded.Prepare),
		{stream: transportRung(ctx, embed, opPTQ), collect: transportRung(ctx, embed, opCollect)},
	}
	if s.sv != nil {
		rungs = append(rungs, rung{stream: handlerRung(ctx, s.sv.srv.Handler())}, rung{stream: transportRung(ctx, s.client, opPTQ)})
	}
	return rungs
}

// discreteLadder builds every storey over in.tuples and reports the
// discrete layers' metrics. It returns the per-probe times of the top
// storey: loopback HTTP for a served workload, Table.Run otherwise.
func discreteLadder(ctx context.Context, cfg runConfig, in ladderInput, rep *report) ([]time.Duration, error) {
	s, err := buildStoreys(cfg.dir, in, rep)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rungs := s.rungs(ctx)
	t := make([]rungTimes, len(rungs))
	for i, r := range rungs {
		if t[i], err = measureRung(r, in.probes); err != nil {
			return nil, fmt.Errorf("%s storey: %w", storeyNames[i], err)
		}
		rep.Ladder[storeyNames[i]+".stream_us"] = us(median(t[i].stream))
		if t[i].collect != nil {
			rep.Ladder[storeyNames[i]+".collect_us"] = us(median(t[i].collect))
		}
	}
	bt, up, fr, sh, fa := t[storeyBtree], t[storeyUPI], t[storeyFracture], t[storeyShard], t[storeyUpidb]
	rows := fa.rows
	if in.served {
		ha, wi := t[storeyServer], t[storeyHTTP]
		rep.layer("client.overhead_us", us(selfTime(wi.stream, ha.stream)))
		rep.layer("server.self_us", us(selfTime(ha.stream, fa.stream)))
		rep.layer("server.encode_ns_per_row", perRowNs(ha.stream, fa.stream, rows))
		rep.layer("server.allocs_per_req", ha.allocs-fa.allocs)
	}
	rep.layer("upidb.self_us", us(selfTime(fa.stream, sh.stream)))
	rep.layer("upidb.allocs_per_query", fa.allocs-sh.allocs)
	rep.layer("shard.self_us", us(selfTime(sh.stream, fr.stream)))
	rep.layer("shard.gather_ns_per_row", perRowNs(sh.stream, fr.stream, rows))
	rep.layer("shard.collect_us", us(selfTime(sh.collect, fr.collect)))
	rep.layer("fracture.stream_self_us", us(selfTime(fr.stream, up.stream)))
	rep.layer("fracture.merge_ns_per_row", perRowNs(fr.stream, up.stream, rows))
	rep.layer("fracture.collect_us", us(selfTime(fr.collect, up.stream)))
	rep.layer("upi.cursor_self_ns_per_row", perRowNs(up.stream, bt.stream, up.rows))
	rep.layer("upi.allocs_per_row", (up.allocs-bt.allocs)*float64(len(in.probes))/float64(max(sumRows(up.rows), 1)))
	rep.layer("btree.scan_ns_per_entry", perRowNs(bt.stream, make([]time.Duration, len(bt.stream)), bt.rows))

	if err := upiProbes(ctx, s.tab, in, rep); err != nil {
		return nil, err
	}
	if err := plannerProbes(s.sharded, in, rep); err != nil {
		return nil, err
	}
	if err := facadeProbes(ctx, s.table, in, rep); err != nil {
		return nil, err
	}
	if cfg.workload == wlMixed {
		if err := writePathProbes(s, rungs[storeyFracture], in, rep); err != nil {
			return nil, err
		}
	}
	return t[len(t)-1].stream, nil
}

// upiProbes measures the single-partition layers below the fracture
// store: btree seek/get, pager, the other upi cursors.
func upiProbes(ctx context.Context, tab *upi.Table, in ladderInput, rep *report) error {
	heap, pager := tab.Heap(), tab.Heap().Pager()
	probes := in.probes
	d, err := medianOf(len(probes), func(i int) error {
		return heap.NewCursor().Seek(upi.ValuePrefix(probes[i].value)).Err()
	})
	if err != nil {
		return err
	}
	rep.layer("btree.seek_us", us(d))

	// Point lookups of heap entries that exist: alternatives at or above
	// the cutoff, of tuples spread over the table.
	var keys [][]byte
	for i := 0; i < len(in.tuples); i += max(len(in.tuples)/256, 1) {
		t := in.tuples[i]
		dist, _ := t.Uncertain(dataset.AttrInstitution)
		if c := t.Confidence(dataset.AttrInstitution, dist[0].Value); c >= 0.1 {
			keys = append(keys, upi.HeapKey(dist[0].Value, c, t.ID))
		}
	}
	get := func(i int) error {
		_, ok, err := heap.Get(keys[i])
		if err == nil && !ok {
			err = fmt.Errorf("heap entry %d not found", i)
		}
		return err
	}
	if d, err = medianOf(len(keys), get); err != nil {
		return err
	}
	rep.layer("btree.get_us", us(d))
	cold := min(32, len(keys))
	pages := 0
	for i := 0; i < cold; i++ {
		if err := pager.DropCache(); err != nil {
			return err
		}
		if err := get(i); err != nil {
			return err
		}
		pages += pager.CachedPages()
	}
	rep.layer("btree.pages_per_lookup_cold", float64(pages)/float64(cold))

	const hits = 4096
	start := time.Now()
	for i := 0; i < hits; i++ {
		if _, err := pager.Read(1); err != nil {
			return err
		}
	}
	rep.layer("storage.pager_hit_ns", float64(time.Since(start))/hits)
	n := int(min(pager.NumPages()-1, 64))
	if d, err = medianOf(n, func(i int) error {
		if err := pager.DropCache(); err != nil {
			return err
		}
		_, err := pager.Read(storage.PageID(1 + i))
		return err
	}); err != nil {
		return err
	}
	rep.layer("storage.pager_miss_us", us(d))

	if d, err = medianOf(len(probes), func(i int) error {
		c := tab.TopKCursor(ctx, probes[i].value, 10)
		defer c.Close()
		_, err := drain(c.Next)
		return err
	}); err != nil {
		return err
	}
	rep.layer("upi.topk_cursor_us", us(d))
	countries := in.d.countries.values
	if d, err = medianOf(min(4, len(countries)), func(i int) error {
		c := tab.SecondaryCursor(ctx, dataset.AttrCountry, countries[i*len(countries)/4], 0.6, true)
		defer c.Close()
		_, err := drain(c.Next)
		return err
	}); err != nil {
		return err
	}
	rep.layer("upi.secondary_us", us(d))
	start = time.Now()
	c := tab.ScanCursor(ctx, dataset.AttrCountry, countries[0], 0.6)
	_, err = drain(c.Next)
	c.Close()
	if err != nil {
		return err
	}
	rep.layer("upi.scan_ns_per_entry", float64(time.Since(start))/float64(max(heap.Count(), 1)))

	// A btree bulk build and the tuple codec, on memory: pure CPU.
	const entries = 50_000
	mem := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	p, err := storage.NewPager(mem.Create("build"), storage.DefaultPageSize)
	if err != nil {
		return err
	}
	val := make([]byte, 64)
	start = time.Now()
	b, err := btree.NewBuilder(p)
	if err != nil {
		return err
	}
	for i := uint64(0); i < entries; i++ {
		if err := b.Add(keyenc.AppendUint64(nil, i), val); err != nil {
			return err
		}
	}
	if _, err := b.Finish(); err != nil {
		return err
	}
	rep.layer("btree.build_ns_per_entry", float64(time.Since(start))/entries)

	sample := in.tuples[:min(1000, len(in.tuples))]
	encoded := make([][]byte, len(sample))
	start = time.Now()
	for i, t := range sample {
		encoded[i] = tuple.Encode(t)
	}
	rep.layer("tuple.encode_ns", float64(time.Since(start))/float64(len(sample)))
	start = time.Now()
	for _, e := range encoded {
		if _, err := tuple.Decode(e); err != nil {
			return err
		}
	}
	rep.layer("tuple.decode_ns", float64(time.Since(start))/float64(len(sample)))
	return nil
}

// plannerProbes times cold and cached costing of shapes no other query
// has used (an odd threshold keeps them out of every cache).
func plannerProbes(sharded *shard.Table, in ladderInput, rep *report) error {
	const qt = 0.123
	var cold, cached []time.Duration
	for i := range in.probes {
		v := in.probes[i].value
		start := time.Now()
		if _, hit, err := sharded.PlanPTQCached(dataset.AttrInstitution, v, qt); err != nil {
			return err
		} else if !hit {
			cold = append(cold, time.Since(start))
		}
		start = time.Now()
		if _, _, err := sharded.PlanPTQCached(dataset.AttrInstitution, v, qt); err != nil {
			return err
		}
		cached = append(cached, time.Since(start))
	}
	rep.layer("planner.plan_cold_us", us(median(cold)))
	rep.layer("planner.plan_cached_us", us(median(cached)))
	return nil
}

// facadeProbes measures Table.Run's own costs: an empty-result query,
// and the time to the first row of each probe.
func facadeProbes(ctx context.Context, table *upidb.Table, in ladderInput, rep *report) error {
	tr := embedTransport{table}
	var res opResult
	run := func(o op) (time.Duration, error) {
		res = opResult{rows: res.rows[:0]}
		start := time.Now()
		err := tr.do(ctx, &o, &res)
		return time.Since(start), err
	}
	var empty, first []time.Duration
	for i := range in.probes {
		d, err := run(op{kind: opPTQ, value: "no such institution", qt: 0.1})
		if err != nil {
			return err
		}
		empty = append(empty, d)
		start := time.Now()
		if _, err := run(in.probes[i]); err != nil {
			return err
		}
		if !res.firstRow.IsZero() {
			first = append(first, res.firstRow.Sub(start))
		}
	}
	rep.layer("upidb.run_overhead_us", us(median(empty)))
	rep.layer("upidb.first_row_us", us(median(first)))
	return nil
}

// writePathProbes measures the fracture store's write side: buffered
// and durable inserts, a flush, and an explicit merge with reads beside
// it.
func writePathProbes(s *storeys, reads rung, in ladderInput, rep *report) error {
	store := s.store
	fresh := func(j int) *upidb.Tuple { return in.d.freshTuple(2_000_000 + j) }
	d, err := medianOf(mixedBuffer, func(i int) error { return store.Insert(fresh(i)) })
	if err != nil {
		return err
	}
	rep.layer("fracture.insert_us", us(d))
	start := time.Now()
	if err := store.Flush(); err != nil {
		return err
	}
	rep.layer("fracture.flush_s", time.Since(start).Seconds())

	// Reads while an explicit Merge runs, against the same reads idle.
	idle, err := measureRung(rung{stream: reads.stream}, in.probes)
	if err != nil {
		return err
	}
	var (
		wg      sync.WaitGroup
		merging = make(chan struct{})
		busy    []time.Duration
		readErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-merging:
				return
			default:
			}
			start := time.Now()
			if _, err := reads.stream(&in.probes[i%len(in.probes)]); err != nil {
				readErr = err
				return
			}
			busy = append(busy, time.Since(start))
		}
	}()
	start = time.Now()
	err = store.Merge()
	took := time.Since(start)
	close(merging)
	wg.Wait()
	if err != nil {
		return err
	}
	if readErr != nil {
		return readErr
	}
	rep.layer("fracture.merge_s", took.Seconds())
	rep.layer("fracture.merge_mb_per_s", float64(store.SizeBytes())/1e6/took.Seconds())
	rep.layer("fracture.read_during_merge_ratio", float64(median(busy))/float64(median(idle.stream)))

	// A durable store: WAL append and fsync per insert.
	fsD, err := s.newFS()
	if err != nil {
		return err
	}
	durable := fracture.Config{UPI: upi.Options{Cutoff: 0.1}, Durable: true}
	ds, err := fracture.NewStore(fsD, tableName, dataset.AttrInstitution, secAttrs, durable)
	if err != nil {
		return err
	}
	d, err = medianOf(128, func(i int) error { return ds.Insert(fresh(i)) })
	if err != nil {
		return err
	}
	rep.layer("fracture.insert_durable_us", us(d))
	return ds.Close()
}

// runLadder runs the workload's own ladder over its own data and
// probes, and closes the books: the residual between the probes as
// timed inside the traced run and at the ladder's top storey.
func runLadder(ctx context.Context, cfg runConfig, in *instance, rep *report, all []sample) error {
	var top []time.Duration
	var err error
	if in.spatial != nil {
		top, err = spatialLadder(ctx, cfg, in.space, in.probes, rep)
	} else {
		li := ladderInput{tuples: in.discrete.tuples, shards: in.shards, prefrac: in.prefrac, served: in.served != nil, probes: in.probes, d: in.discrete}
		if cfg.workload == wlMixed {
			li.tuples = in.chk.(*discreteChecker).liveTuples()
		}
		top, err = discreteLadder(ctx, cfg, li, rep)
	}
	if err != nil {
		return err
	}
	byProbe := map[int][]time.Duration{}
	for _, s := range all {
		if s.probe > 0 && !s.failed {
			byProbe[s.probe] = append(byProbe[s.probe], s.lat)
		}
	}
	var ops, ladder []time.Duration
	for p, ds := range byProbe {
		ops, ladder = append(ops, median(ds)), append(ladder, top[p-1])
	}
	if len(ops) > 0 {
		opMed := float64(median(ops))
		rep.layer("trace.residual_ratio", (opMed-float64(median(ladder)))/opMed)
	}
	return nil
}
