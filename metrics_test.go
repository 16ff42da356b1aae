package upidb

// Observability tests: metrics–trace parity (the counters the always-on
// trace sink maintains must equal the event counts a WithTrace callback
// observes, and an untraced run must report identically), engine-level
// counter accuracy through insert/delete/flush/merge/WAL, per-shard
// stats exposure, and the Prometheus exposition of the whole registry.

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// buildMetricsTable loads a sharded table and leaves it with real
// fractures so queries touch multiple partitions per shard.
func buildMetricsTable(t *testing.T, db *DB, name string, shards int) *Table {
	t.Helper()
	var load []*Tuple
	for i := 0; i < 140; i++ {
		load = append(load, shardTestTuple(t, uint64(i+1), i+1))
	}
	tab, err := db.BulkLoadTable(name, "X", []string{"Y"}, load,
		WithCutoff(0.15), WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(1000)
	for f := 0; f < 2; f++ {
		for i := 0; i < 15; i++ {
			if err := tab.Insert(shardTestTuple(t, id, int(id))); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if err := tab.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func counterDelta(before, after MetricsSnapshot, series string) int64 {
	return after.Counters[series] - before.Counters[series]
}

// TestMetricsTraceParity: for a PTQ, a broad secondary PTQ and a top-k
// query, at 1, 2, and 7 shards, the
// scatter/scan/yield counter deltas equal the TraceDispatch /
// TraceScanStart / TraceYield event counts a trace callback sees — and
// running the identical query untraced moves the counters by exactly
// the same amounts.
func TestMetricsTraceParity(t *testing.T) {
	queries := []Query{
		PTQ("", "v03", 0.05),
		PTQ("Y", "yv02", 0.01),
		TopKQuery("v04", 9),
	}
	for _, shards := range []int{1, 2, 7} {
		db := mustCreate(t)
		tab := buildMetricsTable(t, db, fmt.Sprintf("par%d", shards), shards)
		for qi, base := range queries {
			name := fmt.Sprintf("shards=%d/q=%d", shards, qi)
			before := db.Metrics()

			// Trace callbacks fire from concurrent per-shard goroutines.
			var dispatches, scans, yields atomic.Int64
			q := base.WithTrace(func(ev TraceEvent) {
				switch ev.Kind {
				case TraceDispatch:
					dispatches.Add(1)
				case TraceScanStart:
					scans.Add(1)
				case TraceYield:
					yields.Add(1)
				}
			})
			drain := func(q Query) int {
				res, err := tab.Run(context.Background(), q)
				if err != nil {
					t.Fatalf("%s: run: %v", name, err)
				}
				n := 0
				for _, err := range res.All() {
					if err != nil {
						t.Fatalf("%s: stream: %v", name, err)
					}
					n++
				}
				return n
			}
			n := drain(q)
			traced := db.Metrics()

			if n == 0 {
				t.Fatalf("%s: query yielded nothing; parity vacuous", name)
			}
			for series, want := range map[string]int64{
				"upidb_shard_scatters_total":  dispatches.Load(),
				"upidb_scan_partitions_total": scans.Load(),
				"upidb_stream_yields_total":   yields.Load(),
			} {
				if got := counterDelta(before, traced, series); got != want {
					t.Errorf("%s: traced %s delta = %d, trace saw %d", name, series, got, want)
				}
			}
			if dispatches.Load() == 0 || scans.Load() == 0 || yields.Load() != int64(n) {
				t.Errorf("%s: trace counts dispatches=%d scans=%d yields=%d results=%d",
					name, dispatches.Load(), scans.Load(), yields.Load(), n)
			}

			// Untraced run of the same query: identical deltas.
			if got := drain(base); got != n {
				t.Fatalf("%s: untraced run yielded %d, traced %d", name, got, n)
			}
			untraced := db.Metrics()
			for _, series := range []string{
				"upidb_shard_scatters_total",
				"upidb_scan_partitions_total",
				"upidb_stream_yields_total",
			} {
				tr := counterDelta(before, traced, series)
				un := counterDelta(traced, untraced, series)
				if tr != un {
					t.Errorf("%s: %s traced delta %d != untraced delta %d", name, series, tr, un)
				}
			}
		}
		final := db.Metrics()
		want := int64(2 * len(queries)) // traced + untraced per query
		// Wall-clock and modeled-cost histograms got one observation per
		// executed query, labeled by kind.
		var wall, modeled int64
		for series, h := range final.Histograms {
			if strings.HasPrefix(series, "upidb_query_wall_seconds{") {
				wall += h.Count
			}
			if strings.HasPrefix(series, "upidb_query_modeled_seconds{") {
				modeled += h.Count
			}
		}
		if wall != want || modeled != want {
			t.Errorf("shards=%d: wall obs=%d modeled obs=%d, want %d each", shards, wall, modeled, want)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineMetricsCounters: the fracture-layer counters track
// insert/delete/flush/merge and WAL activity exactly on a durable
// table, and the merge/fsync histograms record matching observations.
func TestEngineMetricsCounters(t *testing.T) {
	db, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err := db.CreateTable("engine", "X", nil)
	if err != nil {
		t.Fatal(err)
	}
	const inserts, deletes = 30, 3
	for i := 0; i < inserts; i++ {
		if err := tab.Insert(shardTestTuple(t, uint64(i+1), i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < deletes; i++ {
		if err := tab.Delete(uint64(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}

	m := db.Metrics()
	if got := m.Counters["upidb_fracture_inserts_total"]; got != inserts {
		t.Errorf("inserts = %d, want %d", got, inserts)
	}
	if got := m.Counters["upidb_fracture_deletes_total"]; got != deletes {
		t.Errorf("deletes = %d, want %d", got, deletes)
	}
	if got := m.Counters["upidb_fracture_flushes_total"]; got < 1 {
		t.Errorf("flushes = %d, want >= 1", got)
	}
	if got := m.Counters["upidb_fracture_merges_total"]; got != 1 {
		t.Errorf("merges = %d, want 1", got)
	}
	if got := m.Counters["upidb_fracture_main_rewrites_total"]; got != 1 {
		t.Errorf("main rewrites = %d, want 1 (Merge always folds into main)", got)
	}
	if got, size := m.Counters["upidb_fracture_merge_written_bytes_total"], tab.SizeBytes(); got != size {
		t.Errorf("merge written bytes = %d, want the merged main's %d", got, size)
	}
	appends := m.Counters["upidb_wal_appends_total"]
	if appends < inserts+deletes {
		t.Errorf("wal appends = %d, want >= %d", appends, inserts+deletes)
	}
	if got := m.Histograms["upidb_wal_fsync_seconds"].Count; got != appends {
		t.Errorf("fsync observations = %d, want %d (one per append)", got, appends)
	}
	if got := m.Histograms["upidb_fracture_merge_seconds"].Count; got != 1 {
		t.Errorf("merge duration observations = %d, want 1", got)
	}
	if got := m.Gauges["upidb_fracture_partitions"]; got != 1 {
		t.Errorf("partitions gauge = %g, want 1 after full merge", got)
	}
}

// TestMetricsPartialDrain: abandoning a stream mid-drain releases the
// snapshot pins (counted) and bumps the partial-drain counter.
func TestMetricsPartialDrain(t *testing.T) {
	db := mustCreate(t)
	tab := buildMetricsTable(t, db, "drainy", 2)
	before := db.Metrics()

	res, err := tab.Run(context.Background(), PTQ("", "v03", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	for range res.All() {
		break // abandon immediately
	}
	after := db.Metrics()
	if got := counterDelta(before, after, "upidb_stream_partial_drains_total"); got != 1 {
		t.Errorf("partial drains delta = %d, want 1", got)
	}
	if got := counterDelta(before, after, "upidb_stream_pin_releases_total"); got == 0 {
		t.Error("abandoning a stream released no pins")
	}
}

// TestStatsInfoPerShard: the per-shard breakdown covers every shard and
// sums back to the table-level figures, and the scrape-time fracture
// gauges agree with it.
func TestStatsInfoPerShard(t *testing.T) {
	db := mustCreate(t)
	tab := buildMetricsTable(t, db, "pershard", 3)
	si := tab.StatsInfo()
	if len(si.Shards) != 3 {
		t.Fatalf("per-shard entries = %d, want 3", len(si.Shards))
	}
	var size int64
	var fractures int
	for i, s := range si.Shards {
		if s.Shard != i {
			t.Errorf("entry %d has shard index %d", i, s.Shard)
		}
		size += s.SizeBytes
		fractures += s.Fractures
	}
	if size != tab.SizeBytes() {
		t.Errorf("per-shard sizes sum %d != table size %d", size, tab.SizeBytes())
	}
	if fractures == 0 || fractures != tab.NumFractures() {
		t.Errorf("per-shard fractures sum %d, table reports %d (want equal and > 0)", fractures, tab.NumFractures())
	}
	m := db.Metrics()
	for i, s := range si.Shards {
		series := fmt.Sprintf(`upidb_shard_fractures{shard="%d",table="pershard"}`, i)
		alt := fmt.Sprintf(`upidb_shard_fractures{table="pershard",shard="%d"}`, i)
		got, ok := m.Gauges[series]
		if !ok {
			got, ok = m.Gauges[alt]
		}
		if !ok || int(got) != s.Fractures {
			t.Errorf("shard %d fracture gauge = %g (present=%v), want %d", i, got, ok, s.Fractures)
		}
	}
	for name := range m.Gauges {
		if strings.HasPrefix(name, "upidb_shard_tuples") {
			t.Errorf("tuple-count gauge %s still exposed", name)
		}
	}
}

// TestDBPrometheusExposition: one scrape covers engine, shard, query
// and streaming families in valid 0.0.4 text format.
func TestDBPrometheusExposition(t *testing.T) {
	db := mustCreate(t)
	tab := buildMetricsTable(t, db, "expo", 2)
	res, err := tab.Run(context.Background(), PTQ("", "v03", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
	}

	var b strings.Builder
	if err := db.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE upidb_fracture_inserts_total counter",
		"# TYPE upidb_shard_scatters_total counter",
		"# TYPE upidb_stream_yields_total counter",
		"# TYPE upidb_query_wall_seconds histogram",
		"# TYPE upidb_fracture_partitions gauge",
		"# TYPE upidb_shard_fractures gauge",
		"# TYPE upidb_bufferpool_misses_total counter",
		`upidb_query_wall_seconds_bucket{`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestBufferPoolMetrics: the bufferpool families count what the
// database's pools did. A query over emptied pools misses, the same
// query again only hits, and pools of one page evict; every scrape
// agrees with the file system's own counts.
func TestBufferPoolMetrics(t *testing.T) {
	db := mustCreate(t)
	tab := buildMetricsTable(t, db, "pool", 2)
	run := func(tab *Table) MetricsSnapshot {
		t.Helper()
		res, err := tab.Run(context.Background(), PTQ("", "v03", 0.05))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Collect()) == 0 {
			t.Fatal("query yielded nothing")
		}
		m := db.Metrics()
		ps := db.fs.PoolStats()
		for series, want := range map[string]int64{
			"upidb_bufferpool_hits_total":      ps.Hits,
			"upidb_bufferpool_misses_total":    ps.Misses,
			"upidb_bufferpool_evictions_total": ps.Evictions,
		} {
			if got := m.Counters[series]; got != want {
				t.Errorf("%s = %d, file system counted %d", series, got, want)
			}
		}
		return m
	}
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	before := db.Metrics()
	cold := run(tab)
	if got := counterDelta(before, cold, "upidb_bufferpool_misses_total"); got == 0 {
		t.Error("a query over emptied pools took no misses")
	}
	warm := run(tab)
	if got := counterDelta(cold, warm, "upidb_bufferpool_misses_total"); got != 0 {
		t.Errorf("the same query again took %d misses, want 0", got)
	}
	if got := counterDelta(cold, warm, "upidb_bufferpool_hits_total"); got == 0 {
		t.Error("the same query again took no hits")
	}
	if got := counterDelta(before, warm, "upidb_bufferpool_evictions_total"); got != 0 {
		t.Errorf("%d evictions from 32 MiB pools holding a small table", got)
	}

	onePagePools(db)
	tiny := buildMetricsTable(t, db, "tiny", 2)
	before = db.Metrics()
	after := run(tiny)
	if got := counterDelta(before, after, "upidb_bufferpool_evictions_total"); got == 0 {
		t.Error("one-page pools evicted nothing")
	}

	var b strings.Builder
	if err := db.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	final := db.fs.PoolStats()
	for _, want := range []string{
		fmt.Sprintf("upidb_bufferpool_hits_total %d\n", final.Hits),
		fmt.Sprintf("upidb_bufferpool_misses_total %d\n", final.Misses),
		fmt.Sprintf("upidb_bufferpool_evictions_total %d\n", final.Evictions),
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
