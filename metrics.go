package upidb

import (
	"io"
	"strconv"

	"upidb/internal/obs"
	"upidb/internal/shard"
)

// Observability types re-exported from internal/obs, so callers can
// hold snapshots without importing an internal package.
type (
	// MetricsSnapshot is a typed point-in-time view of every metric
	// series the database maintains, keyed by the canonical series name
	// (`name` or `name{label="value",...}`).
	MetricsSnapshot = obs.Snapshot
	// MetricsHistogram is one histogram series inside a snapshot.
	MetricsHistogram = obs.HistogramSnapshot
	// MetricsRegistry is the registry a DB reports into; internal
	// consumers (the HTTP server) register their own families on it so
	// one scrape covers every layer.
	MetricsRegistry = obs.Registry
)

// dbMetrics holds the facade-level metric handles: routing and
// admission counters incremented where the decisions are made, and the
// observed-wall-clock vs modeled-cost histograms the admission
// calibration follow-on needs. Engine-level metrics (inserts, WAL,
// merges, scatter/scan/yield counts, ...) live in obs.EngineMetrics
// and reach the same registry through fracture.Config.Metrics.
type dbMetrics struct {
	routes        *obs.CounterVec // {source}: heuristic | forced
	admissions    *obs.CounterVec // {verdict}: admitted | refused | unpriced
	plannedCost   *obs.Histogram  // modeled cost of the chosen plan, at admission
	partialDrains *obs.Counter    // streaming All abandoned mid-drain

	queryWall    *obs.HistogramVec // {kind}: observed end-to-end wall-clock
	queryModeled *obs.HistogramVec // {kind}: modeled disk time actually charged

	shardFractures *obs.GaugeFuncVec // {table,shard}: current fracture count
}

// newDBMetrics resolves the facade metric families on r. Nil-safe: a
// nil registry yields an all-no-op bundle.
func newDBMetrics(r *obs.Registry) *dbMetrics {
	return &dbMetrics{
		routes:        r.CounterVec("upidb_planner_route_total", "Executed queries by routing decision.", "source"),
		admissions:    r.CounterVec("upidb_admission_total", "Admission-control verdicts for executed queries.", "verdict"),
		plannedCost:   r.Histogram("upidb_planner_modeled_cost_seconds", "Modeled cost of the chosen plan at admission time.", obs.CostBuckets),
		partialDrains: r.Counter("upidb_stream_partial_drains_total", "Streaming iterations abandoned before exhaustion."),
		queryWall:     r.HistogramVec("upidb_query_wall_seconds", "Observed end-to-end query wall-clock, by plan/query kind.", obs.WallBuckets, "kind"),
		queryModeled:  r.HistogramVec("upidb_query_modeled_seconds", "Modeled disk time charged per query, by plan/query kind.", obs.CostBuckets, "kind"),
		shardFractures: r.GaugeFuncVec("upidb_shard_fractures", "Current fracture count per shard.",
			"table", "shard"),
	}
}

// registerShardGauges binds the per-shard fracture gauge functions for
// one table. The gauges are evaluated at scrape time, so the write path
// never maintains them; re-attaching a table (close + reopen) replaces
// the bindings.
func (m *dbMetrics) registerShardGauges(shards *shard.Table) {
	if m == nil {
		return
	}
	name := shards.Name()
	for i := 0; i < shards.NumShards(); i++ {
		m.shardFractures.Register(func() float64 { return float64(shards.ShardFractures(i)) }, name, strconv.Itoa(i))
	}
}

// Metrics returns a typed snapshot of every metric series the database
// maintains — engine (fracture/WAL/merge), shard, planner/admission
// and streaming families, plus whatever internal consumers (the HTTP
// server) registered on the same registry.
func (db *DB) Metrics() MetricsSnapshot { return db.reg.Snapshot() }

// WritePrometheus writes every metric series in Prometheus text
// exposition format (version 0.0.4) — the payload `GET /metrics`
// serves.
func (db *DB) WritePrometheus(w io.Writer) error { return db.reg.WritePrometheus(w) }

// MetricsRegistry exposes the DB's metric registry so co-located
// components (the HTTP server) can register their own families and
// appear in the same snapshot and scrape.
func (db *DB) MetricsRegistry() *MetricsRegistry { return db.reg }

// totalPartitions counts the partitions (main UPI + fractures, per
// shard) across every attached table — the scrape-time value of the
// upidb_fracture_partitions gauge.
func (db *DB) totalPartitions() float64 {
	db.mu.Lock()
	tables := append([]*Table(nil), db.tables...)
	db.mu.Unlock()
	n := 0
	for _, t := range tables {
		n += t.NumShards() + t.NumFractures()
	}
	return float64(n)
}
