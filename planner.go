package upidb

import "upidb/internal/shard"

// How a query was routed, reported as QueryInfo.PlanSource and in the
// first line of Explain output.
const (
	// PlanSourceHeuristic marks the fixed routing rule every query
	// follows unless it asks for the planner: primary PTQ → clustered
	// UPI scan, secondary PTQ → tailored secondary access, top-k → heap
	// scan; circle → R-Tree probe, segment → segment index.
	PlanSourceHeuristic = "heuristic"
	// PlanSourceForced marks cost-based routing demanded by WithPlanner.
	PlanSourceForced = "forced"
)

// BuildStats replaces the table's statistics — the per-attribute
// value/probability histograms of paper Section 6.1 that WithPlanner
// and WithExplain cost plans from — with histograms built from sample.
// Statistics have two producers and no maintainer: BulkLoadTable builds
// them from the tuples it loads, BuildStats replaces them; no insert,
// delete, flush or merge touches them, so they describe the sample, not
// the table, until the next call. A table created empty or reopened has
// none (WithPlanner answers ErrNoStats) until BuildStats.
//
// With explicit attrs only those attributes get a histogram and every
// other attribute loses its own; naming an attribute the table does not
// index is an error. On a sharded table each shard's histograms are
// built from the sample tuples it owns. The replacement is atomic and
// safe beside concurrent queries and writes: a WithPlanner run costs
// from the old statistics or the new ones, never a mixture.
func (t *Table) BuildStats(sample []*Tuple, attrs ...string) error {
	return t.shards.BuildStats(sample, attrs...)
}

// StatsInfo is a snapshot of a table's state by shard, and whether the
// opt-in planner has anything to cost from.
type StatsInfo struct {
	// Seeded reports whether every shard holds a histogram for the
	// primary attribute (from a bulk load or BuildStats).
	Seeded bool
	// Shards is the per-shard breakdown (fractures, buffered inserts,
	// size), in shard order — the view that exposes skew. A one-shard
	// table reports one entry describing the whole table.
	Shards []ShardStatsInfo
}

// ShardStatsInfo is one shard's slice of a table's state.
type ShardStatsInfo = shard.ShardStats

// StatsInfo reports whether the table has statistics and the state of
// each shard.
func (t *Table) StatsInfo() StatsInfo {
	return StatsInfo{
		Seeded: t.shards.HasHistogram(t.shards.Attr()),
		Shards: t.shards.PerShardStats(),
	}
}
