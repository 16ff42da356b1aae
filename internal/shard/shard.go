// Package shard hash-partitions one logical uncertain table across N
// independent fracture.Stores. Each shard owns a full vertical slice of
// the engine: its own RAM insert buffer, fracture set, merge pipeline,
// manifest and WAL (when durable), so shards share no table lock.
// Whether that scales writes and merges with cores is unmeasured: on a
// 2-core host one shard beats two on every wall-clock metric.
//
// Tuples are routed by a fixed hash of the primary ID: Insert and
// Delete touch exactly one shard, while a query snapshots every shard
// and runs the fracture layer's one k-way merge over all their
// partitions (see Prepare): a shard is nothing but a subset of the
// partitions that merge reads. A table with one shard is byte-identical
// to an unsharded fracture.Store — same file names, same modeled costs —
// so sharding is strictly opt-in.
//
// Shard i of table "name" stores its partitions under the store name
// "name.shard<i>" (a single-shard table uses plain "name"), which
// gives every shard its own WAL ("name.shard<i>.wal") and manifest for
// free: crash recovery is the unsharded machinery applied per shard.
// The shard count itself is persisted in a sideband "name.shards"
// file, so Open rediscovers the layout without being told.
package shard

import (
	"context"
	"fmt"
	"strings"

	"upidb/internal/fracture"
	"upidb/internal/obs"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
)

// Table is one logical table hash-partitioned across independent
// fracture stores. It is safe for concurrent use to exactly the degree
// its shards are: mutations lock only the owning shard, queries
// snapshot every shard independently.
type Table struct {
	fs     *storage.FS
	name   string
	stores []*fracture.Store
	met    *obs.EngineMetrics
}

// shardsFile is the sideband file persisting the shard count of one
// table (absent for single-shard tables, so legacy layouts reopen
// unchanged).
func shardsFile(name string) string { return name + ".shards" }

// storeName returns the fracture-store name of shard i. A single-shard
// table keeps the plain table name: its on-disk layout (and therefore
// its modeled costs, WAL name and manifest) is byte-identical to an
// unsharded store's.
func storeName(name string, i, n int) string {
	if n == 1 {
		return name
	}
	return fmt.Sprintf("%s.shard%d", name, i)
}

// shardOf routes a tuple ID to its owning shard: a splitmix64-style
// finalizer over the ID, reduced mod n. IDs are often sequential;
// the mixer spreads them uniformly regardless.
func shardOf(id uint64, n int) int {
	if n == 1 {
		return 0
	}
	x := id
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// writeShardsFile persists the shard count (multi-shard tables only).
// The file is sideband: charged to nobody.
func writeShardsFile(fs *storage.FS, name string, n int, durable bool) error {
	if n == 1 {
		return nil
	}
	file := shardsFile(name)
	fs.Sideband(file)
	f := fs.Create(file)
	if err := f.WriteAt([]byte(fmt.Sprintf("shards %d\n", n)), 0); err != nil {
		return err
	}
	if durable {
		return f.Sync()
	}
	return nil
}

// readShardsFile returns the persisted shard count, or 0 when the
// table has none recorded (legacy / single-shard layout).
func readShardsFile(fs *storage.FS, name string) (int, error) {
	file := shardsFile(name)
	fs.Sideband(file)
	if !fs.Exists(file) {
		return 0, nil
	}
	f, err := fs.Open(file)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, f.Size())
	if err := f.ReadAt(buf, 0); err != nil {
		return 0, err
	}
	var n int
	if _, err := fmt.Sscanf(strings.TrimSpace(string(buf)), "shards %d", &n); err != nil || n < 1 {
		return 0, fmt.Errorf("shard: corrupt shards file %q: %q", file, string(buf))
	}
	return n, nil
}

// newTable assembles the Table around per-shard stores.
func newTable(fs *storage.FS, name string, stores []*fracture.Store, cfg fracture.Config) *Table {
	met := cfg.Metrics
	if met == nil {
		met = &obs.EngineMetrics{}
	}
	return &Table{fs: fs, name: name, stores: stores, met: met}
}

// closeAll closes stores built so far when a constructor fails midway.
func closeAll(stores []*fracture.Store) {
	for _, s := range stores {
		if s != nil {
			_ = s.Close()
		}
	}
}

// New creates an empty sharded table with n >= 1 shards.
func New(fs *storage.FS, name, attr string, secAttrs []string, cfg fracture.Config, n int) (*Table, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: %d shards; a table needs at least 1", n)
	}
	if err := writeShardsFile(fs, name, n, cfg.Durable); err != nil {
		return nil, err
	}
	stores := make([]*fracture.Store, n)
	for i := range stores {
		s, err := fracture.NewStore(fs, storeName(name, i, n), attr, secAttrs, cfg)
		if err != nil {
			closeAll(stores)
			return nil, err
		}
		stores[i] = s
	}
	return newTable(fs, name, stores, cfg), nil
}

// BulkLoad creates a sharded table of n >= 1 shards, each bulk-built
// from the tuples it owns (sequential I/O only, per shard). The
// sim.Params argument is unused; the frozen benchmark
// (benchmark/ladder.go) still passes one.
func BulkLoad(fs *storage.FS, name, attr string, secAttrs []string, cfg fracture.Config, n int, _ sim.Params, tuples []*tuple.Tuple) (*Table, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: %d shards; a table needs at least 1", n)
	}
	if err := writeShardsFile(fs, name, n, cfg.Durable); err != nil {
		return nil, err
	}
	parts := partition(tuples, n)
	stores := make([]*fracture.Store, n)
	for i := range stores {
		s, err := fracture.BulkLoad(fs, storeName(name, i, n), attr, secAttrs, cfg, parts[i])
		if err != nil {
			closeAll(stores)
			return nil, err
		}
		stores[i] = s
	}
	return newTable(fs, name, stores, cfg), nil
}

// Open reloads a sharded table from storage. The persisted shard count
// is authoritative: passing n < 1 accepts whatever the table was
// created with (1 when nothing is recorded — the legacy unsharded
// layout), while an explicit n that contradicts the persisted count is
// an error rather than a silent resharding. Recovery is the unsharded
// machinery applied shard by shard: each shard replays its own WAL
// against its own manifest.
func Open(fs *storage.FS, name, attr string, secAttrs []string, cfg fracture.Config, n int) (*Table, error) {
	persisted, err := readShardsFile(fs, name)
	if err != nil {
		return nil, err
	}
	switch {
	case persisted == 0 && n < 1:
		n = 1
	case persisted == 0:
		if n != 1 {
			return nil, fmt.Errorf("shard: table %q was created with 1 shard; cannot open with %d (resharding is not supported)", name, n)
		}
	case n >= 1 && n != persisted:
		return nil, fmt.Errorf("shard: table %q was created with %d shards; cannot open with %d (resharding is not supported)", name, persisted, n)
	default:
		n = persisted
	}
	stores := make([]*fracture.Store, n)
	for i := range stores {
		s, err := fracture.Open(fs, storeName(name, i, n), attr, secAttrs, cfg)
		if err != nil {
			closeAll(stores)
			return nil, err
		}
		stores[i] = s
	}
	return newTable(fs, name, stores, cfg), nil
}

// partition splits tuples by owning shard, preserving order within
// each shard.
func partition(tuples []*tuple.Tuple, n int) [][]*tuple.Tuple {
	parts := make([][]*tuple.Tuple, n)
	for _, tup := range tuples {
		i := shardOf(tup.ID, n)
		parts[i] = append(parts[i], tup)
	}
	return parts
}

// Name returns the logical table name.
func (t *Table) Name() string { return t.name }

// NumShards returns the shard count.
func (t *Table) NumShards() int { return len(t.stores) }

// Store returns shard i's fracture store.
func (t *Table) Store(i int) *fracture.Store { return t.stores[i] }

// Attr returns the primary (clustered) uncertain attribute.
func (t *Table) Attr() string { return t.stores[0].Main().Attr() }

// SecondaryAttrs returns the secondary-indexed attributes.
func (t *Table) SecondaryAttrs() []string { return t.stores[0].Main().SecondaryAttrs() }

// Insert routes the tuple to its owning shard (buffered there; an
// upsert exactly like the unsharded store's).
func (t *Table) Insert(tup *tuple.Tuple) error {
	return t.stores[shardOf(tup.ID, len(t.stores))].Insert(tup)
}

// Delete routes the tombstone to the owning shard.
func (t *Table) Delete(id uint64) error {
	return t.stores[shardOf(id, len(t.stores))].Delete(id)
}

// each runs f over every shard and returns the first error, by shard
// index.
func (t *Table) each(f func(*fracture.Store) error) error {
	var first error
	for _, s := range t.stores {
		if err := f(s); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Flush flushes every shard's RAM buffer into a new fracture.
func (t *Table) Flush() error { return t.each((*fracture.Store).Flush) }

// Merge folds every shard's fractures back into its main UPI. Shards
// merge independently; with background merging each shard triggers on
// its own thresholds.
func (t *Table) Merge() error { return t.each((*fracture.Store).Merge) }

// Close closes every shard; the first error wins. Closing twice is
// safe.
func (t *Table) Close() error { return t.each((*fracture.Store).Close) }

// DropCaches empties every shard's buffer pools: the next query
// re-reads its pages.
func (t *Table) DropCaches() error { return t.each((*fracture.Store).DropCaches) }

// StartAutoMerge starts one background merger per shard.
func (t *Table) StartAutoMerge(opts fracture.AutoMergeOptions) error {
	return t.each(func(s *fracture.Store) error { return s.StartAutoMerge(opts) })
}

// StopAutoMerge stops every shard's background merger, returning the
// first background-merge error.
func (t *Table) StopAutoMerge() error { return t.each((*fracture.Store).StopAutoMerge) }

// NumFractures returns the fracture count summed over shards.
func (t *Table) NumFractures() int {
	n := 0
	for _, s := range t.stores {
		n += s.NumFractures()
	}
	return n
}

// SizeBytes returns the on-disk size summed over shards.
func (t *Table) SizeBytes() int64 {
	var n int64
	for _, s := range t.stores {
		n += s.SizeBytes()
	}
	return n
}

// BufferedInserts returns the RAM-buffered tuple count summed over
// shards.
func (t *Table) BufferedInserts() int {
	n := 0
	for _, s := range t.stores {
		n += s.BufferedInserts()
	}
	return n
}

// ShardStats is one shard's slice of the table: the per-shard
// breakdown operators read to spot skew (hot shards, lagging merges)
// that the table-level sums hide.
type ShardStats struct {
	Shard           int
	Fractures       int
	BufferedInserts int
	SizeBytes       int64
}

// PerShardStats reports every shard's individual state, in shard
// order. Each shard is read independently (no cross-shard lock), so
// the breakdown is approximate under concurrent writes — exactly as
// approximate as each per-shard counter already is.
func (t *Table) PerShardStats() []ShardStats {
	out := make([]ShardStats, len(t.stores))
	for i, s := range t.stores {
		out[i] = ShardStats{
			Shard:           i,
			Fractures:       s.NumFractures(),
			BufferedInserts: s.BufferedInserts(),
			SizeBytes:       s.SizeBytes(),
		}
	}
	return out
}

// ShardFractures returns shard i's current fracture count.
func (t *Table) ShardFractures(i int) int { return t.stores[i].NumFractures() }

// PlanPTQCached is a no-op kept for the frozen benchmark's planner
// rungs (benchmark/ladder.go), which time it and discard its result.
// Queries have one fixed route and nothing plans them.
func (t *Table) PlanPTQCached(attr, value string, qt float64) (struct{}, bool, error) {
	return struct{}{}, false, nil
}

// Prepared and Stream are the fracture layer's: a sharded query is one
// merge over every shard's partitions, not a merge of per-shard merges.
type (
	Prepared = fracture.Prepared
	Stream   = fracture.Stream
)

// Prepare counts and traces one dispatch per shard, then hands every
// shard's store to the one merge: fracture.PrepareAll compiles req
// once, pins a consistent snapshot on each shard and stamps scan and
// yield events with the shard index.
func (t *Table) Prepare(ctx context.Context, req fracture.Req) (*Prepared, error) {
	for i := range t.stores {
		t.met.Scatters.Inc()
		if req.Trace != nil {
			req.Trace(fracture.TraceEvent{Kind: fracture.TraceDispatch, Shard: i, Detail: storeName(t.name, i, len(t.stores))})
		}
	}
	return fracture.PrepareAll(ctx, t.stores, req)
}
