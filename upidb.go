// Package upidb is a Go implementation of UPI — the Uncertain Primary
// Index of Kimura, Madden and Zdonik (PVLDB 3(1), 2010) — together
// with every substrate the paper builds on: a page-based B+Tree and
// R-Tree over a simulated disk, probabilistic inverted indexes (PII),
// U-Trees, cutoff indexes, multi-pointer secondary indexes with
// tailored access, fractured UPIs with LSM-style merging, and the
// paper's cost models.
//
// The package root is the public facade. A DB owns a simulated disk
// and file system; tables created through it are fractured UPIs (the
// paper's full-featured variant: RAM insert buffer, sequential flush,
// k-way merge). Probabilistic threshold queries (PTQs), secondary
// PTQs with tailored access and top-k queries are all first-class.
//
// Quick start:
//
//	db, _ := upidb.Create("") // in-memory, simulated disk
//	authors, _ := db.CreateTable("authors", "Institution",
//		[]string{"Country"}, upidb.WithCutoff(0.1))
//	authors.Insert(&upidb.Tuple{
//		ID: 1, Existence: 0.9,
//		Unc: []upidb.UncField{{Name: "Institution", Dist: upidb.Discrete{
//			{Value: "Brown", Prob: 0.8}, {Value: "MIT", Prob: 0.2},
//		}}, {Name: "Country", Dist: upidb.Discrete{{Value: "US", Prob: 1}}}},
//	})
//	// PTQ on the primary attribute: confidence >= 0.1.
//	res, _ := authors.Run(ctx, upidb.PTQ("", "MIT", 0.1))
//	for r, _ := range res.All() { ... }
//
// A database is constructed with Create (new) or Open (existing) plus
// functional options. The default backend keeps every byte in memory
// over the deterministic simulated disk — the paper's experiment
// setting. Durability is one option away:
//
//	db, _ := upidb.Create("/var/data/upi") // or Create("", upidb.WithDiskBackend(dir))
//
// stores bytes in real files and makes every table durable: inserts
// and deletes are written to a per-table write-ahead log and fsynced
// before they are acknowledged, flushes and merges commit through an
// atomically renamed manifest, and OpenTable replays the WAL so every
// acknowledged write survives a crash. See README.md ("Durability &
// backends") for the recovery contract.
//
// Every query goes through one entry point, Table.Run: a Query
// descriptor (PTQ or TopKQuery, with chainable per-query options)
// executed under a context.Context, returning a Results handle that
// hands the answers out as they arrive (All) or drains them into a
// slice (Collect). Either way there is one executor: per-partition
// pull-based cursors feed a k-way merge that yields the globally
// next-best result while slower partitions are still scanning, and a
// top-k query stops scanning — and stops charging modeled I/O — at its
// k-th result. Cancellation and deadlines propagate through every
// layer — a cancelled query stops between heap pages, is charged the
// modeled I/O it consumed and fails with ErrCanceled. Errors are typed
// sentinels
// (ErrUnknownAttr, ErrCanceled, ErrClosed, ErrStreamConsumed) shared by
// all layers.
//
// Spatial tables (the paper's Section 5 continuous UPI over uncertain
// 2-D observations, BulkLoadSpatial) share the same regime: Circle and
// Segment descriptors executed by SpatialTable.Run with identical
// streaming, routing and error semantics.
//
// Every query has one route, a fixed rule (primary PTQ and top-k →
// clustered UPI scan, secondary PTQ → tailored access; circle → R-Tree
// probe, segment → segment index); Run reads no statistics and prices
// nothing. The paper's cost models (Section 6) serve the other use the
// paper names, selecting tuning parameters (internal/costmodel,
// examples/tuning): cost-based routing priced a seeking disk, and on
// the disk backend with a warm OS cache the fixed rule was the faster
// route on every shape a workload issues (README, "Routing").
//
// All I/O is charged to a deterministic disk model using the paper's
// cost constants (10 ms seek, 20 ms/MB read, 50 ms/MB write), so query
// costs reported by Stats are reproducible modeled times rather than
// wall-clock noise. See README.md for the architecture overview and
// the experiment harness (cmd/upibench) that regenerates the paper's
// evaluation.
//
// # Concurrency
//
// A DB and its tables are safe for concurrent use: any number of
// goroutines may run queries while others insert, delete, flush and
// merge. Queries snapshot the partition set (main UPI + fractures +
// RAM buffer) under a read lock and scan the immutable on-disk
// partitions outside it, so readers never block each other; inserts
// and deletes block them only momentarily, while a flush holds the
// write lock for the duration of the fracture build (one sequential
// write) and a merge builds its new generation without the lock.
//
// Each query's first pull opens its partition cursors — of every
// shard, in one merge — one after another in partition order on the
// caller's goroutine; later pulls are demand-driven. No query starts a
// goroutine. Each partition records its I/O on a private tape that is
// replayed against the simulated disk as one batch, so a query's
// modeled cost is its own, whatever other queries and merges read
// meanwhile.
//
// Merging can run in the background (Table.StartAutoMerge): when a
// flush brings the fracture count to a threshold, a goroutine folds
// the fractures into a new main generation — or, while they weigh less
// than an eighth of main, into one new fracture — and swaps it in
// atomically.
// In-flight queries finish on the generation they started on; replaced
// partition files are reference-counted and removed only after the
// last such query completes.
package upidb

import (
	"fmt"
	"sync"
	"time"

	"upidb/internal/cupi"
	"upidb/internal/fracture"
	"upidb/internal/prob"
	"upidb/internal/shard"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
)

// Re-exported data-model types. These are aliases, so values flow
// freely between the facade and the internal packages.
type (
	// Tuple is one uncertain row: existence probability, deterministic
	// fields, uncertain attributes and an opaque payload.
	Tuple = tuple.Tuple
	// DetField is a deterministic named string field.
	DetField = tuple.DetField
	// UncField is an uncertain attribute with a discrete distribution.
	UncField = tuple.UncField
	// Alternative is one possible value of an uncertain attribute.
	Alternative = prob.Alternative
	// Discrete is a discrete distribution over alternatives, sorted by
	// decreasing probability.
	Discrete = prob.Discrete
	// Observation is an uncertain 2-D point (GPS-style) record.
	Observation = tuple.Observation
	// Point is a 2-D location.
	Point = prob.Point
	// ConstrainedGaussian is a truncated isotropic Gaussian in 2-D.
	ConstrainedGaussian = prob.ConstrainedGaussian
	// SpatialResult is a spatial query answer: observation plus
	// appearance probability.
	SpatialResult = cupi.Result
	// DiskStats is a snapshot of simulated-disk activity.
	DiskStats = sim.Stats
)

// NewDiscrete builds a validated discrete distribution from
// alternatives, merging duplicates and sorting by probability.
func NewDiscrete(alts []Alternative) (Discrete, error) { return prob.NewDiscrete(alts) }

// DB owns a disk model, a storage backend and the tables created on
// them. Construct one with Create or Open.
type DB struct {
	disk    *sim.Disk
	fs      *storage.FS
	backend storage.Backend
	// pool is the buffer pool every file of the database draws from.
	pool *storage.Pool

	// defaults is the table configuration every CreateTable /
	// BulkLoadTable / OpenTable starts from, as resolved from the
	// database-level options; autoMerge, when set, starts the
	// background merger on every table; defaultShards is the shard
	// count tables inherit (0 = unsharded).
	defaults      fracture.Config
	autoMerge     *fracture.AutoMergeOptions
	defaultShards int

	// reg is the database's metrics registry; every table's engine
	// metrics and the facade's query metrics report
	// into it (see Metrics, WritePrometheus). met holds the
	// pre-resolved facade handles.
	reg *MetricsRegistry
	met *dbMetrics

	mu       sync.Mutex
	closed   bool
	tables   []*Table
	byName   map[string]*Table
	spatials []*SpatialTable
}

// DiskStats returns the accumulated simulated-disk activity.
func (db *DB) DiskStats() DiskStats { return db.disk.Stats() }

// TotalSizeBytes returns the total on-disk size of all files.
func (db *DB) TotalSizeBytes() int64 { return db.fs.TotalSize() }

// checkOpen fails with ErrClosed once the DB is closed.
func (db *DB) checkOpen() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return nil
}

// attachTable starts the background merger (when configured) on a
// freshly built sharded table and registers it with the DB under its
// name.
func (db *DB) attachTable(shards *shard.Table, am *AutoMergeOptions) (*Table, error) {
	t := &Table{db: db, shards: shards}
	if am != nil {
		if err := shards.StartAutoMerge(*am); err != nil {
			_ = shards.Close()
			return nil, err
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		// Lost the race against Close: undo and refuse.
		_ = shards.Close()
		return nil, ErrClosed
	}
	if db.byName == nil {
		db.byName = make(map[string]*Table)
	}
	db.tables = append(db.tables, t)
	db.byName[shards.Name()] = t
	db.met.registerShardGauges(shards)
	return t, nil
}

// Table returns the attached table with the given name, or nil if no
// table of that name has been created or opened on this DB. When a
// name was attached more than once (a table closed and reopened), the
// most recent attachment wins.
func (db *DB) Table(name string) *Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.byName[name]
}

// CreateTable creates an empty fractured-UPI table clustered on the
// uncertain attribute primaryAttr, with secondary indexes on secAttrs.
// With WithShards(n) the table is hash-partitioned by tuple ID across
// n independent stores; see README "Serving & sharding".
func (db *DB) CreateTable(name, primaryAttr string, secAttrs []string, opts ...Option) (*Table, error) {
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	cfg, am, shards, err := db.tableConfig(opts)
	if err != nil {
		return nil, err
	}
	st, err := shard.New(db.fs, name, primaryAttr, secAttrs, cfg, max(shards, 1))
	if err != nil {
		return nil, err
	}
	return db.attachTable(st, am)
}

// BulkLoadTable creates a fractured-UPI table whose main partitions
// are bulk-built from tuples with sequential I/O only (each shard
// receives the tuples it owns).
func (db *DB) BulkLoadTable(name, primaryAttr string, secAttrs []string, tuples []*Tuple, opts ...Option) (*Table, error) {
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	cfg, am, shards, err := db.tableConfig(opts)
	if err != nil {
		return nil, err
	}
	st, err := shard.BulkLoad(db.fs, name, primaryAttr, secAttrs, cfg, max(shards, 1), db.disk.Params(), tuples)
	if err != nil {
		return nil, err
	}
	return db.attachTable(st, am)
}

// OpenTable reloads a table previously created on this DB's storage.
// Each shard's manifest names its authoritative partitions, and each
// partition reopens with the cutoff and pointer cap it was built with;
// WithCutoff applies to future flushes and the next merge. On a durable
// table every acknowledged write survives: each shard's write-ahead log
// replays the RAM insert buffer and pending deletes. On a non-durable
// table only flushed state survives. The persisted shard count is
// authoritative: omitting WithShards accepts whatever the table was
// created with, and a contradictory explicit count is an error.
func (db *DB) OpenTable(name, primaryAttr string, secAttrs []string, opts ...Option) (*Table, error) {
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	cfg, am, shards, err := db.tableConfig(opts)
	if err != nil {
		return nil, err
	}
	st, err := shard.Open(db.fs, name, primaryAttr, secAttrs, cfg, shards)
	if err != nil {
		return nil, err
	}
	return db.attachTable(st, am)
}

// Close closes the database: every table is closed — stopping
// background mergers, failing subsequent queries and mutations with
// ErrClosed — and any later CreateTable, BulkLoadTable, OpenTable or
// BulkLoadSpatial on this DB fails with ErrClosed too. In-flight
// queries finish normally on the snapshots they hold. The storage
// backend is closed last, releasing any real file handles a disk
// backend holds. Close returns the first error (background-merge
// failures surface here, like Table.Close); closing twice is safe.
func (db *DB) Close() error {
	db.mu.Lock()
	alreadyClosed := db.closed
	db.closed = true
	tables := db.tables
	spatials := db.spatials
	db.mu.Unlock()
	var first error
	for _, t := range tables {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, s := range spatials {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	if !alreadyClosed {
		if err := db.backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Table is an uncertain table clustered by a UPI. All mutations are
// buffered in RAM and reach disk on Flush (or automatically when the
// buffer fills); queries always see the freshest data.
//
// A table built WithShards(n) is hash-partitioned by tuple ID across n
// independent stores: mutations touch only the owning shard, a query
// merges every shard's partitions into one globally confidence-ordered
// stream, and per-shard costs aggregate transparently in QueryInfo. The default is one shard — the unsharded
// engine, byte-identical layout and costs.
type Table struct {
	db     *DB
	shards *shard.Table
}

// Name returns the table's name, as given at creation.
func (t *Table) Name() string { return t.shards.Name() }

// NumShards returns the number of independent stores the table is
// hash-partitioned across (1 = unsharded).
func (t *Table) NumShards() int { return t.shards.NumShards() }

// PrimaryAttr returns the primary (clustered) uncertain attribute.
func (t *Table) PrimaryAttr() string { return t.shards.Attr() }

// SecondaryAttrs returns the secondary-indexed attributes.
func (t *Table) SecondaryAttrs() []string { return t.shards.SecondaryAttrs() }

// Insert adds or replaces a tuple (buffered in the owning shard).
// Replacement is a true upsert: an older version of the same ID —
// buffered or already on disk — is superseded immediately at query
// time and dropped physically by the next merge.
func (t *Table) Insert(tup *Tuple) error { return t.shards.Insert(tup) }

// Delete removes the tuple with the given ID (buffered in the owning
// shard). Like Insert, it fails with ErrClosed once the table is
// closed.
func (t *Table) Delete(id uint64) error { return t.shards.Delete(id) }

// Flush writes buffered changes out as a new fracture (per shard).
func (t *Table) Flush() error { return t.shards.Flush() }

// Merge folds all fractures back into the main UPI with one
// sequential pass per shard, restoring query performance. Unlike the
// background merger, it always rewrites main.
func (t *Table) Merge() error { return t.shards.Merge() }

// Close stops the table's background mergers (if any) and marks the
// table closed: every subsequent query and mutation fails with
// ErrClosed. In-flight queries finish normally on the snapshot they
// hold. Close returns the first background-merge error, like
// StopAutoMerge; closing twice is safe.
func (t *Table) Close() error { return t.shards.Close() }

// AutoMergeOptions tune the background merger of a table. Its one
// trigger is MaxFractures: a merge it starts folds the fractures into
// one new fracture while their on-disk bytes stay below an eighth of
// main's, and rewrites main from then on. A merge with fewer than two
// fractures to fold always rewrites main.
type AutoMergeOptions = fracture.AutoMergeOptions

// StartAutoMerge launches one background goroutine per shard that
// merges the shard whenever its fracture count reaches MaxFractures:
// into one new fracture while the fractures weigh less than an eighth
// of main, into a new main otherwise. The merger checks the count when
// it starts, after every flush and after each of its own merges; it
// does not poll. Queries keep running during a background merge; the
// swap to the merged partition is atomic and in-flight queries finish
// on the generation they started on.
func (t *Table) StartAutoMerge(opts AutoMergeOptions) error { return t.shards.StartAutoMerge(opts) }

// StopAutoMerge stops the background mergers, waiting for in-progress
// merges to finish, and returns the first error a background merge hit
// (nil if none).
func (t *Table) StopAutoMerge() error { return t.shards.StopAutoMerge() }

// NumFractures returns the current fracture count summed over shards
// (merge when this grows large; see the cost model).
func (t *Table) NumFractures() int { return t.shards.NumFractures() }

// SizeBytes returns the table's total on-disk size over all shards.
func (t *Table) SizeBytes() int64 { return t.shards.SizeBytes() }

// DropCaches takes the table's pages out of the database's buffer
// pool: the next query re-reads them.
func (t *Table) DropCaches() error { return t.shards.DropCaches() }

// StatsInfo is a snapshot of a table's state by shard.
type StatsInfo struct {
	// Shards is the per-shard breakdown (fractures, buffered inserts,
	// size), in shard order — the view that exposes skew. A one-shard
	// table reports one entry describing the whole table.
	Shards []ShardStatsInfo
}

// ShardStatsInfo is one shard's slice of a table's state.
type ShardStatsInfo = shard.ShardStats

// StatsInfo reports the state of each shard.
func (t *Table) StatsInfo() StatsInfo { return StatsInfo{Shards: t.shards.PerShardStats()} }

// QueryInfo reports the modeled cost of one query and what it
// touched.
type QueryInfo struct {
	// ModeledTime is the modeled disk time charged for this query's
	// own I/O (exact even under concurrency — it is the sum of the
	// query's replayed partition tapes). The buffer pools are shared, so
	// a page another reader cached is a free hit.
	ModeledTime time.Duration
	// HeapEntries is the number of heap-file entries scanned.
	HeapEntries int
	// CutoffPointers is the number of cutoff-index pointers chased.
	CutoffPointers int
	// Partitions is 1 (main UPI) + the number of fractures consulted.
	Partitions int
	// BufferHits counts results served from the RAM insert buffer.
	BufferHits int
	// Plan names the fixed rule's route for the query (WithExplain runs
	// only; empty on an executed run).
	Plan string
	// Candidates is the number of R-Tree candidates or segment-index
	// entries a spatial query examined (spatial Run only).
	Candidates int
	// Explain describes the route (WithExplain runs only).
	Explain string
}

func (q QueryInfo) String() string {
	s := fmt.Sprintf("modeled=%v heapEntries=%d cutoffPointers=%d partitions=%d",
		q.ModeledTime, q.HeapEntries, q.CutoffPointers, q.Partitions)
	if q.Plan != "" {
		s += " plan=" + q.Plan
	}
	return s
}

// SpatialTable is a continuous UPI (Section 5) over uncertain 2-D
// observations, with a secondary index on the uncertain segment
// attribute. Like discrete tables it is safe for concurrent use and
// serves every query through Run(ctx, Query) — Circle and Segment
// descriptors with the same routing contract as Table.Run: one fixed
// route per query kind, with the same WithExplain behaviour.
//
// Its contract for writes, lifetime and streams:
//
//   - Inserts are all-or-nothing by tombstone: an Insert that fails
//     after appending its heap row deletes the row, which hides every
//     index entry it wrote. If that delete fails too, the table closes
//     itself, and the Insert's error wraps ErrClosed.
//   - It is not durable: there is no WAL, no manifest and no
//     OpenSpatial, so it does not survive DB.Close.
//   - A streaming All holds the table's read lock until it is drained
//     or broken out of, so Insert waits for it.
type SpatialTable struct {
	db  *DB
	tab *cupi.Table
}

// BulkLoadSpatial builds a continuous UPI from observations: the
// U-Tree with its heap clustered in R-Tree leaf order, 4 KiB node pages
// and 64 KiB heap pages (paper Figure 2). Its three files draw from
// the database's one buffer pool, as a discrete table's do. Like table
// creation, it fails with ErrClosed once the DB is closed.
func (db *DB) BulkLoadSpatial(name string, obs []*Observation) (*SpatialTable, error) {
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	tab, err := cupi.BulkBuild(db.fs, name, obs, cupi.Options{})
	if err != nil {
		return nil, err
	}
	s := &SpatialTable{db: db, tab: tab}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		// Lost the race against Close: undo and refuse.
		_ = tab.Close()
		return nil, ErrClosed
	}
	db.spatials = append(db.spatials, s)
	return s, nil
}

// Insert adds one observation after the initial load, all or nothing
// (see SpatialTable). It fails with ErrClosed once the table is closed.
func (s *SpatialTable) Insert(o *Observation) error { return s.tab.Insert(o) }

// Close marks the spatial table closed: every subsequent query and
// Insert fails with ErrClosed, matching the DB.Close contract of
// discrete tables. In-flight queries finish normally. Closing twice is
// safe.
func (s *SpatialTable) Close() error { return s.tab.Close() }

// SizeBytes returns the spatial table's total on-disk size.
func (s *SpatialTable) SizeBytes() int64 { return s.tab.SizeBytes() }

// DropCaches takes the table's pages out of the database's buffer pool.
func (s *SpatialTable) DropCaches() error { return s.tab.DropCaches() }
