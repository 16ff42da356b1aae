package upidb

import (
	"fmt"

	"upidb/internal/cupi"
	"upidb/internal/fracture"
	"upidb/internal/obs"
	"upidb/internal/sim"
	"upidb/internal/storage"
)

// Option configures a database at Open/Create time, a single discrete
// table at CreateTable/BulkLoadTable/OpenTable time, or a spatial
// table at BulkLoadSpatial time. Database-level options (backend
// selection, disk cost constants) are rejected at table and spatial
// scope; table-tuning options given at database scope become the
// defaults every table inherits, and are rejected at spatial scope;
// spatial options (page sizes) are valid only at spatial scope.
type Option func(*config)

// optionScope is where a list of Options is being resolved. Every
// option validates the scope it is applied at, so a misplaced option
// fails loudly at resolution time instead of being silently ignored.
type optionScope int

const (
	scopeDB optionScope = iota
	scopeTable
	scopeSpatial
)

// config accumulates the effect of a list of Options. table holds the
// one canonical per-table configuration (fracture.Config) and spatial
// the continuous-UPI configuration; nothing is duplicated beside them.
type config struct {
	params    sim.Params
	dir       string
	mem       bool
	backend   storage.Backend
	table     fracture.Config
	spatial   cupi.Options
	durable   *bool
	autoMerge *fracture.AutoMergeOptions
	shards    int
	scope     optionScope
	err       error
}

func (c *config) dbOnly(name string) bool {
	if c.scope != scopeDB {
		c.setErr(fmt.Errorf("upidb: %s is a database-level option; pass it to Open or Create", name))
		return false
	}
	return true
}

// tableScoped accepts db scope (sets the inherited default) and table
// scope (per-table override), and rejects spatial scope: a spatial
// table has no fractures or buffer to tune.
func (c *config) tableScoped(name string) bool {
	if c.scope == scopeSpatial {
		c.setErr(fmt.Errorf("upidb: %s is a table-level option; pass it to Create, Open or a discrete-table constructor", name))
		return false
	}
	return true
}

func (c *config) spatialOnly(name string) bool {
	if c.scope != scopeSpatial {
		c.setErr(fmt.Errorf("upidb: %s is a spatial-level option; pass it to BulkLoadSpatial", name))
		return false
	}
	return true
}

func (c *config) setErr(err error) {
	if c.err == nil {
		c.err = err
	}
}

// WithDiskBackend stores every byte in real files under path, with
// real fsync — the one-option durability switch. Tables default to
// Durable (WAL + manifest crash recovery); combine with
// WithDurability(false) to run on disk without the WAL.
func WithDiskBackend(path string) Option {
	return func(c *config) {
		if !c.dbOnly("WithDiskBackend") {
			return
		}
		c.dir = path
		c.mem = false
	}
}

// WithMemBackend stores every byte in memory (the default): runs are
// hermetic and modeled costs deterministic, and nothing survives the
// process unless WithDurability(true) pairs it with an
// externally-shared backend.
func WithMemBackend() Option {
	return func(c *config) {
		if !c.dbOnly("WithMemBackend") {
			return
		}
		c.mem = true
		c.backend = nil
	}
}

// WithBackend plugs in a caller-supplied storage backend. Crash tests
// use it to reopen a database over the bytes a "killed" instance left
// behind; custom implementations (encryption, tracing, quotas) slot in
// the same way.
func WithBackend(b storage.Backend) Option {
	return func(c *config) {
		if !c.dbOnly("WithBackend") {
			return
		}
		c.backend = b
		c.mem = false
	}
}

// WithDiskParams sets the simulated-disk cost constants (defaults:
// the paper's Table 6 values). The model prices every backend's I/O,
// including the real-disk backend's.
func WithDiskParams(p sim.Params) Option {
	return func(c *config) {
		if !c.dbOnly("WithDiskParams") {
			return
		}
		c.params = p
	}
}

// WithDurability overrides the backend's durability default (disk:
// on, memory: off). Durable tables WAL-log every Insert/Delete before
// acknowledging it, commit flushes and merges through an atomically
// renamed manifest, and recover all acknowledged writes on OpenTable.
func WithDurability(on bool) Option {
	return func(c *config) {
		if !c.tableScoped("WithDurability") {
			return
		}
		c.durable = &on
	}
}

// WithCutoff sets the cutoff threshold C (Section 3.1): alternatives
// with confidence below C live in the cutoff index instead of being
// duplicated in the heap file. 0 disables the cutoff index.
func WithCutoff(c float64) Option {
	return func(cfg *config) {
		if !cfg.tableScoped("WithCutoff") {
			return
		}
		cfg.table.UPI.Cutoff = c
	}
}

// WithMaxPointers caps pointers per secondary-index entry
// (0 = unlimited).
func WithMaxPointers(n int) Option {
	return func(c *config) {
		if !c.tableScoped("WithMaxPointers") {
			return
		}
		c.table.UPI.MaxPointers = n
	}
}

// WithBufferTuples sets the RAM insert-buffer capacity before an
// automatic flush into a new fracture (0 = manual Flush only).
func WithBufferTuples(n int) Option {
	return func(c *config) {
		if !c.tableScoped("WithBufferTuples") {
			return
		}
		c.table.BufferTuples = n
	}
}

// WithShards hash-partitions each table the option reaches across n
// independent stores, shard-per-core style: every shard owns its own
// RAM buffer, fracture set, merge pipeline and — when durable — WAL and
// manifest, so mutations and merges scale with
// cores while a query merges every shard's partitions into one globally
// confidence-ordered stream. At database scope it sets the default
// every table inherits; at table scope it overrides that default for
// one table. n must be at least 1 (1 = the unsharded engine,
// byte-identical layout and modeled costs); anything lower is rejected
// with ErrInvalidShards when the option list is resolved. On OpenTable
// the persisted shard count is authoritative — an explicit n that
// contradicts it errors rather than silently resharding.
func WithShards(n int) Option {
	return func(c *config) {
		if !c.tableScoped("WithShards") {
			return
		}
		if n < 1 {
			c.setErr(fmt.Errorf("%w: got %d", ErrInvalidShards, n))
			return
		}
		c.shards = n
	}
}

// WithAutoMerge starts the background merger on every table the
// option reaches: whenever the fractures' count or total size crosses
// the given thresholds, they are merged — into one new fracture while
// they weigh less than an eighth of the main UPI, into a new main
// otherwise (see AutoMergeOptions).
func WithAutoMerge(opts AutoMergeOptions) Option {
	return func(c *config) {
		if !c.tableScoped("WithAutoMerge") {
			return
		}
		am := opts
		c.autoMerge = &am
	}
}

// WithNodePageSize sets a spatial table's R-Tree node page size
// (default 4 KiB). Spatial scope only.
func WithNodePageSize(n int) Option {
	return func(c *config) {
		if !c.spatialOnly("WithNodePageSize") {
			return
		}
		c.spatial.NodePageSize = n
	}
}

// WithHeapPageSize sets a spatial table's clustered heap page size
// (default 64 KiB). Spatial scope only.
func WithHeapPageSize(n int) Option {
	return func(c *config) {
		if !c.spatialOnly("WithHeapPageSize") {
			return
		}
		c.spatial.HeapPageSize = n
	}
}

// tablePoolBytes is the buffer pool of every file a discrete table
// opens (main, fractures, merge outputs; heap, cutoff and secondary
// indexes alike). The index packages default to the paper's 512-page
// cold-cache pool, an experiment setting; a database serves repeated
// queries, so it sizes the pool in bytes instead: 4096 pages of 8 KiB,
// as much as a continuous-UPI heap file already gets.
const tablePoolBytes = 32 << 20

// markerFile is the database marker distinguishing Create from Open.
// It is sideband: charged to nobody.
const markerFile = "upidb.meta"

// Create initializes a new database. With dir == "" (and no backend
// option) everything lives in memory over the simulated disk — the
// deterministic experiment setting. A non-empty dir is shorthand for
// WithDiskBackend(dir): real files, real fsync, durable tables by
// default. Create refuses a location that already holds a database.
func Create(dir string, opts ...Option) (*DB, error) {
	return newDB(dir, true, opts)
}

// Open attaches to an existing database previously initialized with
// Create — typically Open(dir) over a disk directory, or
// Open("", WithBackend(b)) over a shared backend. Individual tables
// are then reloaded with OpenTable. Opening a location that holds no
// database is an error.
func Open(dir string, opts ...Option) (*DB, error) {
	return newDB(dir, false, opts)
}

func newDB(dir string, create bool, opts []Option) (*DB, error) {
	cfg := config{params: sim.DefaultParams(), dir: dir}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	var (
		backend storage.Backend
		onDisk  bool
	)
	switch {
	case cfg.backend != nil:
		backend = cfg.backend
	case cfg.dir != "" && !cfg.mem:
		b, err := storage.NewDiskBackend(cfg.dir)
		if err != nil {
			return nil, err
		}
		backend = b
		onDisk = true
	default:
		backend = storage.NewMemBackend()
	}
	cfg.table.UPI.CachePages = tablePoolBytes / storage.DefaultPageSize // tables' B+Trees use the default page size
	if cfg.durable == nil {
		cfg.table.Durable = onDisk
	} else {
		cfg.table.Durable = *cfg.durable
	}

	disk := sim.NewDisk(cfg.params)
	fs := storage.NewFSOn(disk, backend)
	fs.Sideband(markerFile)
	if create {
		if fs.Exists(markerFile) {
			return nil, fmt.Errorf("upidb: database already exists at %q; use Open", dir)
		}
		f := fs.Create(markerFile)
		if err := f.WriteAt([]byte("upidb 1\n"), 0); err != nil {
			return nil, err
		}
		if cfg.table.Durable {
			if err := f.Sync(); err != nil {
				return nil, err
			}
		}
	} else if !fs.Exists(markerFile) {
		return nil, fmt.Errorf("upidb: no database at %q; use Create", dir)
	}
	// One registry per DB: every table's engine metrics (inherited via
	// the defaults config) and the facade's query metrics report into
	// it.
	reg := obs.NewRegistry()
	cfg.table.Metrics = obs.NewEngineMetrics(reg)
	db := &DB{
		disk:          disk,
		fs:            fs,
		backend:       backend,
		defaults:      cfg.table,
		autoMerge:     cfg.autoMerge,
		defaultShards: cfg.shards,
		reg:           reg,
		met:           newDBMetrics(reg),
	}
	reg.GaugeFunc("upidb_fracture_partitions",
		"Partitions (main UPI + fractures, per shard) across attached tables.",
		db.totalPartitions)
	reg.CounterFunc("upidb_bufferpool_hits_total",
		"Page reads served from a buffer pool, over every file of the database.",
		func() int64 { return fs.PoolStats().Hits })
	reg.CounterFunc("upidb_bufferpool_misses_total",
		"Page reads that went to the backend; a read-ahead run counts once.",
		func() int64 { return fs.PoolStats().Misses })
	reg.CounterFunc("upidb_bufferpool_evictions_total",
		"Pages dropped from a full buffer pool.",
		func() int64 { return fs.PoolStats().Evictions })
	return db, nil
}

// tableConfig resolves the effective configuration of one table: the
// database defaults overridden by the per-table options. The returned
// shard count is 0 when neither scope set one (callers treat that as
// unsharded, or as accept-what-is-persisted on OpenTable).
func (db *DB) tableConfig(opts []Option) (fracture.Config, *fracture.AutoMergeOptions, int, error) {
	cfg := config{table: db.defaults, autoMerge: db.autoMerge, shards: db.defaultShards, scope: scopeTable}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return fracture.Config{}, nil, 0, cfg.err
	}
	if cfg.durable != nil {
		cfg.table.Durable = *cfg.durable
	}
	return cfg.table, cfg.autoMerge, cfg.shards, nil
}

// spatialConfig resolves the options of one BulkLoadSpatial call.
// Spatial tables inherit nothing from the database defaults — their
// only tunables are the page sizes — so resolution starts from zero
// and rejects every non-spatial option.
func spatialConfig(opts []Option) (cupi.Options, error) {
	cfg := config{scope: scopeSpatial}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return cupi.Options{}, cfg.err
	}
	return cfg.spatial, nil
}
