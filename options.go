package upidb

import (
	"fmt"

	"upidb/internal/fracture"
	"upidb/internal/obs"
	"upidb/internal/sim"
	"upidb/internal/storage"
)

// Option configures a database at Open/Create time or a single table
// at CreateTable/BulkLoadTable/OpenTable time. Database-level options
// (backend selection) are rejected at table scope; table-tuning options
// given at database scope become the defaults every table inherits.
type Option func(*config)

// optionScope is where a list of Options is being resolved. A
// database-level option checks it, so one passed to a table fails
// loudly at resolution time instead of being silently ignored.
type optionScope int

const (
	scopeDB optionScope = iota
	scopeTable
)

// config accumulates the effect of a list of Options. table holds the
// one canonical per-table configuration (fracture.Config); nothing is
// duplicated beside it.
type config struct {
	dir       string
	backend   storage.Backend
	table     fracture.Config
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

func (c *config) setErr(err error) {
	if c.err == nil {
		c.err = err
	}
}

// WithDiskBackend stores every byte in real files under path, with
// real fsync — the one-option durability switch. Tables default to
// Durable (WAL crash recovery); combine with
// WithDurability(false) to run on disk without the WAL.
func WithDiskBackend(path string) Option {
	return func(c *config) {
		if !c.dbOnly("WithDiskBackend") {
			return
		}
		c.dir = path
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
	}
}

// WithDurability overrides the backend's durability default (disk:
// on, memory: off). Durable tables WAL-log every Insert/Delete before
// acknowledging it, fsync each flush and merge before the manifest
// commits it, and recover all acknowledged writes on OpenTable. A
// non-durable table reopens with what it had flushed, each partition
// with the cutoff it was built with.
func WithDurability(on bool) Option {
	return func(c *config) {
		c.durable = &on
	}
}

// WithCutoff sets the cutoff threshold C (Section 3.1): alternatives
// with confidence below C live in the cutoff index instead of being
// duplicated in the heap file. 0 disables the cutoff index.
func WithCutoff(c float64) Option {
	return func(cfg *config) {
		cfg.table.UPI.Cutoff = c
	}
}

// WithBufferTuples sets the RAM insert-buffer capacity before an
// automatic flush into a new fracture (0 = manual Flush only).
func WithBufferTuples(n int) Option {
	return func(c *config) {
		c.table.BufferTuples = n
	}
}

// WithShards hash-partitions each table the option reaches across n
// independent stores: every shard owns its own RAM buffer, fracture
// set, merge pipeline, manifest and — when durable — WAL, so shards
// share no table lock, while a query merges every shard's partitions
// into one globally confidence-ordered stream. Whether that scales
// mutations and merges with cores is unmeasured: on a 2-core host one
// shard beats two on every wall-clock metric. At database scope it
// sets the default every table inherits; at table scope it overrides
// that default for one table. n must be at least 1 (1 = the unsharded
// engine, byte-identical layout and modeled costs); anything lower is
// rejected with ErrInvalidShards when the option list is resolved. On
// OpenTable the persisted shard count is authoritative — an explicit n
// that contradicts it errors rather than silently resharding.
func WithShards(n int) Option {
	return func(c *config) {
		if n < 1 {
			c.setErr(fmt.Errorf("%w: got %d", ErrInvalidShards, n))
			return
		}
		c.shards = n
	}
}

// WithAutoMerge starts the background merger on every table the
// option reaches: whenever a flush brings the fracture count to
// MaxFractures, the fractures are merged — into one new fracture while
// they weigh less than an eighth of the main UPI, into a new main
// otherwise (see AutoMergeOptions).
func WithAutoMerge(opts AutoMergeOptions) Option {
	return func(c *config) {
		am := opts
		c.autoMerge = &am
	}
}

// dbPoolBytes is the capacity of a database's one buffer pool, which
// every file of every table draws from; a cached page costs its bytes
// plus its parsed form. The index packages keep the paper's 512-page
// cold-cache pool per file, an experiment setting.
const dbPoolBytes = 256 << 20

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
	cfg := config{dir: dir}
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
	case cfg.dir != "":
		b, err := storage.NewDiskBackend(cfg.dir)
		if err != nil {
			return nil, err
		}
		backend = b
		onDisk = true
	default:
		backend = storage.NewMemBackend()
	}
	if cfg.durable == nil {
		cfg.table.Durable = onDisk
	} else {
		cfg.table.Durable = *cfg.durable
	}

	disk := sim.NewDisk(sim.DefaultParams())
	fs := storage.NewFSOn(disk, backend)
	pool := storage.NewPool(dbPoolBytes)
	fs.SetPool(pool)
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
		pool:          pool,
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
	reg.GaugeFunc("upidb_bufferpool_resident_bytes",
		"Bytes the database's buffer pool holds: cached pages and their parsed forms.",
		func() float64 { return float64(pool.Resident()) })
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
