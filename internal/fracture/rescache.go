package fracture

import (
	"slices"
	"sync"

	"upidb/internal/obs"
	"upidb/internal/upi"
)

// resultCache is the opt-in point-result cache of one store
// (Config.ResultCache > 0): full result sets of PTQ and secondary-PTQ
// queries, keyed by shape, invalidated wholesale by any write to the
// store. Because every shard owns its own store, invalidation is per
// shard by construction — a write to one shard leaves the other
// shards' caches intact.
//
// Correctness under concurrency hangs on the epoch: every write bumps
// it (inside the store's critical section), and a query records the
// epoch *before* pinning its snapshot. The entry is committed only if
// the epoch is still current when the drain completes, so a result
// set that raced a write — whichever side of the snapshot the write
// landed on — is never stored. A hit replays the stored results and
// statistics verbatim: no snapshot, no pins, no modeled I/O, which is
// also why the stored Stats (including ModeledTime) are byte-identical
// to what the uncached execution reported.
type resultCache struct {
	met *obs.EngineMetrics

	mu      sync.Mutex
	cap     int
	epoch   uint64
	entries map[resKey]resEntry
}

// resKey is one cacheable query shape against one store. Parallelism
// is deliberately absent: results, statistics and modeled cost are
// identical at every fan-out.
type resKey struct {
	kind     Kind
	attr     string
	value    string
	qt       float64
	tailored bool
}

type resEntry struct {
	results []upi.Result
	stats   Stats
}

func newResultCache(capacity int, met *obs.EngineMetrics) *resultCache {
	return &resultCache{
		met:     met,
		cap:     capacity,
		entries: make(map[resKey]resEntry),
	}
}

// cacheable reports whether req's results may be served from / stored
// into the cache: point lookups only. Top-k is excluded (its result
// depends on k, and the stream cancels scans mid-flight) and scans are
// the planner's saturation escape hatch, not repeated point traffic.
func cacheable(req Req) bool {
	return req.Kind == KindPTQ || req.Kind == KindSecondary
}

func reqKey(req Req) resKey {
	return resKey{kind: req.Kind, attr: req.Attr, value: req.Value, qt: req.QT, tailored: req.Tailored}
}

// lookup returns the cached results for k, or the current epoch for
// the miss path to commit against. Nil-safe; a nil cache always
// misses with epoch 0.
func (rc *resultCache) lookup(k resKey) ([]upi.Result, Stats, uint64, bool) {
	if rc == nil {
		return nil, Stats{}, 0, false
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e, ok := rc.entries[k]
	if !ok {
		rc.met.ResultCacheMisses.Inc()
		return nil, Stats{}, rc.epoch, false
	}
	rc.met.ResultCacheHits.Inc()
	// Stored sets are immutable and the one consumer, Stream, replays
	// them row by row, so hits share the slice.
	return e.results, e.stats, rc.epoch, true
}

// commit stores a fully drained result set, unless a write invalidated
// the epoch the query started from. Nil-safe.
func (rc *resultCache) commit(k resKey, epoch uint64, results []upi.Result, stats Stats) {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if epoch != rc.epoch {
		return
	}
	if _, ok := rc.entries[k]; !ok && len(rc.entries) >= rc.cap {
		// Wholesale reset at capacity: hot traffic is a handful of
		// shapes, so overflow means the cache is mis-sized, not that
		// eviction order matters.
		clear(rc.entries)
	}
	rc.entries[k] = resEntry{results: slices.Clone(results), stats: stats}
}

// invalidate retires every entry and advances the epoch so in-flight
// queries cannot commit results that straddle the write. Called from
// the store's write paths, inside their critical sections. Nil-safe.
func (rc *resultCache) invalidate() {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.epoch++
	if len(rc.entries) > 0 {
		rc.met.ResultCacheInvalidations.Inc()
		clear(rc.entries)
	}
}

// purge is invalidate for DropCaches: same retirement, but not counted
// as a write invalidation. Nil-safe.
func (rc *resultCache) purge() {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.epoch++
	clear(rc.entries)
}
