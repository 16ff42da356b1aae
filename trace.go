package upidb

import "upidb/internal/fracture"

// TraceEvent is one span event of a traced query — see Query.WithTrace.
// It is an alias of the engine-internal event type, so values flow
// through every layer unchanged.
type TraceEvent = fracture.TraceEvent

// TraceFunc receives span events. A query's first pull opens its
// partition cursors across a worker pool and primes its shards
// concurrently, so implementations must be safe for concurrent use
// (atomic counters or a locked sink) and fast — scan workers block on
// the call.
type TraceFunc = fracture.TraceFunc

// The trace event kinds Run emits, in the order a typical query
// produces them.
const (
	// TraceAdmission marks the query admitted onto its fixed route.
	// Emitted exactly once per Run, before any shard is touched.
	TraceAdmission = fracture.TraceAdmission
	// TraceDispatch marks one shard being handed the request, before
	// any shard's snapshot is pinned (Shard identifies it; Detail is the
	// shard's store name).
	TraceDispatch = fracture.TraceDispatch
	// TraceScanStart marks one partition cursor starting (Shard + Part
	// identify the partition; Detail is its table name).
	TraceScanStart = fracture.TraceScanStart
	// TraceScanEnd marks one started partition finishing — exhausted,
	// cut short by a top-k's k-th yield, or cancelled.
	TraceScanEnd = fracture.TraceScanEnd
	// TraceYield marks the merged stream yielding one result (Shard is
	// the producing shard; Detail names the tuple and its confidence),
	// whether All hands the row out or Collect keeps it.
	TraceYield = fracture.TraceYield
)
