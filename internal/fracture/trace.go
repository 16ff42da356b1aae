package fracture

// Query-level tracing. A query descriptor may carry a TraceFunc
// (upidb.Query.WithTrace on the facade); the engine then emits one
// TraceEvent per span milestone as execution proceeds — shard
// dispatch, per-partition scan start/end, merged-stream yields and the
// admission — giving servers a substrate for per-request
// metrics without touching the result path. With no TraceFunc set the
// hooks cost one nil check, and no event is built.
//
// Events are emitted synchronously from whichever goroutine reaches
// the milestone: a stream's first pull opens its partition cursors
// across a worker pool, so a TraceFunc must be safe for concurrent use
// (atomic counters or a locked sink). It must also be fast — the scan
// worker blocks on it.

// The trace event kinds the engine emits.
const (
	// TraceAdmission marks a Run admitted onto its fixed route.
	// Emitted by the facade.
	TraceAdmission = "admission"
	// TraceDispatch marks one shard being handed the request. Emitted
	// once per shard, before any shard's partition snapshot is pinned.
	TraceDispatch = "shard.dispatch"
	// TraceScanStart marks one partition cursor starting.
	TraceScanStart = "partition.scan.start"
	// TraceScanEnd marks one started partition finishing: exhausted,
	// cut short by a top-k's k-th yield, or cancelled. Every start has
	// exactly one end.
	TraceScanEnd = "partition.scan.end"
	// TraceYield marks the merged stream yielding one result,
	// identifying the shard that produced it.
	TraceYield = "merge.yield"
)

// TraceEvent is one span event of a traced query.
type TraceEvent struct {
	// Kind is one of the Trace* constants.
	Kind string
	// Shard is the shard the event belongs to (0 on unsharded tables
	// and for table-level events like admission).
	Shard int
	// Part is the partition index within the shard (0 = main UPI,
	// i >= 1 = fracture i-1); meaningful for scan events only.
	Part int
	// Detail is a human-readable annotation: the partition table name
	// for scan events, the verdict for admission, the yielded tuple
	// for merge.yield.
	Detail string
}

// TraceFunc receives span events. Implementations must be safe for
// concurrent use; see the package comment above.
type TraceFunc func(TraceEvent)

// emit calls fn if set. The nil check keeps untraced queries free.
func (fn TraceFunc) emit(kind string, shard, part int, detail string) {
	if fn != nil {
		fn(TraceEvent{Kind: kind, Shard: shard, Part: part, Detail: detail})
	}
}
