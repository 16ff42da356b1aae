package upidb

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime"
	"slices"
	"time"

	"upidb/internal/fracture"
	"upidb/internal/shard"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// Kind identifies the class of query a Query descriptor requests.
type Kind int

// The query classes Run executes.
const (
	// KindPTQ is a probabilistic threshold query: all tuples whose
	// confidence for attr = value is at least the threshold.
	KindPTQ Kind = iota
	// KindTopK is a top-k query: the k highest-confidence tuples for
	// one value of the primary attribute.
	KindTopK
	// KindCircle is a spatial range PTQ (paper Query 4): observations
	// within a radius of a point with appearance probability >= the
	// threshold. Executed by SpatialTable.Run.
	KindCircle
	// KindSegment is a PTQ on the uncertain road-segment attribute
	// (paper Query 5). Executed by SpatialTable.Run.
	KindSegment
)

func (k Kind) String() string {
	switch k {
	case KindPTQ:
		return "PTQ"
	case KindTopK:
		return "TopK"
	case KindCircle:
		return "Circle"
	case KindSegment:
		return "Segment"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// spatial reports whether the descriptor belongs to SpatialTable.Run.
func (k Kind) spatial() bool { return k == KindCircle || k == KindSegment }

// Query describes one query: the predicate plus per-query execution
// options. Build it with PTQ or TopKQuery and chain With* options —
// each option returns a modified copy, so descriptors are values that
// can be stored, reused and shared between goroutines:
//
//	q := upidb.PTQ("", "MIT", 0.1).WithTrace(fn)
//	res, err := table.Run(ctx, q)
type Query struct {
	kind  Kind
	attr  string // "" = the table's primary attribute
	value string
	qt    float64
	k     int

	// Spatial predicate (KindCircle).
	center Point
	radius float64

	explainOnly bool
	trace       TraceFunc
}

// PTQ describes a probabilistic threshold query "attr = value AND
// confidence >= qt". attr may be the table's primary attribute, any
// secondary-indexed attribute, or "" as shorthand for the primary
// attribute; Run rejects anything else with ErrUnknownAttr.
func PTQ(attr, value string, qt float64) Query {
	return Query{kind: KindPTQ, attr: attr, value: value, qt: qt}
}

// TopKQuery describes a top-k query on the primary attribute: the k
// highest-confidence tuples with the given value.
func TopKQuery(value string, k int) Query {
	return Query{kind: KindTopK, value: value, k: k}
}

// Circle describes the paper's Query 4 on a spatial table: all
// observations within radius of q whose appearance probability is at
// least threshold. Execute it with SpatialTable.Run; Table.Run rejects
// it.
func Circle(q Point, radius, threshold float64) Query {
	return Query{kind: KindCircle, center: q, radius: radius, qt: threshold}
}

// Segment describes the paper's Query 5 on a spatial table: all
// observations whose uncertain road segment equals segment with
// probability >= qt. Execute it with SpatialTable.Run; Table.Run
// rejects it.
func Segment(segment string, qt float64) Query {
	return Query{kind: KindSegment, value: segment, qt: qt}
}

// validate refuses the numbers no predicate can compare against: a NaN
// threshold matches nothing in the RAM buffer and prunes nothing on
// disk, so its answer would depend on flush state.
func (q Query) validate() error {
	if math.IsNaN(q.qt) {
		return errors.New("upidb: query threshold is NaN")
	}
	if q.kind != KindCircle {
		return nil
	}
	if math.IsNaN(q.center.X) || math.IsInf(q.center.X, 0) || math.IsNaN(q.center.Y) || math.IsInf(q.center.Y, 0) {
		return fmt.Errorf("upidb: circle centre (%v, %v) is not finite", q.center.X, q.center.Y)
	}
	if !(q.radius >= 0) || math.IsInf(q.radius, 1) {
		return fmt.Errorf("upidb: circle radius %v is not a finite non-negative number", q.radius)
	}
	return nil
}

// WithExplain turns the query into a route-only request: Run validates
// the query and reports the route the fixed rule takes for it, without
// pinning a partition, executing anything or charging modeled I/O.
// Info().Plan names the route (PrimaryScan, SecondaryTailored,
// TopKScan, RTreeProbe or SegmentIndexScan) and Info().Explain
// describes it. The route depends only on the query's kind and
// attribute, so it is the same on every table. An explain handle is
// spent from the start: All and Rows yield ErrStreamConsumed and
// Collect returns nil.
func (q Query) WithExplain() Query {
	q.explainOnly = true
	return q
}

// WithTrace attaches a span-event callback to the query: fn receives
// one TraceEvent per execution milestone — the admission verdict, each
// shard dispatch, each partition scan start/end, and each merged-stream
// yield (however the handle is consumed). fn runs on the goroutine that
// consumes the handle; it must be safe for concurrent use and fast, see
// TraceFunc. Tracing never alters results, routing or modeled
// costs; an untraced query pays one nil check per event.
func (q Query) WithTrace(fn TraceFunc) Query {
	q.trace = fn
	return q
}

// resState records where a Results handle's one execution loop (see
// Results.All) stands.
type resState int

const (
	// statePending: prepared (partitions pinned) but not yet executed.
	statePending resState = iota
	// stateStreaming: the loop is running under an iterator; accessors
	// are inert until it finishes.
	stateStreaming
	// stateDone: the one execution is over and the handle is spent. err
	// is nil after a complete drain, the cause after a failure, and
	// ErrStreamConsumed after an abandoned drain or Close.
	stateDone
)

// Results is the answer to one Run call. The query's partition set is
// pinned when Run returns, but no scan has happened yet: the first
// consumption executes it, and there is one executor — a k-way merge
// of the per-partition confidence-sorted cursors that yields the
// globally next-best result while slower partitions are still
// scanning, and that stops a top-k query scanning (and charging
// modeled I/O) as soon as the k-th result is out. Rows hands the rows
// to the caller as they arrive, each tuple still in its validated
// encoding; All is the same stream with every tuple built; Collect
// drains it into a slice the caller owns; Len, Err and Info on an
// unconsumed handle drain it with nobody listening.
//
// A handle is consumed once and keeps no rows. Any consumption spends
// it: afterwards All and Rows yield ErrStreamConsumed and Collect
// returns nil, so a stream can never silently resume or replay. Err,
// Len and Info keep reporting the one execution: after a complete drain
// Err is nil and Len is the number of rows it handed out; after a
// partial drain Err is ErrStreamConsumed and Len is 0. Run the query
// again for a second pass.
//
// Execution errors (a context cancelled mid-stream, a corrupt page)
// surface in the iterators' error slot and through Err; Collect returns
// nil in that case. A Results handle is not safe for concurrent use. A
// handle that is never consumed releases its partition pins when
// garbage-collected (or on Close).
type Results struct {
	ctx  context.Context
	prep *shard.Prepared

	// met, kindLabel and started feed the observed-wall-clock vs
	// modeled-cost histograms, at the execution loop's one terminal
	// transition.
	met       *dbMetrics
	kindLabel string
	started   time.Time

	state resState
	// n counts the rows handed out; Len reports it after a complete
	// drain.
	n    int
	info QueryInfo
	err  error
}

// Result is one query answer handed to a caller: the tuple and the
// possible-world confidence with which it satisfies the predicate.
type Result struct {
	Tuple      *Tuple
	Confidence float64
}

// Row is one query answer as the engine carries it: the tuple's ID and
// confidence (both read off the UPI heap key and the validated
// encoding), and the tuple itself on demand. See Results.Rows.
type Row struct {
	ID         uint64
	Confidence float64
	tup        *Tuple     // nil while the row is unbuilt
	view       tuple.View // the validated encoding while tup is nil
}

// Tuple returns the row's tuple. A row that arrived unbuilt builds a
// fresh tuple, alone, on every call — keep the return value rather than
// calling twice; a row from the RAM insert buffer or from an executor
// that holds its whole answer (secondary and cutoff-index routes)
// returns the one tuple it already has, which shares slabs with up to
// tuple.SlabRows rows of that answer.
func (r Row) Tuple() *Tuple {
	if r.tup != nil {
		return r.tup
	}
	return r.view.Build()
}

// newLazyResults wraps a prepared query into an unconsumed handle and
// arranges for its partition pins to be dropped if the handle is
// garbage-collected without ever being consumed.
func newLazyResults(ctx context.Context, prep *shard.Prepared, met *dbMetrics, kindLabel string, started time.Time) *Results {
	r := &Results{
		ctx:       ctx,
		prep:      prep,
		met:       met,
		kindLabel: kindLabel,
		started:   started,
	}
	// The cleanup must not capture r, and Release is idempotent, so a
	// normally-consumed handle's cleanup is a no-op.
	runtime.AddCleanup(r, func(p *shard.Prepared) { p.Release() }, prep)
	return r
}

// drain runs a still-pending query to the end: the loop Rows runs, with
// nobody listening and nothing built. The outcome is left in n, err and
// info.
func (r *Results) drain() {
	if r.state == statePending {
		for range r.stream(false) {
		}
	}
}

// finish is the execution loop's one terminal transition: it spends the
// handle, keeps the outcome and folds the execution statistics into the
// query info.
func (r *Results) finish(st fracture.Stats, err error) {
	r.state, r.err = stateDone, err
	r.info.HeapEntries = st.HeapEntries
	r.info.CutoffPointers = st.CutoffPointers
	r.info.Partitions = st.PartitionsRead
	r.info.BufferHits = st.BufferHits
	r.info.ModeledTime = st.ModeledTime
	// finish runs once per handle, so the observed-vs-modeled pair is
	// recorded here.
	if r.met != nil {
		r.met.queryWall.With(r.kindLabel).Observe(time.Since(r.started).Seconds())
		r.met.queryModeled.With(r.kindLabel).Observe(st.ModeledTime.Seconds())
	}
}

// All returns an iterator over the results in confidence-descending
// order (ties broken by tuple ID):
//
//	for r, err := range res.All() { ... }
//
// On an unconsumed handle, All executes the query incrementally: the
// first result is yielded as soon as every partition cursor has
// produced its head — one heap page per partition for an index scan —
// not when the slowest partition finishes, and each partition's pin is
// released the moment its stream is exhausted. Breaking out of the
// loop cancels the remaining partition scans; pages they never read
// are never charged. The error slot delivers mid-stream failures
// (ErrCanceled when the context is cancelled between pulls) and
// terminates the iteration.
//
// On a handle already consumed — fully, partially, or by Len, Err,
// Info or Collect — All yields ErrStreamConsumed, or the execution
// error of a failed handle (see Results).
//
// All is Rows with every tuple built as it is handed over: same rows,
// same order, same states, same accounting. The tuples of one stream are
// built into shared slabs: the first row into its own, each later
// tuple.SlabRows rows into one, so a kept tuple keeps up to that many
// rows' memory reachable (copy out what you keep for long).
func (r *Results) All() iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		for row, err := range r.stream(true) {
			if !yield(Result{Tuple: row.tup, Confidence: row.Confidence}, err) {
				return
			}
		}
	}
}

// Rows is All without the last step: the same stream — same rows, same
// order, same partial-drain, re-entrancy and Close behaviour, same Info
// — but a tuple is built only when the caller asks for it:
//
//	for row, err := range res.Rows() {
//		if err != nil { ... }
//		fmt.Println(row.ID, row.Confidence) // no tuple was built
//		t := row.Tuple()                    // now one was
//	}
//
// A caller that needs only IDs and confidences (upiserve's NDJSON
// handler is one) builds nothing; a row superseded by a newer delete or
// upsert, or cut by top-k, is never built on any path.
//
// Lifetime: an unbuilt row aliases the heap page it was scanned from. A
// partition of a table is never rewritten in place and page buffers are
// never recycled, so a Row stays valid for as long as it is held: across
// cache eviction, later inserts, flushes, and the merge that deletes the
// files of the partition it came from. What it costs is memory: each
// distinct page (8 KB) a held unbuilt row points into stays reachable
// until the row is dropped, so build (or copy out what you need) before
// keeping rows for long. The handle itself keeps no row.
func (r *Results) Rows() iter.Seq2[Row, error] { return r.stream(false) }

// stream is the handle's one state machine and the only place a query
// executes. build selects the last step: whether each tuple is built as
// it is handed over.
func (r *Results) stream(build bool) iter.Seq2[Row, error] {
	return func(yield func(Row, error) bool) {
		if r.state != statePending {
			// A re-entrant iterator while another is mid-drain, or a
			// spent handle: never resume, double-consume or replay.
			err := r.err
			if err == nil {
				err = ErrStreamConsumed
			}
			yield(Row{}, err)
			return
		}
		st := r.prep.Stream(r.ctx)
		r.state = stateStreaming
		// One builder per query: its first slab holds one row, so the
		// first row costs what a single build does, and the rows after
		// it share slabs of tuple.SlabRows.
		var b tuple.Builder
		for {
			res, ok, err := st.Next()
			if err != nil {
				r.finish(st.Stats(), err)
				yield(Row{}, err)
				return
			}
			if !ok {
				r.finish(st.Stats(), nil)
				return
			}
			if build {
				res = res.Build(&b)
			}
			r.n++
			if !yield(Row{ID: res.ID(), Confidence: res.Confidence, tup: res.Tuple, view: res.View}, nil) {
				st.Close()
				r.finish(st.Stats(), ErrStreamConsumed)
				if r.met != nil {
					r.met.partialDrains.Inc()
				}
				return
			}
		}
	}
}

// Collect returns all results as a slice the caller owns, in the order
// All yields them. On an unconsumed handle it drains the stream — the
// same execution All performs, so a top-k Collect stops scanning at the
// k-th result. It returns nil when execution failed or the handle was
// already consumed; Err reports why a drain failed.
//
// Collect consumes the whole stream, so it builds in batches of
// tuple.SlabRows rows, each into slabs sized exactly for it; a kept
// tuple keeps its batch's memory reachable, as with All.
func (r *Results) Collect() []Result {
	var (
		out   []Result
		batch [tuple.SlabRows]upi.Result
		n     int
	)
	flush := func() {
		upi.BuildAll(batch[:n])
		for _, res := range batch[:n] {
			out = append(out, Result{Tuple: res.Tuple, Confidence: res.Confidence})
		}
		n = 0
	}
	for row, err := range r.stream(false) {
		if err != nil {
			return nil
		}
		batch[n] = upi.Result{Tuple: row.tup, Confidence: row.Confidence, View: row.view}
		if n++; n == len(batch) {
			flush()
		}
	}
	flush()
	return out
}

// Len returns the number of rows the handle's complete drain handed out,
// draining an unconsumed handle first (0 after a failure or a partial
// drain).
func (r *Results) Len() int {
	r.drain()
	if r.state != stateDone || r.err != nil {
		return 0
	}
	return r.n
}

// Err returns the terminal error of the handle's execution: nil after
// a successful full drain, the failure cause (e.g. ErrCanceled) after
// an error, ErrStreamConsumed after a partial drain. On an unconsumed
// handle it drains the stream first, so the Run-then-check pattern
// observes execution errors.
func (r *Results) Err() error {
	r.drain()
	return r.err
}

// Close releases an unconsumed handle's partition pins without
// executing the query. Consuming the handle (fully or partially)
// releases them too; Close is only needed for a Run whose results
// turned out not to matter. Idempotent.
func (r *Results) Close() {
	if r.state == statePending {
		r.state, r.err = stateDone, ErrStreamConsumed
		r.prep.Release()
	}
}

// Info reports what the query touched and cost. Plan and Explain are
// only set by WithExplain runs. On an unconsumed handle Info drains the
// stream first so the counters are complete. The counters report what
// the stream actually touched: an early-terminated top-k, a partial
// drain or a cancelled query is charged the I/O it consumed, not what a
// full drain would have cost.
func (r *Results) Info() QueryInfo {
	r.drain()
	return r.info
}

// Run prepares one query described by q against the table, honoring
// ctx: a context that is already done fails fast with ErrCanceled
// before any partition is pinned or any modeled I/O charged. Run itself
// performs no scan — it validates, routes and pins the partition
// snapshot; the returned handle executes on first consumption, through
// one executor: All streams results incrementally (first results flow
// before the slowest partition finishes; a top-k stops scanning at the
// k-th result), and Collect/Len/Err/Info drain that same stream. A
// cancellation mid-execution stops the scans between heap pages,
// charges the modeled I/O consumed so far and nothing more, and
// releases every partition pin; it surfaces in All's error slot and
// through Err. A deadline on ctx bounds real time.
//
// Routing is a fixed rule: a PTQ on the primary attribute and a top-k
// scan the clustered UPI (chasing the cutoff index below the cutoff), a
// PTQ on a secondary attribute uses tailored secondary access. Run reads
// no statistics and prices nothing; WithExplain reports the route
// without taking it.
//
// Run refuses a NaN threshold, which no confidence compares against.
//
// Run is safe for concurrent use alongside inserts, deletes, flushes
// and merges; it sees a consistent snapshot of the table (main UPI +
// fractures + RAM buffer) taken at call time.
func (t *Table) Run(ctx context.Context, q Query) (*Results, error) {
	if err := upi.CtxErr(ctx); err != nil {
		return nil, err
	}
	if q.kind.spatial() {
		return nil, fmt.Errorf("upidb: %v is a spatial query; run it with SpatialTable.Run", q.kind)
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	primary := t.shards.Attr()
	attr := q.attr
	if attr == "" {
		attr = primary
	}
	if attr != primary && !slices.Contains(t.shards.SecondaryAttrs(), attr) {
		return nil, fmt.Errorf("%w: %q (primary %q, secondary %v)",
			ErrUnknownAttr, attr, primary, t.shards.SecondaryAttrs())
	}
	req := fracture.Req{Value: q.value, Trace: fracture.TraceFunc(q.trace)}
	switch {
	case q.kind == KindTopK:
		req.Kind = fracture.KindTopK
		req.K = q.k
	case attr == primary:
		req.Kind = fracture.KindPTQ
		req.QT = q.qt
	default:
		req.Kind = fracture.KindSecondary
		req.Attr = attr
		req.QT = q.qt
	}
	if q.explainOnly {
		return &Results{state: stateDone, info: t.explain(q, req)}, nil
	}
	// started anchors the observed-wall-clock histogram.
	started := time.Now()
	if q.trace != nil {
		q.trace(TraceEvent{Kind: TraceAdmission, Detail: "admitted"})
	}
	prep, err := t.shards.Prepare(ctx, req)
	if err != nil {
		return nil, err
	}
	return newLazyResults(ctx, prep, t.db.met, q.kind.String(), started), nil
}

// explain names and describes the route req takes.
func (t *Table) explain(q Query, req fracture.Req) QueryInfo {
	primary := t.shards.Attr()
	switch req.Kind {
	case fracture.KindTopK:
		return explainInfo("TopKScan", fmt.Sprintf("clustered UPI scan of %s=%q, stopping at the k-th result (k=%d)", primary, q.value, q.k))
	case fracture.KindPTQ:
		detail := fmt.Sprintf("clustered UPI scan of %s=%q down to confidence %v", primary, q.value, q.qt)
		if cutoff := t.shards.Store(0).Main().Options().Cutoff; q.qt < cutoff {
			detail += fmt.Sprintf(", then the cutoff index below the cutoff %v", cutoff)
		}
		return explainInfo("PrimaryScan", detail)
	}
	return explainInfo("SecondaryTailored", fmt.Sprintf("secondary index on %s=%q down to confidence %v, tailored heap access", req.Attr, q.value, q.qt))
}

// explainInfo is what a WithExplain run reports, on either table kind:
// the fixed rule's route, named and described.
func explainInfo(route, detail string) QueryInfo {
	return QueryInfo{Plan: route, Explain: fmt.Sprintf("routing: fixed rule, %s\n  %s\n", route, detail)}
}
