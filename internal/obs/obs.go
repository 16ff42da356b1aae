// Package obs is the engine's dependency-free metrics substrate: a
// registry of atomic counters, gauges and fixed-bucket histograms with
// a typed snapshot API and a hand-rolled Prometheus text-exposition
// encoder. It exists so every layer — fracture, shard, facade,
// streaming, server — can be instrumented without importing anything
// beyond the standard library, and without measurable cost on scan-
// worker hot paths: an increment is one atomic add, a histogram
// observation one binary search plus two atomic adds, and every method
// is nil-safe so unwired components no-op instead of branching at each
// call site.
//
// Metrics never touch the simulated disk or the I/O tapes; modeled
// query costs are byte-identical with and without a registry attached.
//
// Concurrency: all mutation methods (Inc, Add, Set, Observe) are safe
// for concurrent use from any number of goroutines, including under
// the race detector. Registration (Counter, Histogram, *Vec.With,
// GaugeFuncVec.Register) takes the registry/family lock and is safe
// concurrently too; hot paths should resolve their metric handles once
// and hold them.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. A nil Counter is a
// valid no-op target.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down. A nil Gauge is a valid
// no-op target.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (CAS loop; negative deltas subtract).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: cumulative-on-export bucket
// counts, a float64 sum and a total count, all updated atomically. A
// nil Histogram is a valid no-op target.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v is the bucket (le semantics); past the last
	// bound, the +Inf overflow bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// snapshot returns a consistent-enough copy (each field individually
// atomic; cross-field skew of in-flight observations is acceptable for
// monitoring).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is the exported state of one histogram series.
type HistogramSnapshot struct {
	// Bounds are the ascending bucket upper bounds; Counts has one
	// extra trailing entry for the +Inf overflow bucket. Counts are
	// per-bucket (not cumulative).
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// metricType is the Prometheus TYPE of a family.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// gaugeFn is a scrape-time evaluated gauge series.
type gaugeFn func() float64

// counterFn is a scrape-time evaluated counter series.
type counterFn func() int64

// family is one metric name: help, type, label schema and the series
// (label-value combinations) registered under it.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // label key → *Counter | *Gauge | *Histogram | gaugeFn | counterFn
}

// labelKey renders the inner label list (`a="x",b="y"`), in schema
// order, escaping values. Empty for an unlabeled series.
func (f *family) labelKey(values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	if len(values) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// get returns the series for the label key, creating it with mk on
// first use.
func (f *family) get(key string, mk func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	m := mk()
	f.series[key] = m
	return m
}

// set installs (or replaces) the series for the label key. Used by
// GaugeFuncVec.Register so re-attaching a table re-binds its gauges.
func (f *family) set(key string, m any) {
	f.mu.Lock()
	f.series[key] = m
	f.mu.Unlock()
}

// Registry owns a set of metric families. The zero value is not
// usable; construct with NewRegistry. A nil *Registry returns nil
// metric handles from every constructor, so a fully unwired component
// costs one predictable branch per operation.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family returns the named family, creating it on first use and
// panicking on a name re-registered with a different shape (programmer
// error; metric names are static).
func (r *Registry) family(name, help string, typ metricType, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different type or label schema", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]any),
	}
	r.fams[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter returns the unlabeled counter of the named family, creating
// both on first use. Nil-safe: a nil registry returns a nil counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, typeCounter, nil, nil)
	return f.get("", func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the unlabeled gauge of the named family.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, typeGauge, nil, nil)
	return f.get("", func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the unlabeled histogram of the named family with
// the given ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.family(name, help, typeHistogram, nil, buckets)
	return f.get("", func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// GaugeFunc registers an unlabeled gauge whose value is computed at
// snapshot/scrape time. fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.family(name, help, typeGauge, nil, nil)
	f.set("", gaugeFn(fn))
}

// CounterFunc registers an unlabeled counter whose value is read at
// snapshot/scrape time from a count something else keeps. fn must be
// safe to call from any goroutine and must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	f := r.family(name, help, typeCounter, nil, nil)
	f.set("", counterFn(fn))
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, typeCounter, labels, nil)}
}

// With returns (creating on first use) the counter for the given label
// values, in schema order.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	key := v.f.labelKey(values)
	return v.f.get(key, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.family(name, help, typeGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	key := v.f.labelKey(values)
	return v.f.get(key, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.family(name, help, typeHistogram, labels, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	key := v.f.labelKey(values)
	return v.f.get(key, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// GaugeFuncVec is a labeled family of scrape-time evaluated gauges —
// the shape per-shard tuple/fracture gauges take, so the hot write
// path never maintains them.
type GaugeFuncVec struct{ f *family }

// GaugeFuncVec returns the labeled gauge-func family.
func (r *Registry) GaugeFuncVec(name, help string, labels ...string) *GaugeFuncVec {
	if r == nil {
		return nil
	}
	return &GaugeFuncVec{f: r.family(name, help, typeGauge, labels, nil)}
}

// Register binds fn as the series for the given label values,
// replacing any previous binding (so a table closed and reopened
// re-binds its gauges rather than double-reporting).
func (v *GaugeFuncVec) Register(fn func() float64, values ...string) {
	if v == nil {
		return
	}
	v.f.set(v.f.labelKey(values), gaugeFn(fn))
}

// Snapshot is a typed point-in-time view of every series in a
// registry, keyed by the canonical series name: `name` for unlabeled
// series, `name{label="value",...}` otherwise.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// seriesName renders the canonical key of one series.
func seriesName(fam, labelKey string) string {
	if labelKey == "" {
		return fam
	}
	return fam + "{" + labelKey + "}"
}

// Snapshot captures every series. GaugeFunc series are evaluated
// during the call. Nil-safe: a nil registry snapshots empty maps.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	for _, f := range r.families() {
		for key, m := range f.copySeries() {
			name := seriesName(f.name, key)
			switch m := m.(type) {
			case *Counter:
				s.Counters[name] = m.Value()
			case counterFn:
				s.Counters[name] = m()
			case *Gauge:
				s.Gauges[name] = m.Value()
			case gaugeFn:
				s.Gauges[name] = m()
			case *Histogram:
				s.Histograms[name] = m.snapshot()
			}
		}
	}
	return s
}

// families returns the families in registration order.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, len(r.order))
	for i, name := range r.order {
		out[i] = r.fams[name]
	}
	return out
}

// copySeries returns the series map under the family lock so the
// caller can iterate without holding it.
func (f *family) copySeries() map[string]any {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]any, len(f.series))
	for k, v := range f.series {
		out[k] = v
	}
	return out
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4): HELP and TYPE lines per family,
// series sorted by label key for deterministic output, histograms with
// cumulative `le` buckets plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, f := range r.families() {
		series := f.copySeries()
		if len(series) == 0 {
			continue
		}
		keys := make([]string, 0, len(series))
		for k := range series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, key := range keys {
			switch m := series[key].(type) {
			case *Counter:
				writeSeries(&b, f.name, key, strconv.FormatInt(m.Value(), 10))
			case counterFn:
				writeSeries(&b, f.name, key, strconv.FormatInt(m(), 10))
			case *Gauge:
				writeSeries(&b, f.name, key, formatFloat(m.Value()))
			case gaugeFn:
				writeSeries(&b, f.name, key, formatFloat(m()))
			case *Histogram:
				snap := m.snapshot()
				cum := int64(0)
				for i, bound := range snap.Bounds {
					cum += snap.Counts[i]
					writeSeries(&b, f.name+"_bucket", joinLabels(key, `le="`+formatFloat(bound)+`"`), strconv.FormatInt(cum, 10))
				}
				writeSeries(&b, f.name+"_bucket", joinLabels(key, `le="+Inf"`), strconv.FormatInt(snap.Count, 10))
				writeSeries(&b, f.name+"_sum", key, formatFloat(snap.Sum))
				writeSeries(&b, f.name+"_count", key, strconv.FormatInt(snap.Count, 10))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSeries emits one sample line.
func writeSeries(b *strings.Builder, name, labelKey, value string) {
	b.WriteString(name)
	if labelKey != "" {
		b.WriteByte('{')
		b.WriteString(labelKey)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// joinLabels appends one rendered pair to an inner label list.
func joinLabels(key, pair string) string {
	if key == "" {
		return pair
	}
	return key + "," + pair
}

// formatFloat renders a float64 the Prometheus way (+Inf, shortest
// round-trip decimal otherwise).
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Default bucket layouts, shared so snapshot consumers can rely on
// stable bounds.
var (
	// WallBuckets covers wall-clock latencies from 10µs to 5s —
	// WAL fsyncs, merge builds, HTTP request service times.
	WallBuckets = []float64{1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5}
	// CostBuckets covers modeled disk costs in seconds (the paper's
	// 10ms-seek currency): 1ms to 50s.
	CostBuckets = []float64{1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10, 50}
)

// EngineMetrics is the bundle of engine-level metrics the fracture and
// shard layers report into, pre-resolved so hot paths never look a
// series up. A zero EngineMetrics (all-nil fields) is fully functional
// as a no-op sink — fracture stores default to one when no registry is
// wired — because every metric method is nil-safe.
type EngineMetrics struct {
	Inserts     *Counter // upserts included; every accepted Insert
	Deletes     *Counter
	Upserts     *Counter // Inserts that replaced a still-buffered version
	Flushes     *Counter // non-empty buffer flushes (fractures written)
	Merges      *Counter // both shapes: into main and fractures into one
	WALAppends  *Counter
	PinReleases *Counter // partition pins released by query execution
	// MainRewrites counts the merges that wrote a new main generation;
	// MergeWrittenBytes the bytes every merge wrote (files of the merged
	// partition, its delete set included), so write amplification reads
	// as a ratio of counters.
	MainRewrites      *Counter
	MergeWrittenBytes *Counter
	// Query fan-out, counted where it happens (not through the trace
	// hooks, which exist only for queries that attached a TraceFunc):
	// per-shard dispatches, partition cursors opened, merged-stream
	// results yielded.
	Scatters       *Counter
	ScanPartitions *Counter
	StreamYields   *Counter
	// TopKEarlyTerm counts top-k streams that stopped with at least one
	// partition still holding results — scans cancelled by the k-th
	// yield.
	TopKEarlyTerm *Counter

	MergeSeconds    *Histogram // wall-clock merge duration
	WALFsyncSeconds *Histogram // wall-clock fsync time per WAL append
}

// NewEngineMetrics resolves the engine metric families on r. Nil-safe:
// a nil registry yields a usable all-no-op bundle.
func NewEngineMetrics(r *Registry) *EngineMetrics {
	return &EngineMetrics{
		Inserts:           r.Counter("upidb_fracture_inserts_total", "Tuples accepted by Insert (upserts included)."),
		Deletes:           r.Counter("upidb_fracture_deletes_total", "Tombstones accepted by Delete."),
		Upserts:           r.Counter("upidb_fracture_upserts_total", "Inserts that replaced a still-buffered version of the same ID."),
		Flushes:           r.Counter("upidb_fracture_flushes_total", "RAM-buffer flushes that wrote a new fracture."),
		Merges:            r.Counter("upidb_fracture_merges_total", "Merges, into a new main generation or of fractures into one new fracture."),
		MainRewrites:      r.Counter("upidb_fracture_main_rewrites_total", "Merges that folded every fracture into a new main generation."),
		MergeWrittenBytes: r.Counter("upidb_fracture_merge_written_bytes_total", "Bytes written by merges: the merged partition's files."),
		WALAppends:        r.Counter("upidb_wal_appends_total", "Acknowledged write-ahead-log record appends."),
		PinReleases:       r.Counter("upidb_stream_pin_releases_total", "Partition pins released by query execution."),
		Scatters:          r.Counter("upidb_shard_scatters_total", "Per-shard query dispatches (scatter fan-out)."),
		ScanPartitions:    r.Counter("upidb_scan_partitions_total", "Partition scans and cursors started."),
		StreamYields:      r.Counter("upidb_stream_yields_total", "Results yielded by merged streams."),
		TopKEarlyTerm:     r.Counter("upidb_shard_topk_early_terminations_total", "Top-k streams that cancelled remaining partition scans at the k-th yield."),
		MergeSeconds:      r.Histogram("upidb_fracture_merge_seconds", "Wall-clock merge duration.", WallBuckets),
		WALFsyncSeconds:   r.Histogram("upidb_wal_fsync_seconds", "Wall-clock fsync time per WAL append.", WallBuckets),
	}
}
