package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "Ops.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name returns the same series.
	r.Counter("ops_total", "Ops.").Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("counter after re-lookup = %d, want 6", got)
	}

	g := r.Gauge("depth", "Depth.")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	// Every metric method must be callable through nil receivers — the
	// engine relies on this for its zero-value no-op sink.
	var (
		c *Counter
		g *Gauge
		h *Histogram
		r *Registry
	)
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter value != 0")
	}
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value != 0")
	}
	h.Observe(1)
	r.Counter("x", "").Inc()
	r.Gauge("y", "").Set(1)
	r.Histogram("z", "", WallBuckets).Observe(1)
	r.GaugeFunc("f", "", func() float64 { return 1 })
	r.CounterFunc("cf", "", func() int64 { return 1 })
	r.CounterVec("cv", "", "a").With("1").Inc()
	r.HistogramVec("hv", "", WallBuckets, "a").With("1").Observe(1)
	r.GaugeFuncVec("fv", "", "a").Register(func() float64 { return 1 }, "1")
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}

	em := &EngineMetrics{} // zero value: all fields nil, all calls no-ops
	em.Inserts.Inc()
	em.MergeSeconds.Observe(0.1)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-105.65) > 1e-9 {
		t.Fatalf("sum = %g, want 105.65", s.Sum)
	}
	// le semantics: 0.1 lands in the first bucket, 100 in +Inf.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
}

func TestLabeledVecs(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "Requests.", "endpoint", "status")
	v.With("query", "200").Add(3)
	v.With("query", "429").Inc()
	v.With("insert", "200").Inc()

	s := r.Snapshot()
	if got := s.Counters[`req_total{endpoint="query",status="200"}`]; got != 3 {
		t.Fatalf("query/200 = %d, want 3", got)
	}
	if got := s.Counters[`req_total{endpoint="insert",status="200"}`]; got != 1 {
		t.Fatalf("insert/200 = %d, want 1", got)
	}

	fv := r.GaugeFuncVec("shard_tuples", "Tuples.", "shard")
	fv.Register(func() float64 { return 7 }, "0")
	// Re-registering the same labels replaces the binding (reopen-safe).
	fv.Register(func() float64 { return 9 }, "0")
	if got := r.Snapshot().Gauges[`shard_tuples{shard="0"}`]; got != 9 {
		t.Fatalf("gauge func = %g, want 9 (replacement binding)", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", "Total ops.").Add(2)
	r.CounterVec("req_total", "Requests.", "kind").With(`we"ird\v`).Inc()
	r.Gauge("depth", "Queue depth.").Set(1.5)
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.GaugeFunc("live", "Live gauge.", func() float64 { return 3 })
	r.CounterFunc("kept_total", "Kept elsewhere.", func() int64 { return 4 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP ops_total Total ops.",
		"# TYPE ops_total counter",
		"ops_total 2",
		"# TYPE depth gauge",
		"depth 1.5",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 5.55",
		"lat_seconds_count 3",
		"live 3",
		"# TYPE kept_total counter",
		"kept_total 4",
		// Label escaping: backslash and quote escaped in exposition.
		`req_total{kind="we\"ird\\v"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	if got := r.Snapshot().Counters["kept_total"]; got != 4 {
		t.Errorf("snapshot kept_total = %d, want 4", got)
	}
}

func TestRegistrySoak(t *testing.T) {
	// Exercised under -race in CI: concurrent increments across series
	// plus snapshots must be safe and land on exact final counts.
	r := NewRegistry()
	c := r.Counter("soak_total", "")
	v := r.CounterVec("soak_vec_total", "", "worker")
	h := r.Histogram("soak_seconds", "", WallBuckets)

	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lc := v.With("w")
			for i := 0; i < per; i++ {
				c.Inc()
				lc.Inc()
				h.Observe(float64(i%10) / 1000)
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	s := r.Snapshot()
	if got := s.Counters[`soak_vec_total{worker="w"}`]; got != workers*per {
		t.Fatalf("vec counter = %d, want %d", got, workers*per)
	}
	if got := s.Histograms["soak_seconds"].Count; got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}
