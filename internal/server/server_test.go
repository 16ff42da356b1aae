package server

// httptest suite for the HTTP front end: NDJSON query streaming with a
// well-formed trailer, token-bucket overload (429 + Retry-After, never
// a 5xx), deadline propagation into the engine's admission (504),
// graceful drain (503 everywhere, healthz included, and Drain returns
// with zero requests in flight), and the 400/404 rejection surface.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upidb"
)

// newTestServer builds an in-memory DB with one sharded table holding
// n tuples (primary X over 16 values, secondary Y over 8), flushed and
// merged, with statistics built from those tuples so "route":"planner"
// has something to cost from.
func newTestServer(t testing.TB, cfg Config, n int) (*Server, *httptest.Server) {
	t.Helper()
	db, err := upidb.Create("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	tab, err := db.CreateTable("authors", "X", []string{"Y"}, upidb.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	var tuples []*upidb.Tuple
	for i := 0; i < n; i++ {
		x, err := upidb.NewDiscrete([]upidb.Alternative{
			{Value: fmt.Sprintf("v%d", i%16), Prob: 0.7},
			{Value: fmt.Sprintf("v%d", (i+5)%16), Prob: 0.3},
		})
		if err != nil {
			t.Fatal(err)
		}
		y, err := upidb.NewDiscrete([]upidb.Alternative{{Value: fmt.Sprintf("w%d", i%8), Prob: 1}})
		if err != nil {
			t.Fatal(err)
		}
		tup := &upidb.Tuple{ID: uint64(i + 1), Existence: 1,
			Unc: []upidb.UncField{{Name: "X", Dist: x}, {Name: "Y", Dist: y}}}
		if err := tab.Insert(tup); err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, tup)
	}
	if n > 0 {
		if err := tab.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := tab.Merge(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.BuildStats(tuples); err != nil {
		t.Fatal(err)
	}
	srv := New(db, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// queryNDJSON posts a query and parses the NDJSON stream into result
// lines and the trailer.
func queryNDJSON(t *testing.T, ts *httptest.Server, body any) ([]resultLine, trailerLine) {
	t.Helper()
	resp := post(t, ts.URL+"/v1/tables/authors/query", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("query: %s: %s", resp.Status, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var results []resultLine
	var trailer trailerLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]any
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case probe["error"] != nil:
			t.Fatalf("mid-stream error: %s", line)
		case probe["done"] != nil:
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatal(err)
			}
		default:
			var r resultLine
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !trailer.Done {
		t.Fatal("stream ended without a done trailer")
	}
	return results, trailer
}

// TestQueryStream: a PTQ streams results in confidence order with a
// trailer whose counters agree with the stream, and inserts/deletes
// round-trip through their endpoints.
func TestQueryStream(t *testing.T) {
	srv, ts := newTestServer(t, Config{}, 400)

	results, trailer := queryNDJSON(t, ts, map[string]any{"value": "v3", "qt": 0.2})
	if len(results) == 0 {
		t.Fatal("PTQ returned nothing")
	}
	for i := 1; i < len(results); i++ {
		if results[i].Confidence > results[i-1].Confidence {
			t.Fatalf("stream out of confidence order at %d", i)
		}
	}
	if trailer.Count != len(results) {
		t.Fatalf("trailer count %d, streamed %d", trailer.Count, len(results))
	}
	if trailer.Shards != 2 {
		t.Fatalf("trailer shards %d, want 2", trailer.Shards)
	}
	if trailer.Dispatches != 2 {
		t.Fatalf("trailer dispatches %d, want one per shard", trailer.Dispatches)
	}
	if trailer.Yields != int64(len(results)) {
		t.Fatalf("trailer yields %d for %d results", trailer.Yields, len(results))
	}

	// Top-k bounds the stream.
	results, trailer = queryNDJSON(t, ts, map[string]any{"kind": "topk", "value": "v3", "k": 5})
	if len(results) != 5 || trailer.Count != 5 {
		t.Fatalf("top-5: %d results, trailer %d", len(results), trailer.Count)
	}

	// One flushed insert is a fracture on its owning shard: the
	// trailer's scans are the partitions read, over both shards.
	resp := post(t, ts.URL+"/v1/tables/authors/insert", map[string]any{
		"id": 500_000, "unc": []any{
			map[string]any{"name": "X", "alts": []any{map[string]any{"value": "v3", "prob": 0.5}}},
			map[string]any{"name": "Y", "alts": []any{map[string]any{"value": "w0", "prob": 1}}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %s", resp.Status)
	}
	resp.Body.Close()
	if err := srv.db.Table("authors").Flush(); err != nil {
		t.Fatal(err)
	}
	_, trailer = queryNDJSON(t, ts, map[string]any{"value": "v3", "qt": 0.2})
	if trailer.Partitions != 3 || trailer.Scans != int64(trailer.Partitions) {
		t.Fatalf("fractured trailer: scans %d, partitions %d, want 3 of each", trailer.Scans, trailer.Partitions)
	}

	// Insert a recognizable tuple, see it in a query, delete it, see it
	// gone.
	resp = post(t, ts.URL+"/v1/tables/authors/insert", map[string]any{
		"id": 999_999, "unc": []any{map[string]any{"name": "X", "alts": []any{
			map[string]any{"value": "v3", "prob": 0.99},
		}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %s", resp.Status)
	}
	resp.Body.Close()
	results, _ = queryNDJSON(t, ts, map[string]any{"value": "v3", "qt": 0.9})
	found := false
	for _, r := range results {
		if r.ID == 999_999 {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted tuple missing from query")
	}
	resp = post(t, ts.URL+"/v1/tables/authors/delete", map[string]any{"id": 999_999})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %s", resp.Status)
	}
	resp.Body.Close()
	results, _ = queryNDJSON(t, ts, map[string]any{"value": "v3", "qt": 0.9})
	for _, r := range results {
		if r.ID == 999_999 {
			t.Fatal("deleted tuple still served")
		}
	}

	// Stats endpoint reflects the table.
	resp, err := http.Get(ts.URL + "/v1/tables/authors/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Table != "authors" || stats.PrimaryAttr != "X" || stats.Shards != 2 || !stats.Seeded {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestRejections: the 400/404 surface — malformed bodies, invalid
// parameters and unknown tables are refused before touching the
// engine.
func TestRejections(t *testing.T) {
	srv, ts := newTestServer(t, Config{}, 40)
	// A table created empty has no statistics to plan from.
	if _, err := srv.db.CreateTable("bare", "X", nil); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		path   string
		body   string
		status int
	}{
		{"bad json", "/v1/tables/authors/query", "{not json", http.StatusBadRequest},
		{"bad kind", "/v1/tables/authors/query", `{"kind":"scan"}`, http.StatusBadRequest},
		{"topk without k", "/v1/tables/authors/query", `{"kind":"topk","value":"v1"}`, http.StatusBadRequest},
		{"bad route", "/v1/tables/authors/query", `{"value":"v1","route":"warp"}`, http.StatusBadRequest},
		{"removed route", "/v1/tables/authors/query", `{"value":"v1","route":"heuristic"}`, http.StatusBadRequest},
		{"planner without statistics", "/v1/tables/bare/query", `{"value":"v1","route":"planner"}`, http.StatusConflict},
		{"unknown attr", "/v1/tables/authors/query", `{"attr":"Z","value":"v1"}`, http.StatusBadRequest},
		{"unknown table", "/v1/tables/nosuch/query", `{"value":"v1"}`, http.StatusNotFound},
		{"insert id 0", "/v1/tables/authors/insert", `{"id":0}`, http.StatusBadRequest},
		{"insert bad dist", "/v1/tables/authors/insert",
			`{"id":5,"unc":[{"name":"X","alts":[{"value":"a","prob":1.7}]}]}`, http.StatusBadRequest},
		{"delete id 0", "/v1/tables/authors/delete", `{"id":0}`, http.StatusBadRequest},
		{"delete unknown table", "/v1/tables/nosuch/delete", `{"id":3}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: got %s (%s), want %d", tc.name, resp.Status, raw, tc.status)
		}
		var body map[string]string
		if err := json.Unmarshal(raw, &body); err != nil || body["error"] == "" {
			t.Errorf("%s: error body %q not a JSON error document", tc.name, raw)
		}
	}
}

// TestOverload: with a single admission token and many concurrent
// queries, the excess sheds as 429 + Retry-After — and nothing ever
// surfaces as a 5xx.
func TestOverload(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflight: 1}, 3000)

	const clients = 16
	var ok200, shed429, other atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				resp := post(t, ts.URL+"/v1/tables/authors/query", map[string]any{"value": "v1", "qt": 0.1})
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
					shed429.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("%d responses were neither 200 nor 429", other.Load())
	}
	if ok200.Load() == 0 {
		t.Fatal("no request was served at all")
	}
	if shed429.Load() == 0 {
		t.Fatal("16 clients against max-inflight 1 never shed a 429")
	}
}

// TestDeadlinePropagation: timeout_ms is priced in modeled seconds only
// for a request that asks for "route":"planner" — refused with 504
// before it starts when the cheapest plan's modeled cost exceeds it. The
// same body without a route is bounded in real time only: it answers
// 200 with every row, routed by the fixed rule. A microscopic timeout
// still surfaces as 504, not 500, on either route.
func TestDeadlinePropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{}, 3000)
	// Two shards model at least two 100 ms file opens; the query itself
	// runs in about a millisecond.
	body := map[string]any{"value": "v1", "qt": 0.1, "timeout_ms": 150}
	body["route"] = "planner"
	resp := post(t, ts.URL+"/v1/tables/authors/query", body)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || !strings.Contains(string(raw), "admission refused") {
		t.Fatalf("priced request: want 504 admission refused, got %s: %s", resp.Status, raw)
	}
	delete(body, "route")
	rows, trailer := queryNDJSON(t, ts, body)
	// v1 is the 0.7 alternative of every 16th tuple and the 0.3
	// alternative of another 16th.
	if want := 3000/16 + (3000+10)/16; len(rows) != want || trailer.Count != want {
		t.Fatalf("unpriced request: %d rows (trailer %d), want %d", len(rows), trailer.Count, want)
	}
	if trailer.PlanSource != upidb.PlanSourceHeuristic || trailer.Plan != "" {
		t.Fatalf("unpriced request trailer: source %q plan %q", trailer.PlanSource, trailer.Plan)
	}
	for _, route := range []string{"", "planner"} {
		resp := post(t, ts.URL+"/v1/tables/authors/query",
			map[string]any{"value": "v1", "qt": 0.1, "timeout_ms": 1, "route": route})
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		// The default route may win the race against a 1 ms timer; what
		// it may not do is fail with anything but a deadline.
		if resp.StatusCode != http.StatusGatewayTimeout && !(route == "" && resp.StatusCode == http.StatusOK) {
			t.Fatalf("route %q under 1 ms: got %s: %s", route, resp.Status, raw)
		}
	}
}

// TestGracefulDrain: BeginDrain turns every endpoint (healthz
// included) into 503 while an in-flight request runs to completion;
// Drain returns once it has.
func TestGracefulDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{}, 3000)

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz before drain: %s", resp.Status)
		}
	}

	// Hold one request in flight across the drain flip: start a query,
	// read its first byte so the handler is definitely past admission,
	// then BeginDrain, then finish reading.
	resp := post(t, ts.URL+"/v1/tables/authors/query", map[string]any{"value": "v1", "qt": 0.1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight query: %s", resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadByte(); err != nil {
		t.Fatal(err)
	}
	srv.BeginDrain()

	// New work is refused everywhere.
	if resp2 := post(t, ts.URL+"/v1/tables/authors/query", map[string]any{"value": "v1"}); resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: %s", resp2.Status)
	} else {
		resp2.Body.Close()
	}
	if resp2, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz during drain: %s", resp2.Status)
		}
	}

	// The in-flight stream still completes.
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !bytes.Contains(rest, []byte(`"done":true`)) {
		t.Fatal("in-flight stream was cut off before its trailer")
	}

	// Drain returns promptly now that nothing is in flight.
	done := make(chan struct{})
	go func() { srv.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return")
	}
}

// TestMetricsEndpoint: /metrics serves the whole registry — engine,
// facade and server families — in Prometheus text format, stays up
// during drain, and counts the requests it observed.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{}, 200)

	// Generate some traffic so the counters are nonzero.
	resp := post(t, ts.URL+"/v1/tables/authors/query", map[string]any{"value": "v3", "qt": 0.2})
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics: %s", resp.Status)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Fatalf("/metrics content type %q", ct)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	out := scrape()
	for _, want := range []string{
		"# TYPE upidb_fracture_inserts_total counter",
		"# TYPE upidb_shard_scatters_total counter",
		"# TYPE upidb_planner_route_total counter",
		"# TYPE upidb_http_requests_total counter",
		"# TYPE upidb_http_request_seconds histogram",
		"# TYPE upidb_http_inflight gauge",
		`upidb_http_requests_total{endpoint="query",status="200"} 1`,
		`upidb_shard_fractures{`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	for _, gone := range []string{"upidb_plan_cache_", "upidb_shard_tuples"} {
		if strings.Contains(out, gone) {
			t.Errorf("scrape still exposes %q", gone)
		}
	}

	// Operators keep their telemetry while the server drains.
	srv.BeginDrain()
	if !strings.Contains(scrape(), "upidb_http_requests_total") {
		t.Error("scrape during drain lost the server families")
	}
}

// TestPprofGating: the profiling endpoints are absent by default and
// mounted only under Config.EnablePprof.
func TestPprofGating(t *testing.T) {
	_, off := newTestServer(t, Config{}, 0)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without opt-in: %s, want 404", resp.Status)
	}

	_, on := newTestServer(t, Config{EnablePprof: true}, 0)
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte("goroutine")) {
		t.Fatalf("pprof index with opt-in: %s (%d bytes)", resp.Status, len(raw))
	}
}

// TestStructuredRequestLogs: every served (and refused) request emits
// exactly one parseable JSON log line carrying endpoint, status,
// wall-clock and the handler's own fields.
func TestStructuredRequestLogs(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	cfg := Config{Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}}
	srv, ts := newTestServer(t, cfg, 200)

	resp := post(t, ts.URL+"/v1/tables/authors/query", map[string]any{"value": "v3", "qt": 0.2})
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	srv.BeginDrain()
	resp = post(t, ts.URL+"/v1/tables/authors/query", map[string]any{"value": "v3"})
	resp.Body.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2: %q", len(lines), lines)
	}
	var served, refused map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &served); err != nil {
		t.Fatalf("log line not JSON: %q: %v", lines[0], err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &refused); err != nil {
		t.Fatalf("log line not JSON: %q: %v", lines[1], err)
	}
	if served["endpoint"] != "query" || served["status"] != float64(200) {
		t.Errorf("served line: %v", served)
	}
	for _, key := range []string{"duration_ms", "shards", "dispatches", "yields", "count", "table"} {
		if _, ok := served[key]; !ok {
			t.Errorf("served line missing %q: %v", key, served)
		}
	}
	if refused["status"] != float64(503) || refused["refused"] != "draining" {
		t.Errorf("drain refusal line: %v", refused)
	}
}

// TestStatsPerShard: the stats endpoint carries the per-shard
// breakdown, one entry per shard, summing to the table totals.
func TestStatsPerShard(t *testing.T) {
	_, ts := newTestServer(t, Config{}, 200)
	resp, err := http.Get(ts.URL + "/v1/tables/authors/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.PerShard) != stats.Shards || stats.Shards != 2 {
		t.Fatalf("per_shard has %d entries for %d shards", len(stats.PerShard), stats.Shards)
	}
	var size int64
	for i, s := range stats.PerShard {
		if s.Shard != i {
			t.Errorf("entry %d is shard %d", i, s.Shard)
		}
		size += s.SizeBytes
	}
	if size != stats.SizeBytes || size == 0 {
		t.Errorf("per-shard sizes sum %d != table size %d", size, stats.SizeBytes)
	}
}

// TestStatsSurviveReopen: what GET /stats and StatsInfo report about a
// durable table — two fractures and a WAL-only tail of buffered inserts
// over two shards — is what they report after Close, Open and OpenTable.
// (The tuple counts they used to carry came from a statistics catalog
// that a reopen emptied: 70 before, 10 after.)
func TestStatsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := upidb.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("events", "X", nil, upidb.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 70; id++ {
		x, err := upidb.NewDiscrete([]upidb.Alternative{{Value: fmt.Sprintf("v%d", id%5), Prob: 0.9}})
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(&upidb.Tuple{ID: id, Existence: 1, Unc: []upidb.UncField{{Name: "X", Dist: x}}}); err != nil {
			t.Fatal(err)
		}
		if id == 30 || id == 60 {
			if err := tab.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := func(db *upidb.DB) (string, upidb.StatsInfo) {
		t.Helper()
		rec := httptest.NewRecorder()
		New(db, Config{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tables/events/stats", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/stats: %d %s", rec.Code, rec.Body)
		}
		return rec.Body.String(), db.Table("events").StatsInfo()
	}
	wire, info := stats(db)
	var decoded statsResponse
	if err := json.Unmarshal([]byte(wire), &decoded); err != nil {
		t.Fatal(err)
	}
	buffered := 0
	for _, s := range decoded.PerShard {
		buffered += s.BufferedInserts
	}
	if decoded.Fractures != 4 || buffered != 10 {
		t.Fatalf("fixture: %d fractures, %d buffered inserts, want 4 and 10: %s", decoded.Fractures, buffered, wire)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := upidb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.OpenTable("events", "X", nil); err != nil {
		t.Fatal(err)
	}
	wireAfter, infoAfter := stats(re)
	if wireAfter != wire {
		t.Errorf("/stats changed across reopen:\n before %s after  %s", wire, wireAfter)
	}
	if !reflect.DeepEqual(infoAfter, info) {
		t.Errorf("StatsInfo changed across reopen:\n before %+v\n after  %+v", info, infoAfter)
	}
}
