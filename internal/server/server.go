// Package server is the HTTP/JSON front end over a upidb.DB: the
// network face of the engine. It exposes the uncertain tables of one
// database as REST-ish resources:
//
//	POST /v1/tables/{table}/query    run a PTQ or top-k, stream NDJSON
//	POST /v1/tables/{table}/insert   upsert one tuple
//	POST /v1/tables/{table}/delete   delete by tuple ID
//	GET  /v1/tables/{table}/stats    table state with a per-shard
//	                                 breakdown
//	GET  /metrics                    Prometheus text exposition
//	GET  /healthz                    liveness (503 while draining)
//	GET  /debug/pprof/...            profiling (Config.EnablePprof only)
//
// Three serving disciplines, all built on machinery the engine already
// has:
//
//   - Admission by concurrency: a channel-of-tokens bucket caps
//     in-flight requests at Config.MaxInflight. An exhausted bucket
//     answers 429 + Retry-After immediately instead of queueing
//     unboundedly — overload sheds at the door, the worker-token
//     pattern.
//   - Deadlines: every request runs under a context deadline
//     (per-request timeout_ms, else Config.DefaultTimeout), which bounds
//     real time — 504 if it has passed before the query starts, an
//     in-band error line if it fires mid-stream. Nothing is priced:
//     every query takes the engine's one fixed route, and a request
//     naming a "route" is refused with 400.
//   - Graceful drain: BeginDrain flips the server to refusing new work
//     (503, and healthz goes unhealthy so load balancers steer away)
//     while Drain waits for in-flight requests to finish. SIGTERM in
//     cmd/upiserve triggers exactly this, then closes the DB.
//
// Query responses stream as NDJSON riding Results.Rows: one
// {"id","confidence"} object per result as the globally merged stream
// yields it — no tuple is built to serve a query — then one trailer
// object carrying counts and aggregated statistics.
// Mid-stream failures surface as an {"error"} line — the status code is
// already on the wire.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"upidb"
	"upidb/internal/obs"
)

// Config tunes a Server.
type Config struct {
	// MaxInflight caps concurrently served requests (the token-bucket
	// size). 0 defaults to 64.
	MaxInflight int
	// DefaultTimeout bounds requests that carry no timeout_ms of their
	// own. 0 means no default deadline.
	DefaultTimeout time.Duration
	// Logf, when set, receives one structured JSON line per served
	// request (endpoint, status, shard count, span counters,
	// wall-clock). nil disables request logging.
	Logf func(format string, args ...any)
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose heap contents and should only
	// face operators, not the open network.
	EnablePprof bool
}

// serverMetrics is the server-level metric bundle, registered on the
// DB's registry so one scrape covers engine and server families alike.
type serverMetrics struct {
	requests *obs.CounterVec   // {endpoint,status}
	latency  *obs.HistogramVec // {endpoint}: end-to-end service time
	inflight *obs.Gauge        // requests currently being served
	overload *obs.Counter      // 429s shed by the token bucket
	deadline *obs.Counter      // 504s (deadline passed before or during the query)
}

func newServerMetrics(r *upidb.MetricsRegistry) *serverMetrics {
	return &serverMetrics{
		requests: r.CounterVec("upidb_http_requests_total", "HTTP requests served, by endpoint and status.", "endpoint", "status"),
		latency:  r.HistogramVec("upidb_http_request_seconds", "End-to-end request service time, by endpoint.", obs.WallBuckets, "endpoint"),
		inflight: r.Gauge("upidb_http_inflight", "Requests currently being served."),
		overload: r.Counter("upidb_http_overload_refusals_total", "Requests shed with 429 by the admission token bucket."),
		deadline: r.Counter("upidb_http_deadline_refusals_total", "Requests answered 504: deadline passed before or during the query."),
	}
}

// Server serves one upidb.DB over HTTP. Create with New, expose with
// Handler, shut down with BeginDrain + Drain.
type Server struct {
	db  *upidb.DB
	cfg Config
	mux *http.ServeMux
	met *serverMetrics

	// tokens is the admission bucket: a request must take a token to be
	// served and returns it when done. Buffered to MaxInflight.
	tokens   chan struct{}
	draining atomic.Bool
	inflight sync.WaitGroup
}

// New builds a Server over db.
func New(db *upidb.DB, cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	s := &Server{db: db, cfg: cfg, tokens: make(chan struct{}, cfg.MaxInflight)}
	for i := 0; i < cfg.MaxInflight; i++ {
		s.tokens <- struct{}{}
	}
	s.met = newServerMetrics(db.MetricsRegistry())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	// /metrics bypasses the admission bucket and the drain check:
	// operators need telemetry most exactly when the server is
	// overloaded or draining.
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/tables/{table}/query", s.limited("query", s.handleQuery))
	s.mux.HandleFunc("POST /v1/tables/{table}/insert", s.limited("insert", s.handleInsert))
	s.mux.HandleFunc("POST /v1/tables/{table}/delete", s.limited("delete", s.handleDelete))
	s.mux.HandleFunc("GET /v1/tables/{table}/stats", s.limited("stats", s.handleStats))
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips the server into drain mode: every subsequent
// request (healthz included) is refused with 503 while in-flight ones
// run to completion. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain blocks until every in-flight request has finished. Call after
// BeginDrain (and typically after http.Server.Shutdown, which waits
// for connections; Drain additionally covers handlers still running).
func (s *Server) Drain() { s.inflight.Wait() }

// errorBody writes a JSON error document with the given status.
func errorBody(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// limited wraps a handler with the serving disciplines: drain check,
// token-bucket admission (429 + Retry-After on an empty bucket),
// metrics, and one structured JSON log line per request.
func (s *Server) limited(endpoint string, h func(http.ResponseWriter, *http.Request) (status int, fields map[string]any)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Count the request in before checking the drain flag: BeginDrain
		// happens-before Drain's Wait, so a request that saw draining ==
		// false is either inside the WaitGroup (Drain waits for it) or
		// already answered 503.
		s.inflight.Add(1)
		defer s.inflight.Done()
		if s.draining.Load() {
			errorBody(w, http.StatusServiceUnavailable, "server is draining")
			s.record(endpoint, http.StatusServiceUnavailable, 0, r, map[string]any{"refused": "draining"})
			return
		}
		select {
		case <-s.tokens:
		default:
			// Bucket empty: shed immediately rather than queue. The client
			// owns the retry policy; Retry-After is a hint.
			w.Header().Set("Retry-After", "1")
			errorBody(w, http.StatusTooManyRequests, "server at max in-flight requests")
			s.met.overload.Inc()
			s.record(endpoint, http.StatusTooManyRequests, 0, r, map[string]any{"refused": "overload"})
			return
		}
		defer func() { s.tokens <- struct{}{} }()
		s.met.inflight.Add(1)
		start := time.Now()
		status, fields := h(w, r)
		elapsed := time.Since(start)
		s.met.inflight.Add(-1)
		if status == http.StatusGatewayTimeout {
			s.met.deadline.Inc()
		}
		s.met.latency.With(endpoint).Observe(elapsed.Seconds())
		s.record(endpoint, status, elapsed, r, fields)
	}
}

// record counts one answered request into the metrics families and,
// when logging is on, emits its one-JSON-line request log (endpoint,
// status, wall-clock, plus whatever handler-specific fields the
// handler contributed — table, shard count, span counters, ...).
func (s *Server) record(endpoint string, status int, elapsed time.Duration, r *http.Request, fields map[string]any) {
	s.met.requests.With(endpoint, strconv.Itoa(status)).Inc()
	if s.cfg.Logf == nil {
		return
	}
	entry := map[string]any{
		"endpoint":    endpoint,
		"method":      r.Method,
		"path":        r.URL.Path,
		"status":      status,
		"duration_ms": float64(elapsed.Microseconds()) / 1000,
	}
	for k, v := range fields {
		entry[k] = v
	}
	line, err := json.Marshal(entry)
	if err != nil { // unreachable for the field types handlers emit
		s.cfg.Logf(`{"endpoint":%q,"status":%d,"log_error":%q}`, endpoint, status, err.Error())
		return
	}
	s.cfg.Logf("%s", line)
}

// handleMetrics serves the Prometheus text exposition of every metric
// family — engine (fracture/WAL/merge), shard, query and server
// alike, since they share the DB's registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.db.WritePrometheus(w)
}

// handleHealthz answers liveness probes: 200 while serving, 503 while
// draining so load balancers stop routing here before the listener
// closes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		errorBody(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// table resolves the {table} path value, answering 404 through the
// returned status when unknown.
func (s *Server) table(w http.ResponseWriter, r *http.Request) (*upidb.Table, int) {
	name := r.PathValue("table")
	t := s.db.Table(name)
	if t == nil {
		errorBody(w, http.StatusNotFound, "unknown table %q", name)
		return nil, http.StatusNotFound
	}
	return t, 0
}

// queryRequest is the wire form of one query.
type queryRequest struct {
	// Kind is "ptq" (default) or "topk".
	Kind  string  `json:"kind"`
	Attr  string  `json:"attr"`
	Value string  `json:"value"`
	QT    float64 `json:"qt"`
	K     int     `json:"k"`
	// TimeoutMS bounds this request's real time through the context
	// deadline. 0 uses the server default.
	TimeoutMS int `json:"timeout_ms"`
	// Route must be empty: routing is fixed, and a request that asks
	// for a route is refused rather than silently served another way.
	Route string `json:"route"`
}

// resultLine is one streamed NDJSON result. The query handler writes it
// with appendResultLine; the struct is the wire contract that function
// is tested against.
type resultLine struct {
	ID         uint64  `json:"id"`
	Confidence float64 `json:"confidence"`
}

// appendResultLine appends the bytes json.Encoder.Encode(resultLine{id,
// conf}) writes — newline included — without reflecting or allocating.
// The float follows encoding/json's rule: shortest 'f' form unless the
// magnitude is below 1e-6 or at least 1e21, then 'e' with a one-digit
// exponent written as e-9, not e-09. A non-finite confidence, which
// encoding/json refuses, appends nothing.
func appendResultLine(dst []byte, id uint64, conf float64) []byte {
	if math.IsNaN(conf) || math.IsInf(conf, 0) {
		return dst
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, id, 10)
	dst = append(dst, `,"confidence":`...)
	format := byte('f')
	if abs := math.Abs(conf); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, conf, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return append(dst, '}', '\n')
}

// rowsPerFlush is how many result lines the query handler buffers
// before writing and flushing them to the client.
const rowsPerFlush = 64

// trailerLine closes a successful query stream.
type trailerLine struct {
	Done       bool  `json:"done"`
	Count      int   `json:"count"`
	Partitions int   `json:"partitions"`
	Shards     int   `json:"shards"`
	Dispatches int64 `json:"dispatches"`
	Scans      int64 `json:"scans"`
	Yields     int64 `json:"yields"`
	ModeledMS  int64 `json:"modeled_ms"`
}

// queryStatus maps an engine error onto an HTTP status.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, upidb.ErrUnknownAttr):
		return http.StatusBadRequest
	case errors.Is(err, upidb.ErrCanceled):
		// The deadline passed before the query started.
		return http.StatusGatewayTimeout
	case errors.Is(err, upidb.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// handleQuery runs one PTQ/top-k and streams its results as NDJSON.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) (int, map[string]any) {
	t, status := s.table(w, r)
	if t == nil {
		return status, nil
	}
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		errorBody(w, http.StatusBadRequest, "bad query body: %v", err)
		return http.StatusBadRequest, nil
	}

	var q upidb.Query
	kind := strings.ToLower(req.Kind)
	if kind == "" {
		kind = "ptq"
	}
	switch kind {
	case "ptq":
		q = upidb.PTQ(req.Attr, req.Value, req.QT)
	case "topk":
		if req.K <= 0 {
			errorBody(w, http.StatusBadRequest, "topk requires k >= 1")
			return http.StatusBadRequest, nil
		}
		q = upidb.TopKQuery(req.Value, req.K)
	default:
		errorBody(w, http.StatusBadRequest, "unknown query kind %q (want \"ptq\" or \"topk\")", req.Kind)
		return http.StatusBadRequest, nil
	}
	if req.Route != "" {
		errorBody(w, http.StatusBadRequest, "route %q refused: routing is fixed (omit \"route\")", req.Route)
		return http.StatusBadRequest, nil
	}

	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel func()
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// The span counters of the trailer and the request log need no trace
	// sink: an admitted query is dispatched to every shard, each
	// partition the stream read is one scan, and each streamed row one
	// yield.
	shards, count := t.NumShards(), 0
	fields := func(dispatches, scans int) map[string]any {
		return map[string]any{
			"table":      t.Name(),
			"kind":       kind,
			"shards":     shards,
			"dispatches": dispatches,
			"scans":      scans,
			"yields":     count,
		}
	}

	res, err := t.Run(ctx, q)
	if err != nil {
		status := queryStatus(err)
		errorBody(w, status, "%v", err)
		f := fields(0, 0)
		f["error"] = err.Error()
		return status, f
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// Result lines need the ID and the confidence only, so the handler
	// ranges over Rows — no tuple is built on this path — and appends
	// them to one buffer written out every rowsPerFlush rows.
	lines := make([]byte, 0, 4096)
	writeLines := func() {
		_, _ = w.Write(lines)
		lines = lines[:0]
	}
	for row, err := range res.Rows() {
		if err != nil {
			// The 200 is already on the wire; the error line is the
			// in-band failure contract NDJSON consumers check for.
			writeLines()
			_ = enc.Encode(map[string]string{"error": err.Error()})
			f := fields(shards, res.Info().Partitions)
			f["stream_error"] = err.Error()
			return http.StatusOK, f
		}
		lines = appendResultLine(lines, row.ID, row.Confidence)
		count++
		if count%rowsPerFlush == 0 {
			writeLines()
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	writeLines()
	info := res.Info()
	_ = enc.Encode(trailerLine{
		Done:       true,
		Count:      count,
		Partitions: info.Partitions,
		Shards:     shards,
		Dispatches: int64(shards),
		Scans:      int64(info.Partitions),
		Yields:     int64(count),
		ModeledMS:  info.ModeledTime.Milliseconds(),
	})
	if flusher != nil {
		flusher.Flush()
	}
	f := fields(shards, info.Partitions)
	f["count"] = count
	return http.StatusOK, f
}

// wireTuple is the JSON form of one uncertain tuple.
type wireTuple struct {
	ID        uint64  `json:"id"`
	Existence float64 `json:"existence"` // 0 defaults to 1
	Det       []struct {
		Name  string `json:"name"`
		Value string `json:"value"`
	} `json:"det"`
	Unc []struct {
		Name string `json:"name"`
		Alts []struct {
			Value string  `json:"value"`
			Prob  float64 `json:"prob"`
		} `json:"alts"`
	} `json:"unc"`
	Payload string `json:"payload"`
}

// toTuple validates and converts the wire form.
func (wt wireTuple) toTuple() (*upidb.Tuple, error) {
	if wt.ID == 0 {
		return nil, fmt.Errorf("tuple id must be >= 1")
	}
	tup := &upidb.Tuple{ID: wt.ID, Existence: wt.Existence}
	if tup.Existence == 0 {
		tup.Existence = 1
	}
	for _, d := range wt.Det {
		tup.Det = append(tup.Det, upidb.DetField{Name: d.Name, Value: d.Value})
	}
	for _, u := range wt.Unc {
		alts := make([]upidb.Alternative, 0, len(u.Alts))
		for _, a := range u.Alts {
			alts = append(alts, upidb.Alternative{Value: a.Value, Prob: a.Prob})
		}
		dist, err := upidb.NewDiscrete(alts)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: %w", u.Name, err)
		}
		tup.Unc = append(tup.Unc, upidb.UncField{Name: u.Name, Dist: dist})
	}
	if wt.Payload != "" {
		tup.Payload = []byte(wt.Payload)
	}
	return tup, nil
}

// handleInsert upserts one tuple into the table (routed to its owning
// shard).
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) (int, map[string]any) {
	t, status := s.table(w, r)
	if t == nil {
		return status, nil
	}
	var wt wireTuple
	if err := json.NewDecoder(r.Body).Decode(&wt); err != nil {
		errorBody(w, http.StatusBadRequest, "bad tuple body: %v", err)
		return http.StatusBadRequest, nil
	}
	tup, err := wt.toTuple()
	if err != nil {
		errorBody(w, http.StatusBadRequest, "invalid tuple: %v", err)
		return http.StatusBadRequest, nil
	}
	if err := t.Insert(tup); err != nil {
		status := queryStatus(err)
		errorBody(w, status, "%v", err)
		return status, map[string]any{"table": t.Name(), "id": tup.ID, "error": err.Error()}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"ok": true, "id": tup.ID})
	return http.StatusOK, map[string]any{"table": t.Name(), "id": tup.ID}
}

// handleDelete removes one tuple by ID.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) (int, map[string]any) {
	t, status := s.table(w, r)
	if t == nil {
		return status, nil
	}
	var body struct {
		ID uint64 `json:"id"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		errorBody(w, http.StatusBadRequest, "bad delete body: %v", err)
		return http.StatusBadRequest, nil
	}
	if body.ID == 0 {
		errorBody(w, http.StatusBadRequest, "delete requires id >= 1")
		return http.StatusBadRequest, nil
	}
	if err := t.Delete(body.ID); err != nil {
		status := queryStatus(err)
		errorBody(w, status, "%v", err)
		return status, map[string]any{"table": t.Name(), "id": body.ID, "error": err.Error()}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"ok": true, "id": body.ID})
	return http.StatusOK, map[string]any{"table": t.Name(), "id": body.ID}
}

// shardStatsLine is one shard's slice in the stats response — the
// skew view: a hot shard shows up as an outlier size or buffer, a
// lagging merge as an outlier fracture count.
type shardStatsLine struct {
	Shard           int   `json:"shard"`
	Fractures       int   `json:"fractures"`
	BufferedInserts int   `json:"buffered_inserts"`
	SizeBytes       int64 `json:"size_bytes"`
}

// statsResponse is the wire form of GET /stats.
type statsResponse struct {
	Table       string           `json:"table"`
	PrimaryAttr string           `json:"primary_attr"`
	Secondary   []string         `json:"secondary_attrs"`
	Shards      int              `json:"shards"`
	Fractures   int              `json:"fractures"`
	SizeBytes   int64            `json:"size_bytes"`
	PerShard    []shardStatsLine `json:"per_shard"`
}

// handleStats reports table state: the aggregates over shards and the
// per-shard breakdown.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) (int, map[string]any) {
	t, status := s.table(w, r)
	if t == nil {
		return status, nil
	}
	si := t.StatsInfo()
	perShard := make([]shardStatsLine, len(si.Shards))
	for i, sh := range si.Shards {
		perShard[i] = shardStatsLine(sh)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(statsResponse{
		Table:       t.Name(),
		PrimaryAttr: t.PrimaryAttr(),
		Secondary:   t.SecondaryAttrs(),
		Shards:      t.NumShards(),
		Fractures:   t.NumFractures(),
		SizeBytes:   t.SizeBytes(),
		PerShard:    perShard,
	})
	return http.StatusOK, map[string]any{"table": t.Name(), "shards": t.NumShards()}
}
