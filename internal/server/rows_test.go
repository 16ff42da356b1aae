package server

// Tests for the query handler's row path: result lines are appended,
// not reflected, and must be the bytes encoding/json wrote; the handler
// ranges over Results.Rows, so it builds no tuple and allocates nothing
// per row; and a corrupt tuple body still surfaces as the in-band error
// line.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"upidb"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi/upitest"
)

// TestAppendResultLineMatchesJSON: appendResultLine writes exactly what
// json.Marshal(resultLine{...}) does, over the edges of encoding/json's
// float rule and 10 000 seeded random pairs.
func TestAppendResultLineMatchesJSON(t *testing.T) {
	check := func(id uint64, conf float64) {
		t.Helper()
		want, err := json.Marshal(resultLine{ID: id, Confidence: conf})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if got := appendResultLine(nil, id, conf); !bytes.Equal(got, want) {
			t.Fatalf("id %d conf %v (%#x):\n got %s\nwant %s", id, conf, math.Float64bits(conf), got, want)
		}
	}
	ids := []uint64{0, 1, 9, 10, 1<<32 - 1, 1 << 32, 1<<53 + 1, math.MaxInt64, math.MaxUint64}
	confs := []float64{
		1, 0.1, 0.5, 0.25, 1e-6, 9.99e-7, 9.999999999999999e-7, 1.0000000000000002e-6, 5e-324,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.Nextafter(1, 0), math.Nextafter(1, 2),
		0, math.Copysign(0, -1), 0.30000000000000004, 1e-7, 1.5e-9, 1e-10, 1e-100, 1e20, 1e21,
		9.999999999999999e20, 1.5e21, 1e22, 1e100, math.MaxFloat64, -0.5, -1e-7, -1e21, 123456789.125,
	}
	for _, id := range ids {
		for _, conf := range confs {
			check(id, conf)
		}
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 10_000; i++ {
		var conf float64
		switch i % 4 {
		case 0: // a confidence as the engine produces them
			conf = rng.Float64()
		case 1: // a product of two probabilities
			conf = rng.Float64() * rng.Float64() * rng.Float64()
		case 2: // any magnitude around the two format switches
			conf = rng.Float64() * math.Pow(10, float64(rng.Intn(40)-12))
		default: // any finite bit pattern
			for {
				conf = math.Float64frombits(rng.Uint64())
				if !math.IsNaN(conf) && !math.IsInf(conf, 0) {
					break
				}
			}
		}
		check(rng.Uint64()>>uint(rng.Intn(64)), conf)
	}

	// encoding/json refuses a non-finite float, and the handler dropped
	// that Encode error: such a row writes nothing.
	for _, conf := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(resultLine{ID: 1, Confidence: conf}); err == nil {
			t.Fatalf("encoding/json accepts %v", conf)
		}
		if got := appendResultLine([]byte("x"), 1, conf); string(got) != "x" {
			t.Fatalf("conf %v appended %q", conf, got)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf := make([]byte, 0, 128)
		buf = appendResultLine(buf, math.MaxUint64, 0.30000000000000004)
		_ = appendResultLine(buf, 7, 5e-324)
	}); allocs != 0 {
		t.Fatalf("appendResultLine: %.0f allocations, want 0", allocs)
	}
}

// rowsServer builds a one-partition table whose value "few" has 20
// answers and "many" 500, and a two-shard table with fractures, a RAM
// buffer and deletes, behind one server.
func rowsServer(t testing.TB, opts ...upidb.Option) (*upidb.DB, *Server) {
	t.Helper()
	db, err := upidb.Create("", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	mk := func(id uint64, value string, p float64) *upidb.Tuple {
		x, err := upidb.NewDiscrete([]upidb.Alternative{{Value: value, Prob: p}, {Value: "other", Prob: (1 - p) / 2}})
		if err != nil {
			t.Fatal(err)
		}
		y, err := upidb.NewDiscrete([]upidb.Alternative{{Value: "y" + value, Prob: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return &upidb.Tuple{ID: id, Existence: 1, Unc: []upidb.UncField{{Name: "X", Dist: x}, {Name: "Y", Dist: y}}}
	}
	var base []*upidb.Tuple
	for i := 0; i < 20; i++ {
		base = append(base, mk(uint64(len(base)+1), "few", 0.3+float64(i)/100))
	}
	for i := 0; i < 500; i++ {
		base = append(base, mk(uint64(len(base)+1), "many", 0.3+float64(i%65)/100))
	}
	if _, err := db.BulkLoadTable("flat", "X", []string{"Y"}, base, upidb.WithCutoff(0.15)); err != nil {
		t.Fatal(err)
	}

	frac, err := db.BulkLoadTable("frac", "X", []string{"Y"}, base[:200], upidb.WithCutoff(0.15), upidb.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(1000)
	for f := 0; f < 3; f++ {
		for i := 0; i < 30; i++ {
			if err := frac.Insert(mk(id, "many", 0.2+float64(id%75)/100)); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if err := frac.Delete(uint64(30 + f)); err != nil {
			t.Fatal(err)
		}
		if err := frac.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := frac.Insert(mk(id, "many", 0.5)); err != nil {
			t.Fatal(err)
		}
		id++
	}
	if err := frac.Delete(1001); err != nil {
		t.Fatal(err)
	}
	return db, New(db, Config{})
}

// discard is a response writer that keeps nothing, so that what a
// request allocates is the handler's doing.
type discard struct {
	h      http.Header
	status int
	n      int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }
func (d *discard) WriteHeader(code int)        { d.status = code }
func (d *discard) Flush()                      {}

// serve runs one query request through the handler into w.
func serve(t testing.TB, srv *Server, w http.ResponseWriter, table, body string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/tables/"+table+"/query", strings.NewReader(body))
	srv.Handler().ServeHTTP(w, req)
}

// TestQueryBodyIsTheEncodersBytes: for a fixed table and request set —
// no rows, fewer than one flush batch, exactly one, several, a top-k, a
// secondary PTQ, a fractured two-shard table — the
// response body is byte for byte what the handler produced when every
// line went through json.Encoder over Results.All: the result lines, in
// order, then the trailer.
func TestQueryBodyIsTheEncodersBytes(t *testing.T) {
	db, srv := rowsServer(t)
	requests := []struct {
		table string
		req   queryRequest
		q     upidb.Query
	}{
		{"flat", queryRequest{Value: "none", QT: 0.1}, upidb.PTQ("", "none", 0.1)},
		{"flat", queryRequest{Value: "few", QT: 0.1}, upidb.PTQ("", "few", 0.1)},
		{"flat", queryRequest{Value: "many", QT: 0.1}, upidb.PTQ("", "many", 0.1)},
		{"flat", queryRequest{Kind: "topk", Value: "many", K: 64}, upidb.TopKQuery("many", 64)},
		{"flat", queryRequest{Kind: "topk", Value: "many", K: 128}, upidb.TopKQuery("many", 128)},
		{"flat", queryRequest{Attr: "Y", Value: "ymany", QT: 0.5}, upidb.PTQ("Y", "ymany", 0.5)},
		{"frac", queryRequest{Value: "many", QT: 0.05}, upidb.PTQ("", "many", 0.05)},
		{"frac", queryRequest{Kind: "topk", Value: "many", K: 70}, upidb.TopKQuery("many", 70)},
		{"frac", queryRequest{Attr: "Y", Value: "ymany", QT: 0.5}, upidb.PTQ("Y", "ymany", 0.5)},
	}
	ctx := context.Background()
	for i, rq := range requests {
		body, err := json.Marshal(rq.req)
		if err != nil {
			t.Fatal(err)
		}
		// Once to warm pages, so the modeled times of the two executions
		// below agree.
		serve(t, srv, httptest.NewRecorder(), rq.table, string(body))

		tab := db.Table(rq.table)
		res, err := tab.Run(ctx, rq.q)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		count := 0
		for r, err := range res.All() {
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(resultLine{ID: r.Tuple.ID, Confidence: r.Confidence}); err != nil {
				t.Fatal(err)
			}
			count++
		}
		info := res.Info()
		shards := tab.NumShards()
		if err := enc.Encode(trailerLine{
			Done: true, Count: count,
			Partitions: info.Partitions, Shards: shards, Dispatches: int64(shards),
			Scans: int64(info.Partitions), Yields: int64(count), ModeledMS: info.ModeledTime.Milliseconds(),
		}); err != nil {
			t.Fatal(err)
		}

		rec := httptest.NewRecorder()
		serve(t, srv, rec, rq.table, string(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("request %d (%d rows): body differs from the encoder's\n got %.300s\nwant %.300s", i, count, got, want.Bytes())
		}
		if i > 0 && count == 0 {
			t.Fatalf("request %d has no rows; check vacuous", i)
		}
	}
}

// TestQueryHandlerAllocatesNothingPerRow: a 500-row response costs the
// handler what a 20-row one does, plus the kept rows' slice doublings
// and the line buffer's flushes — nothing that grows with the rows. The
// reflective encoder alone was one allocation a row, the tuples it never
// looked at five more.
func TestQueryHandlerAllocatesNothingPerRow(t *testing.T) {
	_, srv := rowsServer(t)
	allocs := func(value string, want int) float64 {
		body := fmt.Sprintf(`{"value":%q,"qt":0.2}`, value)
		lines := 0
		n := testing.AllocsPerRun(20, func() {
			w := &discard{h: make(http.Header)}
			serve(t, srv, w, "flat", body)
			if w.status != http.StatusOK {
				t.Fatalf("status %d", w.status)
			}
			lines = w.n
		})
		if lines < want*20 {
			t.Fatalf("%q: %d body bytes for %d rows", value, lines, want)
		}
		return n
	}
	few, many := allocs("few", 20), allocs("many", 500)
	// 480 more rows: at most six more doublings of the kept rows' slice.
	if perRow := (many - few) / 480; many > few+8 {
		t.Fatalf("handler allocated %.0f times for 20 rows and %.0f for 500: %.2f per row, want 0", few, many, perRow)
	}
	t.Logf("query handler: %.0f allocations for 20 rows, %.0f for 500", few, many)
}

// TestQueryStreamCorruptBody: a corrupt tuple body under a served query
// ends the NDJSON stream with the in-band error line carrying the
// codec's text, after the rows ranked above it and without a trailer,
// and leaves no partition pinned.
func TestQueryStreamCorruptBody(t *testing.T) {
	backend := storage.NewMemBackend()
	db, srv := rowsServer(t, upidb.WithBackend(backend))
	tab := db.Table("frac")
	if err := tab.DropCaches(); err != nil { // every page on the backend
		t.Fatal(err)
	}
	// Only the "frac" table has flushed fractures.
	c, err := upitest.CorruptHeapBody(backend, upitest.FractureHeapFile(backend.List()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	_, codecErr := tuple.Decode(c.Body)
	if codecErr == nil {
		t.Fatal("the damaged body still decodes")
	}
	pins := int64(tab.NumShards() + tab.NumFractures())
	const series = "upidb_stream_pin_releases_total"
	before := db.Metrics().Counters[series]

	rec := httptest.NewRecorder()
	serve(t, srv, rec, "frac", fmt.Sprintf(`{"value":%q,"qt":0}`, c.Value))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	raw, err := io.ReadAll(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	last := lines[len(lines)-1]
	wantLast, err := json.Marshal(map[string]string{"error": codecErr.Error()})
	if err != nil {
		t.Fatal(err)
	}
	if last != string(wantLast) {
		t.Fatalf("last line %s, want %s", last, wantLast)
	}
	for _, line := range lines[:len(lines)-1] {
		var r resultLine
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.ID == 0 || r.ID == c.ID {
			t.Fatalf("line %q before the error line (err %v)", line, err)
		}
	}
	if got := db.Metrics().Counters[series] - before; got != pins {
		t.Fatalf("failed stream released %d pins of %d", got, pins)
	}
}

// BenchmarkHandleQueryRows reports what the handler spends per streamed
// row (query execution included, the network excluded).
func BenchmarkHandleQueryRows(b *testing.B) {
	_, srv := rowsServer(b)
	const body, rows = `{"value":"many","qt":0.2}`, 500
	w := &discard{h: make(http.Header)}
	serve(b, srv, w, "flat", body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, srv, w, "flat", body)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	b.ReportMetric(testing.AllocsPerRun(5, func() { serve(b, srv, w, "flat", body) })/rows, "allocs/row")
}
