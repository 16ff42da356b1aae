package server

// Tests for how the query handler hands its bytes to the connection:
// the first rowsPerFlush lines are written and flushed at once, later
// ones only in writes of at least flushBytes, and the rest together
// with the trailer; and concurrent requests, which share the pooled
// line buffers, each get exactly the encoder's bytes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"upidb"
)

// recorder is a response writer that keeps each Write as one chunk and
// notes after how many chunks each Flush came.
type recorder struct {
	h       http.Header
	status  int
	writes  [][]byte
	flushes []int
}

func (r *recorder) Header() http.Header  { return r.h }
func (r *recorder) WriteHeader(code int) { r.status = code }
func (r *recorder) Flush()               { r.flushes = append(r.flushes, len(r.writes)) }
func (r *recorder) Write(b []byte) (int, error) {
	r.writes = append(r.writes, bytes.Clone(b))
	return len(b), nil
}

// addBigTable bulk-loads a table "big" whose value "big" has n answers,
// enough for several flushBytes writes.
func addBigTable(t testing.TB, db *upidb.DB, n int) {
	t.Helper()
	tuples := make([]*upidb.Tuple, n)
	for i := range tuples {
		x, err := upidb.NewDiscrete([]upidb.Alternative{{Value: "big", Prob: 0.3 + float64(i%500)/1000}})
		if err != nil {
			t.Fatal(err)
		}
		tuples[i] = &upidb.Tuple{ID: uint64(i + 1), Existence: 1, Unc: []upidb.UncField{{Name: "X", Dist: x}}}
	}
	if _, err := db.BulkLoadTable("big", "X", nil, tuples, upidb.WithCutoff(0.15)); err != nil {
		t.Fatal(err)
	}
}

// TestQueryWritePattern: a response's first write holds exactly the
// first rowsPerFlush lines and is flushed at once; every write after it
// but the last holds whole lines and at least flushBytes of them, with
// no flush in between; the last write ends with the trailer and is
// flushed. A 500-row answer is two writes, a 5000-row one more.
func TestQueryWritePattern(t *testing.T) {
	db, srv := rowsServer(t)
	addBigTable(t, db, 5000)
	for _, tc := range []struct {
		table, value string
		rows, writes int
	}{
		{"flat", "many", 500, 2},
		{"big", "big", 5000, 0},
	} {
		w := &recorder{h: make(http.Header)}
		serve(t, srv, w, tc.table, fmt.Sprintf(`{"value":%q,"qt":0.1}`, tc.value))
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", tc.table, w.status)
		}
		name := fmt.Sprintf("%d rows", tc.rows)
		n := len(w.writes)
		if n < 2 || tc.writes > 0 && n != tc.writes || tc.writes == 0 && n < 4 {
			t.Fatalf("%s: %d writes", name, n)
		}
		if lines := bytes.Count(w.writes[0], []byte("\n")); lines != rowsPerFlush {
			t.Fatalf("%s: first write holds %d lines, want %d", name, lines, rowsPerFlush)
		}
		if len(w.flushes) != 2 || w.flushes[0] != 1 || w.flushes[1] != n {
			t.Fatalf("%s: flushes after writes %v of %d, want after the first and the last", name, w.flushes, n)
		}
		for i, b := range w.writes[1 : n-1] {
			if len(b) < flushBytes || b[len(b)-1] != '\n' {
				t.Fatalf("%s: write %d is %d bytes ending in %q", name, i+1, len(b), b[len(b)-1])
			}
		}
		last := w.writes[n-1]
		lines := strings.Split(strings.TrimSuffix(string(last), "\n"), "\n")
		var trailer trailerLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil || !trailer.Done {
			t.Fatalf("%s: the last write ends with %q (err %v)", name, lines[len(lines)-1], err)
		}
		if trailer.Count != tc.rows {
			t.Fatalf("%s: trailer counts %d rows", name, trailer.Count)
		}
		if rest := len(last) - len(lines[len(lines)-1]) - 1; rest >= flushBytes {
			t.Fatalf("%s: the last write carries %d bytes of rows, past flushBytes", name, rest)
		}
	}
}

// encoderBody is the body the query handler serves for q on table:
// every row through json.Encoder, then the trailer.
func encoderBody(t testing.TB, db *upidb.DB, table string, q upidb.Query) []byte {
	t.Helper()
	tab := db.Table(table)
	res, err := tab.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
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
	info, shards := res.Info(), tab.NumShards()
	if err := enc.Encode(trailerLine{
		Done: true, Count: count,
		Partitions: info.Partitions, Shards: shards, Dispatches: int64(shards),
		Scans: int64(info.Partitions), Yields: int64(count), ModeledMS: info.ModeledTime.Milliseconds(),
	}); err != nil {
		t.Fatal(err)
	}
	return body.Bytes()
}

// TestConcurrentQueriesGetTheirOwnBytes: 8 clients query one Server
// over HTTP at once, each cycling through answers of 20 to 5000 rows on
// one- and two-shard tables, so the pooled line buffers pass from
// request to request; every body is byte for byte the encoder's.
func TestConcurrentQueriesGetTheirOwnBytes(t *testing.T) {
	db, srv := rowsServer(t)
	addBigTable(t, db, 5000)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	requests := []struct {
		table, body string
		q           upidb.Query
	}{
		{"flat", `{"value":"few","qt":0.1}`, upidb.PTQ("", "few", 0.1)},
		{"flat", `{"value":"many","qt":0.1}`, upidb.PTQ("", "many", 0.1)},
		{"big", `{"value":"big","qt":0.1}`, upidb.PTQ("", "big", 0.1)},
		{"big", `{"kind":"topk","value":"big","k":300}`, upidb.TopKQuery("big", 300)},
		{"frac", `{"value":"many","qt":0.05}`, upidb.PTQ("", "many", 0.05)},
	}
	want := make([][]byte, len(requests))
	for i, rq := range requests {
		// Once through the handler to warm pages, so the modeled times
		// the trailers carry agree.
		serve(t, srv, httptest.NewRecorder(), rq.table, rq.body)
		want[i] = encoderBody(t, db, rq.table, rq.q)
	}

	const clients, rounds = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(requests)
				rq := requests[i]
				resp, err := http.Post(ts.URL+"/v1/tables/"+rq.table+"/query", "application/json", strings.NewReader(rq.body))
				if err != nil {
					errs <- err
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want[i]) {
					errs <- fmt.Errorf("client %d round %d, request %d: %d bytes, want %d\n got %.200s\nwant %.200s", c, r, i, len(got), len(want[i]), got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAppendTrailerAndErrorLinesMatchJSON: the trailer and the in-band
// error line are appended by hand and must be the bytes json.Encoder
// wrote for them.
func TestAppendTrailerAndErrorLinesMatchJSON(t *testing.T) {
	encode := func(v any) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, tl := range []trailerLine{
		{},
		{Done: true, Count: 862, Partitions: 3, Shards: 2, Dispatches: 2, Scans: 3, Yields: 862, ModeledMS: 41},
		{Done: true, Count: -1, Partitions: math.MaxInt, Shards: math.MinInt, Dispatches: math.MaxInt64, Scans: math.MinInt64, Yields: 10, ModeledMS: -7},
	} {
		if got, want := appendTrailerLine(nil, tl), encode(tl); !bytes.Equal(got, want) {
			t.Fatalf("trailer %+v:\n got %s\nwant %s", tl, got, want)
		}
	}
	for _, msg := range []string{
		"", "upi: canceled", `quote " and \ backslash`, "<html> & tags", "tab\tnew\nline\x00nul",
		"line sep \u2028 para \u2029", "bad utf-8 \xff\xfe", "ünïcödé ✓",
	} {
		if got, want := appendErrorLine(nil, msg), encode(map[string]string{"error": msg}); !bytes.Equal(got, want) {
			t.Fatalf("error %q:\n got %s\nwant %s", msg, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf := make([]byte, 0, 256)
		_ = appendTrailerLine(buf, trailerLine{Done: true, Count: 862, Yields: 862})
	}); allocs != 0 {
		t.Fatalf("appendTrailerLine: %.0f allocations, want 0", allocs)
	}
}
