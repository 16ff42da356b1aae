package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"upidb"
)

// FuzzQueryBody posts arbitrary bytes to the query handler of a small
// in-memory table. Whatever the body, the handler does not panic,
// answers with a status it maps deliberately, and a 200 is a well-formed
// NDJSON stream: result lines followed by a done trailer whose count is
// the number of result lines. The one other ending of a 200 is an
// in-band cancellation line, when the body's own timeout_ms expired
// after the rows started flowing. A body that decodes with a non-empty
// "route" is refused with 400: routing is fixed.
//
//	go test -run '^$' -fuzz '^FuzzQueryBody$' -fuzztime 15s ./internal/server
func FuzzQueryBody(f *testing.F) {
	// The bodies the handler tests send.
	for _, body := range []string{
		`{"value":"v3","qt":0.2}`,
		`{"kind":"topk","value":"v3","k":5}`,
		`{"value":"v1","qt":0.1}`,
		`{"value":"v1"}`,
		`{"value":"v1","qt":0.1,"timeout_ms":150}`,
		`{"value":"v1","qt":0.1,"timeout_ms":1,"route":""}`,
		`{"route":"planner"}`,
		`{"value":"v1","qt":0.1,"timeout_ms":150,"route":"planner"}`,
		`{not json`,
		`{"kind":"scan"}`,
		`{"kind":"topk","value":"v1"}`,
		`{"value":"v1","route":"warp"}`,
		`{"value":"v1","route":"heuristic"}`,
		`{"attr":"Z","value":"v1"}`,
		`{"attr":"Y","value":"w2","qt":0.5}`,
	} {
		f.Add([]byte(body))
	}
	srv, _ := newTestServer(f, Config{}, 200)
	h := srv.Handler()
	deliberate := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusTooManyRequests:    true,
		http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tables/authors/query", bytes.NewReader(body)))
		if !deliberate[rec.Code] {
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
		var req queryRequest
		if json.Unmarshal(body, &req) == nil && req.Route != "" && rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q names route %q: status %d, want 400", body, req.Route, rec.Code)
		}
		if rec.Code != http.StatusOK {
			return
		}
		results := 0
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			line := sc.Bytes()
			var probe struct {
				Done  bool    `json:"done"`
				Count int     `json:"count"`
				Error *string `json:"error"`
			}
			if err := json.Unmarshal(line, &probe); err != nil {
				t.Fatalf("body %q: bad NDJSON line %q: %v", body, line, err)
			}
			switch {
			case probe.Error != nil:
				if !strings.Contains(*probe.Error, upidb.ErrCanceled.Error()) || sc.Scan() {
					t.Fatalf("body %q: in-band error %q is not a final cancellation", body, *probe.Error)
				}
				return
			case probe.Done:
				if probe.Count != results || sc.Scan() {
					t.Fatalf("body %q: trailer count %d after %d result lines, or lines after it", body, probe.Count, results)
				}
				return
			}
			results++
		}
		t.Fatalf("body %q: 200 without a done trailer after %d result lines", body, results)
	})
}
