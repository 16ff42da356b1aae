package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"upidb"
	"upidb/internal/dataset"
	"upidb/internal/server"
)

type opKind uint8

const (
	opPTQ       opKind = iota // primary PTQ, streamed
	opTopK                    // top-k, streamed
	opLowQT                   // primary PTQ below the cutoff, streamed
	opSecondary               // PTQ on Country, streamed
	opCollect                 // primary PTQ consumed with Collect
	opCircle                  // spatial circle, streamed
	opSegment                 // spatial segment PTQ, Collect
	opInsert
	opDelete
	numKinds
)

func (k opKind) isWrite() bool { return k == opInsert || k == opDelete }

// collects reports whether the op materialises its result: such ops
// have no first-row time.
func (k opKind) collects() bool { return k == opCollect || k == opSegment }

var kindNames = [numKinds]string{"ptq", "topk", "lowqt", "secondary", "collect", "circle", "segment", "insert", "delete"}

func (k opKind) String() string { return kindNames[k] }

// op is one generated request. Everything the engine sees is in it.
type op struct {
	kind   opKind
	value  string
	qt     float64
	k      int
	circle circleQuery
	tuple  *upidb.Tuple
	obs    *upidb.Observation
	id     uint64
	pool   int // index into the circle or segment pool (spatial ops)
	probe  int // 1-based index into the ladder's probe set, 0 = not a probe
}

// opResult is what came back. rows is reused across ops of one client.
type opResult struct {
	rows     []row
	firstRow time.Time // zero when no row arrived or the op collects
	plan     string
}

// transport executes ops against one workload instance.
type transport interface {
	do(ctx context.Context, o *op, res *opResult) error
}

// query builds the engine descriptor of a discrete read op.
func (o *op) query() upidb.Query {
	switch o.kind {
	case opTopK:
		return upidb.TopKQuery(o.value, o.k)
	case opSecondary:
		return upidb.PTQ(dataset.AttrCountry, o.value, o.qt)
	}
	return upidb.PTQ("", o.value, o.qt)
}

// embedTransport calls Table.Run in process.
type embedTransport struct{ tab *upidb.Table }

func (t embedTransport) do(ctx context.Context, o *op, res *opResult) error {
	switch o.kind {
	case opInsert:
		return t.tab.Insert(o.tuple)
	case opDelete:
		return t.tab.Delete(o.id)
	}
	rs, err := t.tab.Run(ctx, o.query())
	if err != nil {
		return err
	}
	if o.kind.collects() {
		for _, r := range rs.Collect() {
			res.rows = append(res.rows, row{r.Tuple.ID, r.Confidence})
		}
		res.plan = rs.Info().Plan
		return rs.Err()
	}
	for r, err := range rs.All() {
		if err != nil {
			return err
		}
		if len(res.rows) == 0 {
			res.firstRow = time.Now()
		}
		res.rows = append(res.rows, row{r.Tuple.ID, r.Confidence})
	}
	res.plan = rs.Info().Plan
	return nil
}

// spatialTransport calls SpatialTable.Run in process.
type spatialTransport struct{ tab *upidb.SpatialTable }

func (t spatialTransport) do(ctx context.Context, o *op, res *opResult) error {
	switch o.kind {
	case opInsert:
		return t.tab.Insert(o.obs)
	case opSegment:
		rs, err := t.tab.Run(ctx, upidb.Segment(o.value, o.qt))
		if err != nil {
			return err
		}
		for _, r := range rs.Collect() {
			res.rows = append(res.rows, row{r.Obs.ID, r.Confidence})
		}
		return rs.Err()
	}
	rs, err := t.tab.Run(ctx, upidb.Circle(o.circle.center, o.circle.radius, circleThreshold))
	if err != nil {
		return err
	}
	for r, err := range rs.All() {
		if err != nil {
			return err
		}
		if len(res.rows) == 0 {
			res.firstRow = time.Now()
		}
		res.rows = append(res.rows, row{r.Obs.ID, r.Confidence})
	}
	return nil
}

// httpTransport speaks the server's wire protocol over loopback TCP and
// drains every NDJSON response to its trailer. One per client.
type httpTransport struct {
	base   string
	client *http.Client
	rec    *recorder
	body   bytes.Buffer
}

// wire forms of the request bodies (the server's JSON field names).
type wireQuery struct {
	Kind  string  `json:"kind"`
	Attr  string  `json:"attr,omitempty"`
	Value string  `json:"value"`
	QT    float64 `json:"qt,omitempty"`
	K     int     `json:"k,omitempty"`
}

type wireAlt struct {
	Value string  `json:"value"`
	Prob  float64 `json:"prob"`
}

type wireUnc struct {
	Name string    `json:"name"`
	Alts []wireAlt `json:"alts"`
}

type wireDet struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

type wireTuple struct {
	ID        uint64    `json:"id"`
	Existence float64   `json:"existence"`
	Det       []wireDet `json:"det"`
	Unc       []wireUnc `json:"unc"`
	Payload   string    `json:"payload"`
}

func toWire(t *upidb.Tuple) wireTuple {
	w := wireTuple{ID: t.ID, Existence: t.Existence}
	for _, d := range t.Det {
		w.Det = append(w.Det, wireDet(d))
	}
	for _, u := range t.Unc {
		wu := wireUnc{Name: u.Name}
		for _, a := range u.Dist {
			wu.Alts = append(wu.Alts, wireAlt(a))
		}
		w.Unc = append(w.Unc, wu)
	}
	return w
}

const tableName = "authors"

func (t *httpTransport) do(ctx context.Context, o *op, res *opResult) error {
	var endpoint string
	var body any
	switch o.kind {
	case opInsert:
		endpoint, body = "insert", toWire(o.tuple)
	case opDelete:
		endpoint, body = "delete", map[string]uint64{"id": o.id}
	case opTopK:
		endpoint, body = "query", wireQuery{Kind: "topk", Value: o.value, K: o.k}
	case opSecondary:
		endpoint, body = "query", wireQuery{Kind: "ptq", Attr: dataset.AttrCountry, Value: o.value, QT: o.qt}
	default:
		endpoint, body = "query", wireQuery{Kind: "ptq", Value: o.value, QT: o.qt}
	}
	t.body.Reset()
	if err := json.NewEncoder(&t.body).Encode(body); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+"/v1/tables/"+tableName+"/"+endpoint, &t.body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")

	span := t.rec.begin(levelRequest, "http.request")
	defer func() { t.rec.end(levelRequest, span) }()
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: status %d: %s", endpoint, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if endpoint != "query" {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return readNDJSON(resp.Body, res)
}

var (
	idPrefix   = []byte(`{"id":`)
	confPrefix = []byte(`,"confidence":`)
)

// readNDJSON drains a query response: result lines, then the trailer.
// A stream that ends without its trailer, or carries an in-band error
// line, is a failed op.
func readNDJSON(r io.Reader, res *opResult) error {
	br := bufio.NewReaderSize(r, 32<<10)
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("query stream ended without a trailer after %d rows", len(res.rows))
		}
		if err != nil {
			return err
		}
		if rw, ok := parseResultLine(line); ok {
			if len(res.rows) == 0 {
				res.firstRow = time.Now()
			}
			res.rows = append(res.rows, rw)
			continue
		}
		var tail struct {
			Done  bool   `json:"done"`
			Count int    `json:"count"`
			Plan  string `json:"plan"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &tail); err != nil {
			return fmt.Errorf("bad NDJSON line %q: %w", line, err)
		}
		switch {
		case tail.Error != "":
			return fmt.Errorf("in-band error: %s", tail.Error)
		case !tail.Done:
			return fmt.Errorf("unexpected NDJSON line %q", line)
		case tail.Count != len(res.rows):
			return fmt.Errorf("trailer counts %d rows, stream carried %d", tail.Count, len(res.rows))
		}
		res.plan = tail.Plan
		_, err = io.Copy(io.Discard, br)
		return err
	}
}

// parseResultLine reads `{"id":N,"confidence":F}` without reflection:
// the client shares the two cores with the server, so its own cost
// dilutes what the benchmark can see of the engine.
func parseResultLine(line []byte) (row, bool) {
	if !bytes.HasPrefix(line, idPrefix) {
		return row{}, false
	}
	rest := line[len(idPrefix):]
	i := bytes.IndexByte(rest, ',')
	if i < 0 || !bytes.HasPrefix(rest[i:], confPrefix) {
		return row{}, false
	}
	id, err := strconv.ParseUint(string(rest[:i]), 10, 64)
	if err != nil {
		return row{}, false
	}
	num := bytes.TrimRight(rest[i+len(confPrefix):], "}\r\n")
	conf, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return row{}, false
	}
	return row{id, conf}, true
}

// served is an in-process server behind a real loopback listener.
type served struct {
	srv     *server.Server
	handler http.Handler // srv.Handler() inside the tracing middleware
	http    *http.Server
	base    string
	done    chan error
}

func serve(db *upidb.DB, rec *recorder) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(db, server.Config{})
	s := &served{srv: srv, handler: traceHandler(rec, srv.Handler()), base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	s.http = &http.Server{Handler: s.handler}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// newClient returns a transport with its own keep-alive connection.
func (s *served) newClient(rec *recorder) *httpTransport {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpTransport{base: s.base, client: &http.Client{Transport: tr}, rec: rec}
}

// stop closes the listener and every connection — the clients are
// done by now — and waits for the serve goroutine.
func (s *served) stop() error {
	err := s.http.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
