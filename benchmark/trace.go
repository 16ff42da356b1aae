package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"upidb/internal/storage"
)

// Spans are recorded from outside the engine, around the calls into
// each layer: op -> http.request -> server.handler ->
// storage.backend.{read,write,sync}. The traced run has one client, so
// at most one op is in flight and the span open at the level above is
// the parent; backend calls outside any op belong to background work
// (flush-triggered merges). A merge's I/O that overlaps an op is
// attributed to that op: containment cannot tell them apart.

type span struct {
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"` // file class of backend spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // span id, -1 = background
	Op     int32  `json:"op"`     // op span id shared by one request, -1 = none
	// child is the time covered by child spans; self = End-Start-child.
	child int64
}

const (
	noSpan = -1
	// maxFileSpans bounds the trace file; aggregates cover every span.
	maxFileSpans = 200_000
)

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one pointer test per call site.
type recorder struct {
	t0 time.Time
	on atomic.Bool // the traced run toggles this per slice

	mu    sync.Mutex
	spans []span
	// open holds the open span id per level (op, http.request,
	// server.handler), noSpan when none.
	open [3]int32
}

const (
	levelOp = iota
	levelRequest
	levelHandler
)

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: [3]int32{noSpan, noSpan, noSpan}}
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// begin opens a span at level and returns its id (noSpan when off).
func (r *recorder) begin(level int, name string) int32 {
	if !r.enabled() {
		return noSpan
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	s := span{Name: name, Start: now, Parent: noSpan, Op: r.open[levelOp]}
	if level > levelOp {
		s.Parent = r.parentLocked(level)
	} else {
		s.Op = id
	}
	r.spans = append(r.spans, s)
	r.open[level] = id
	return id
}

// parentLocked is the innermost open span above level.
func (r *recorder) parentLocked(level int) int32 {
	for l := level - 1; l >= 0; l-- {
		if r.open[l] != noSpan {
			return r.open[l]
		}
	}
	return noSpan
}

func (r *recorder) end(level int, id int32) {
	if id == noSpan {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End = now
	if s.Parent != noSpan {
		r.spans[s.Parent].child += s.End - s.Start
	}
	if r.open[level] == id {
		r.open[level] = noSpan
	}
}

// leaf records a finished backend span under whatever is open.
func (r *recorder) leaf(name, class string, start time.Time, d time.Duration) {
	st := int64(start.Sub(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := r.parentLocked(len(r.open))
	if parent != noSpan {
		r.spans[parent].child += int64(d)
	}
	r.spans = append(r.spans, span{Name: name, Class: class, Start: st, End: st + int64(d), Parent: parent, Op: r.open[levelOp]})
}

// spanTotals aggregates spans by name.
type spanTotals struct {
	count int
	total time.Duration // sum of durations
	self  time.Duration // sum of durations minus child-covered time
	durs  []time.Duration
}

func (r *recorder) totals() map[string]*spanTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[string]*spanTotals)
	for i := range r.spans {
		s := &r.spans[i]
		if s.End == 0 {
			continue
		}
		t := m[s.Name]
		if t == nil {
			t = &spanTotals{}
			m[s.Name] = t
		}
		d := time.Duration(s.End - s.Start)
		t.count++
		t.total += d
		t.self += d - time.Duration(s.child)
		t.durs = append(t.durs, d)
	}
	return m
}

// writeFile writes the spans once, when the run is over.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	out := struct {
		Truncated int    `json:"spans_not_written"`
		Spans     []span `json:"spans"`
	}{Spans: spans}
	if len(spans) > maxFileSpans {
		out.Truncated, out.Spans = len(spans)-maxFileSpans, spans[:maxFileSpans]
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traceHandler is the server.handler span: a middleware around the
// server's own handler.
func traceHandler(rec *recorder, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := rec.begin(levelHandler, "server.handler")
		h.ServeHTTP(w, req)
		rec.end(levelHandler, id)
	})
}

// fileClass names the kind of engine file a backend call touched.
func fileClass(name string) string {
	switch {
	case strings.HasSuffix(name, ".wal"):
		return "wal"
	case strings.Contains(name, ".manifest"):
		return "manifest"
	case strings.HasSuffix(name, ".upi.heap"):
		return "heap"
	case strings.HasSuffix(name, ".upi.cutoff"):
		return "cutoff"
	case strings.Contains(name, ".upi.sec."):
		return "secondary"
	case strings.HasSuffix(name, ".delset"):
		return "delset"
	case strings.Contains(name, ".cupi."):
		return "spatial"
	}
	return "other"
}

var errFrozen = errors.New("benchmark: backend frozen (simulated process death)")

// benchBackend wraps the real disk backend: it times every read, write
// and sync when a recorder is on, counts bytes, and can freeze — after
// which every mutation fails, as if the process had died, so a fresh
// Open of the same directory sees only what was written before.
type benchBackend struct {
	storage.Backend
	rec    *recorder
	frozen atomic.Bool

	reads, writes, syncs    atomic.Int64
	readBytes, writtenBytes atomic.Int64
}

// begin starts timing one backend call when the recorder is on.
func (b *benchBackend) begin() (start time.Time, on bool) {
	if !b.rec.enabled() {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (b *benchBackend) end(on bool, name, file string, start time.Time) {
	if on {
		b.rec.leaf(name, fileClass(file), start, time.Since(start))
	}
}

func (b *benchBackend) ReadAt(name string, p []byte, off int64) error {
	b.reads.Add(1)
	b.readBytes.Add(int64(len(p)))
	start, on := b.begin()
	err := b.Backend.ReadAt(name, p, off)
	b.end(on, "storage.backend.read", name, start)
	return err
}

func (b *benchBackend) WriteAt(name string, p []byte, off int64) error {
	if b.frozen.Load() {
		return errFrozen
	}
	b.writes.Add(1)
	b.writtenBytes.Add(int64(len(p)))
	start, on := b.begin()
	err := b.Backend.WriteAt(name, p, off)
	b.end(on, "storage.backend.write", name, start)
	return err
}

func (b *benchBackend) Sync(name string) error {
	if b.frozen.Load() {
		return errFrozen
	}
	b.syncs.Add(1)
	start, on := b.begin()
	err := b.Backend.Sync(name)
	b.end(on, "storage.backend.sync", name, start)
	return err
}

func (b *benchBackend) guard(call func() error) error {
	if b.frozen.Load() {
		return errFrozen
	}
	return call()
}

func (b *benchBackend) Create(name string) error {
	return b.guard(func() error { return b.Backend.Create(name) })
}

func (b *benchBackend) Truncate(name string, size int64) error {
	return b.guard(func() error { return b.Backend.Truncate(name, size) })
}

func (b *benchBackend) Remove(name string) error {
	return b.guard(func() error { return b.Backend.Remove(name) })
}

func (b *benchBackend) Rename(oldName, newName string) error {
	return b.guard(func() error { return b.Backend.Rename(oldName, newName) })
}
