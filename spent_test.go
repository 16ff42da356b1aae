package upidb

// A result handle is consumed once and keeps nothing: every first
// consumer spends it, every second consumer finds it spent, and the
// accessors keep reporting the one execution. A drained handle holds no
// page its rows aliased.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"upidb/internal/tuple"
)

// spentSeq reports whether a spent handle's stream yields exactly one
// ErrStreamConsumed and nothing else.
func spentSeq[T any](seq iter.Seq2[T, error]) error {
	n := 0
	for _, err := range seq {
		n++
		if err == nil {
			return fmt.Errorf("yield %d: a result, want ErrStreamConsumed", n)
		}
		if !errors.Is(err, ErrStreamConsumed) {
			return fmt.Errorf("yield %d: %w, want ErrStreamConsumed", n, err)
		}
	}
	if n != 1 {
		return fmt.Errorf("%d yields, want 1", n)
	}
	return nil
}

// countSeq drains seq and returns how many results it yielded.
func countSeq[T any](t *testing.T, seq iter.Seq2[T, error]) int {
	t.Helper()
	n := 0
	for _, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}

// TestResultsSpentAfterFirstConsumer: on mem and disk, at 1, 2 and 7
// shards, whichever of All, Rows, Collect, Len, Err or Info consumes a
// Results handle first, a second All or Rows yields ErrStreamConsumed
// and a second Collect returns nil, while Err, Len and Info still report
// the first drain.
func TestResultsSpentAfterFirstConsumer(t *testing.T) {
	// Each first consumer returns the rows it saw, or -1 when it does
	// not see them.
	firsts := []struct {
		name string
		use  func(*testing.T, *Results) int
	}{
		{"All", func(t *testing.T, r *Results) int { return countSeq(t, r.All()) }},
		{"Rows", func(t *testing.T, r *Results) int { return countSeq(t, r.Rows()) }},
		{"Collect", func(_ *testing.T, r *Results) int { return len(r.Collect()) }},
		{"Len", func(_ *testing.T, r *Results) int { return r.Len() }},
		{"Err", func(t *testing.T, r *Results) int {
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			return -1
		}},
		{"Info", func(_ *testing.T, r *Results) int { r.Info(); return -1 }},
	}
	seconds := []struct {
		name string
		use  func(*Results) error
	}{
		{"All", func(r *Results) error { return spentSeq(r.All()) }},
		{"Rows", func(r *Results) error { return spentSeq(r.Rows()) }},
		{"Collect", func(r *Results) error {
			if got := r.Collect(); got != nil {
				return fmt.Errorf("Collect = %d results, want nil", len(got))
			}
			return nil
		}},
	}
	ctx := context.Background()
	q := PTQ("", "v01", 0.05)
	for _, backend := range []string{"mem", "disk"} {
		for _, shards := range []int{1, 2, 7} {
			var opts []Option
			if backend == "disk" {
				opts = append(opts, WithDiskBackend(t.TempDir()))
			}
			db := mustCreate(t, opts...)
			tab := rowsTable(t, db, shards)
			run := func() *Results {
				t.Helper()
				res, err := tab.Run(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := len(run().Collect())
			if want == 0 {
				t.Fatal("query returns no rows; check vacuous")
			}
			for _, first := range firsts {
				for _, second := range seconds {
					label := fmt.Sprintf("%s shards=%d %s then %s", backend, shards, first.name, second.name)
					res := run()
					if n := first.use(t, res); n != -1 && n != want {
						t.Fatalf("%s: first consumer saw %d rows, want %d", label, n, want)
					}
					info := res.Info()
					if err := second.use(res); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if err := res.Err(); err != nil {
						t.Fatalf("%s: Err = %v, want nil", label, err)
					}
					if n := res.Len(); n != want {
						t.Fatalf("%s: Len = %d, want %d", label, n, want)
					}
					if got := res.Info(); got != info || got.Partitions == 0 {
						t.Fatalf("%s: Info %+v, after the first drain %+v", label, got, info)
					}
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSpatialResultsSpentAfterFirstConsumer: the SpatialResults
// counterpart, for a circle and a segment query — whichever of All,
// Collect, Len, Err or Info consumes the handle first, a second All
// yields ErrStreamConsumed and a second Collect returns nil, while Err,
// Len and Info still report the first drain.
func TestSpatialResultsSpentAfterFirstConsumer(t *testing.T) {
	firsts := []struct {
		name string
		use  func(*testing.T, *SpatialResults) int
	}{
		{"All", func(t *testing.T, r *SpatialResults) int { return countSeq(t, r.All()) }},
		{"Collect", func(_ *testing.T, r *SpatialResults) int { return len(r.Collect()) }},
		{"Len", func(_ *testing.T, r *SpatialResults) int { return r.Len() }},
		{"Err", func(t *testing.T, r *SpatialResults) int {
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			return -1
		}},
		{"Info", func(_ *testing.T, r *SpatialResults) int { r.Info(); return -1 }},
	}
	seconds := []struct {
		name string
		use  func(*SpatialResults) error
	}{
		{"All", func(r *SpatialResults) error { return spentSeq(r.All()) }},
		{"Collect", func(r *SpatialResults) error {
			if got := r.Collect(); got != nil {
				return fmt.Errorf("Collect = %d results, want nil", len(got))
			}
			return nil
		}},
	}
	_, tab, c := spatialFixture(t, 1500)
	ctx := context.Background()
	queries := map[string]Query{
		"circle":  Circle(c.Extent.Center(), 500, 0.4),
		"segment": Segment(busySegment(c), 0.3),
	}
	for qname, q := range queries {
		run := func() *SpatialResults {
			t.Helper()
			res, err := tab.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := len(run().Collect())
		if want == 0 {
			t.Fatalf("%s returns no results; check vacuous", qname)
		}
		for _, first := range firsts {
			for _, second := range seconds {
				label := fmt.Sprintf("%s: %s then %s", qname, first.name, second.name)
				res := run()
				if n := first.use(t, res); n != -1 && n != want {
					t.Fatalf("%s: first consumer saw %d results, want %d", label, n, want)
				}
				info := res.Info()
				if err := second.use(res); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := res.Err(); err != nil {
					t.Fatalf("%s: Err = %v, want nil", label, err)
				}
				if n := res.Len(); n != want {
					t.Fatalf("%s: Len = %d, want %d", label, n, want)
				}
				if got := res.Info(); got != info || got.HeapEntries == 0 {
					t.Fatalf("%s: Info %+v, after the first drain %+v", label, got, info)
				}
			}
		}
	}
}

// viewBytes returns the encoding an unbuilt row aliases: tuple.View's
// first field, a slice of the heap page the row was scanned from.
func viewBytes(v tuple.View) []byte { return *(*[]byte)(unsafe.Pointer(&v)) }

// TestDrainedRowsHandleRetainsNoPage: a PTQ on a disk table whose rows
// span many heap pages is drained through Rows, keeping no row. Once the
// buffer pool drops its pages, none of them is reachable any more while
// the handle still is: the handle keeps no row, so no page a row aliased.
func TestDrainedRowsHandleRetainsNoPage(t *testing.T) {
	db := mustCreate(t, WithDiskBackend(t.TempDir()))
	var load []*Tuple
	for i := range 2000 {
		x, err := NewDiscrete([]Alternative{{Value: "hot", Prob: 0.5 + float64(i%40)/100}})
		if err != nil {
			t.Fatal(err)
		}
		load = append(load, &Tuple{ID: uint64(i + 1), Existence: 1,
			Unc: []UncField{{Name: "X", Dist: x}}, Payload: make([]byte, 200)})
	}
	tab, err := db.BulkLoadTable("wide", "X", nil, load)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	res, err := tab.Run(context.Background(), PTQ("", "hot", 0.5))
	if err != nil {
		t.Fatal(err)
	}
	var pages []weak.Pointer[byte]
	rows, bytes := 0, 0
	for row, err := range res.Rows() {
		if err != nil {
			t.Fatal(err)
		}
		enc := viewBytes(row.view)
		if len(enc) < 8 || binary.BigEndian.Uint64(enc) != row.ID {
			t.Fatalf("row %d does not alias its encoding (%d bytes)", row.ID, len(enc))
		}
		pages = append(pages, weak.Make(&enc[0]))
		rows, bytes = rows+1, bytes+len(enc)
	}
	if rows != len(load) || bytes < 20*8192 {
		t.Fatalf("drained %d rows over %d encoded bytes; want %d rows spanning many pages", rows, bytes, len(load))
	}
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	live := 0
	for _, p := range pages {
		if p.Value() != nil {
			live++
		}
	}
	if live != 0 {
		t.Fatalf("%d of %d drained rows still reach their page through the handle", live, rows)
	}
	if res.Len() != rows || res.Err() != nil {
		t.Fatalf("Len %d Err %v after the drain, want %d and nil", res.Len(), res.Err(), rows)
	}
	runtime.KeepAlive(res)
}
