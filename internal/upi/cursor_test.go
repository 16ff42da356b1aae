package upi

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"upidb/internal/prob"
	"upidb/internal/tuple"
)

// readLog is a storage.Recorder that keeps every read it is charged.
type readLog []string

func (l *readLog) Read(file string, off, n int64) {
	*l = append(*l, fmt.Sprintf("%s@%d+%d", file, off, n))
}
func (l *readLog) Write(string, int64, int64) {}

// cursorTable bulk-builds n tuples whose only alternative is MIT, every
// one above the cutoff: each heap entry is a row of the PTQ on MIT.
func cursorTable(t *testing.T, n, pageSize int) *Table {
	t.Helper()
	tuples := make([]*tuple.Tuple, n)
	for i := range tuples {
		d, err := prob.NewDiscrete([]prob.Alternative{{Value: "MIT", Prob: 0.2 + float64(i%70)/100}})
		if err != nil {
			t.Fatal(err)
		}
		tuples[i] = &tuple.Tuple{ID: uint64(i + 1), Existence: 1,
			Unc: []tuple.UncField{{Name: "Institution", Dist: d}}}
	}
	tab, err := BulkBuild(newFS(), "t", "Institution", nil, Options{Cutoff: 0.1, PageSize: pageSize}, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestAbandonedCursorLeavesNoGoroutine: a cursor runs on the goroutine
// that pulls it, so cursors pulled once and dropped without Close leave
// nothing running behind them.
func TestAbandonedCursorLeavesNoGoroutine(t *testing.T) {
	tab := cursorTable(t, 200, 512)
	ctx := context.Background()
	before := runtime.NumGoroutine()
	cursors := make([]*Cursor, 100)
	for i := range cursors {
		cursors[i] = tab.QueryCursor(ctx, "MIT", 0.5)
		if _, ok, err := cursors[i].Next(); !ok || err != nil {
			t.Fatalf("cursor %d: ok %v, err %v", i, ok, err)
		}
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d pulled cursors took the goroutine count from %d to %d", len(cursors), before, after)
	}
	runtime.KeepAlive(cursors)
}

// TestCursorReadsOnlyWhatPullsDemand: on a cold table, the heap cursor
// reads a page only when a pull needs a row from it. Pulling exactly
// the rows of the first heap leaf charges the root-to-leaf path and
// nothing more; the next pull charges exactly the next leaf.
func TestCursorReadsOnlyWhatPullsDemand(t *testing.T) {
	tab := cursorTable(t, 300, 512)
	if tab.heap.Height() < 2 || tab.heap.Leaves() < 3 {
		t.Fatalf("heap of height %d with %d leaves is too small for this test", tab.heap.Height(), tab.heap.Leaves())
	}
	// Walk the heap with a plain B+Tree cursor to learn the reads a
	// demand-driven scan makes: the descent, then one read per leaf.
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	var walk readLog
	c := tab.heap.View(&walk, 1).NewCursor().Seek(ValuePrefix("MIT"))
	path := len(walk)
	firstLeaf := 0
	for ; c.Valid() && len(walk) == path; c.Next() {
		firstLeaf++
	}
	if c.Err() != nil || len(walk) != path+1 || path != tab.heap.Height() {
		t.Fatalf("walk: %d reads for a descent of height %d, err %v", len(walk), tab.heap.Height(), c.Err())
	}

	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	var reads readLog
	cur := tab.View(&reads).QueryCursor(context.Background(), "MIT", 0.1)
	defer cur.Close()
	for i := 0; i < firstLeaf; i++ {
		if _, ok, err := cur.Next(); !ok || err != nil {
			t.Fatalf("pull %d: ok %v, err %v", i, ok, err)
		}
	}
	if !reflect.DeepEqual(reads, walk[:path]) {
		t.Fatalf("the %d rows of the first leaf read %v, want the path %v", firstLeaf, reads, walk[:path])
	}
	if _, ok, err := cur.Next(); !ok || err != nil {
		t.Fatalf("pull %d: ok %v, err %v", firstLeaf, ok, err)
	}
	if !reflect.DeepEqual(reads, walk) {
		t.Fatalf("the first row of the second leaf read %v, want %v", reads, walk)
	}
}
