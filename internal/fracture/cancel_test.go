package fracture

// Cancellation semantics of the fractured store: a done context fails
// fast with zero modeled I/O, and a mid-scan cancellation releases
// every partition pin so a subsequent merge can reclaim the old
// generation's files.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upidb/internal/upi"
)

// countdownCtx is a context whose Err starts returning
// context.Canceled after budget calls — a deterministic way to cancel
// "mid-scan" without racing a timer against the query.
type countdownCtx struct {
	context.Context
	budget atomic.Int64
}

func newCountdownCtx(budget int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.budget.Store(budget)
	return c
}

func (c *countdownCtx) Err() error {
	if c.budget.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestRunCanceledBeforeStart(t *testing.T) {
	s, _ := buildConcStore(t, 4, 30)
	disk := s.fs.Disk()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := disk.Stats()
	_, st, err := s.Run(ctx, Req{Kind: KindPTQ, Value: concValue(3), QT: 0.1})
	if !errors.Is(err, upi.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", err)
	}
	if st.PartitionsRead != 0 {
		t.Fatalf("cancelled-before-start query read %d partitions", st.PartitionsRead)
	}
	if d := disk.Stats().Sub(before); d != (before.Sub(before)) {
		t.Fatalf("cancelled query touched the disk: %v", d)
	}
}

// TestMidScanCancelReleasesPins: a query cancelled between partitions
// returns ErrCanceled, charges at most the partitions it completed,
// and releases every pin — after a merge, no old-generation file
// survives (a leaked partRef would keep its doomed files on disk).
func TestMidScanCancelReleasesPins(t *testing.T) {
	s, _ := buildConcStore(t, 5, 40)
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	disk := s.fs.Disk()
	full := disk.Stats()
	if _, _, err := s.Run(context.Background(), Req{Kind: KindPTQ, Value: concValue(3), QT: 0.05}); err != nil {
		t.Fatal(err)
	}
	fullCost := disk.Stats().Sub(full).Elapsed
	if fullCost <= 0 {
		t.Fatal("baseline query charged nothing")
	}

	// Budget enough checks to pass the entry gates and partition 0,
	// then cancel. Serial scan makes the cut deterministic.
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	setProcs(t, 1)
	ctx := newCountdownCtx(3)
	before := disk.Stats()
	_, _, err := s.Run(ctx, Req{Kind: KindPTQ, Value: concValue(3), QT: 0.05})
	if !errors.Is(err, upi.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	partial := disk.Stats().Sub(before).Elapsed
	if partial >= fullCost {
		t.Fatalf("cancelled query charged full cost: %v >= %v", partial, fullCost)
	}

	// Every pin must be back: merge and verify the old generation's
	// files are gone the moment the merge finishes.
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	for _, name := range s.fs.List() {
		if strings.Contains(name, ".frac") {
			t.Fatalf("leaked partition pin kept %s alive after merge", name)
		}
	}
	// And the store still answers.
	rs, _, err := s.Run(context.Background(), Req{Kind: KindPTQ, Value: concValue(3), QT: 0.05})
	if err != nil || len(rs) == 0 {
		t.Fatalf("store broken after cancelled query + merge: %v (%d rows)", err, len(rs))
	}
}

// TestCancelDuringParallelScan: cancellation with a wide worker pool
// also errors out cleanly and releases pins, and the scan spans it
// emitted balance — a partition the cancellation skipped has no
// scan-start, so it must have no scan-end either.
func TestCancelDuringParallelScan(t *testing.T) {
	s, _ := buildConcStore(t, 6, 40)
	setProcs(t, 8)
	ctx := newCountdownCtx(4)
	var mu sync.Mutex
	starts, ends := map[int]int{}, map[int]int{}
	trace := func(ev TraceEvent) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case TraceScanStart:
			starts[ev.Part]++
		case TraceScanEnd:
			ends[ev.Part]++
		}
	}
	start := time.Now()
	_, _, err := s.Run(ctx, Req{Kind: KindSecondary, Attr: "Y", Value: "y" + concValue(2), QT: 0.05, Trace: trace})
	if !errors.Is(err, upi.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("cancelled parallel query hung for %v", wall)
	}
	parts := 1 + s.NumFractures()
	if len(starts) == 0 || len(starts) == parts {
		t.Fatalf("%d of %d partitions started; the cancellation must land mid-fan-out", len(starts), parts)
	}
	for i := 0; i < parts; i++ {
		if starts[i] != ends[i] {
			t.Fatalf("partition %d: %d scan starts, %d scan ends", i, starts[i], ends[i])
		}
	}
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	for _, name := range s.fs.List() {
		if strings.Contains(name, ".frac") {
			t.Fatalf("leaked pin after parallel cancel: %s", name)
		}
	}
}

// TestCloseStopsStore: Close rejects every subsequent operation with
// ErrClosed and is idempotent.
func TestCloseStopsStore(t *testing.T) {
	s, _ := buildConcStore(t, 2, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query(context.Background(), concValue(1), 0.1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close: %v", err)
	}
	if err := s.Insert(concTuple(99999, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: %v", err)
	}
	if err := s.Delete(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close: %v", err)
	}
	if err := s.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: %v", err)
	}
	if err := s.Merge(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Merge after Close: %v", err)
	}
	if err := s.StartAutoMerge(AutoMergeOptions{MaxFractures: 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("StartAutoMerge after Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
