package sim

import (
	"sync"
	"testing"
	"time"
)

func TestSequentialVsSeek(t *testing.T) {
	d := NewDisk(DefaultParams())
	d.Read("f", 0, 100)
	st := d.Stats()
	if st.Seeks != 1 {
		t.Fatalf("first access should seek, got %d seeks", st.Seeks)
	}
	d.Read("f", 100, 100) // contiguous
	st = d.Stats()
	if st.Seeks != 1 || st.SequentialIO != 1 {
		t.Fatalf("contiguous read should be sequential: %+v", st)
	}
	d.Read("f", 0, 100) // jump back
	if got := d.Stats().Seeks; got != 2 {
		t.Fatalf("jump back should seek, got %d", got)
	}
	d.Read("g", 100, 100) // other file
	if got := d.Stats().Seeks; got != 3 {
		t.Fatalf("file switch should seek, got %d", got)
	}
}

func TestReadWriteCosts(t *testing.T) {
	p := DefaultParams()
	d := NewDisk(p)
	cost := d.Read("f", 0, 1<<20)
	want := p.Seek + p.ReadPerMB
	if cost != want {
		t.Fatalf("1MB read cost = %v, want %v", cost, want)
	}
	cost = d.Write("f", 1<<20, 1<<20) // sequential write after read
	if cost != p.WritePerMB {
		t.Fatalf("sequential 1MB write cost = %v, want %v", cost, p.WritePerMB)
	}
}

func TestOpenCost(t *testing.T) {
	p := DefaultParams()
	d := NewDisk(p)
	d.Open("f")
	if got := d.Elapsed(); got != p.Init {
		t.Fatalf("open cost = %v, want %v", got, p.Init)
	}
	if got := d.Stats().FileOpens; got != 1 {
		t.Fatalf("opens = %d, want 1", got)
	}
}

func TestStatsSub(t *testing.T) {
	d := NewDisk(DefaultParams())
	d.Read("f", 0, 10)
	before := d.Stats()
	d.Read("f", 10, 10)
	d.Read("f", 100, 10)
	delta := d.Stats().Sub(before)
	if delta.Seeks != 1 || delta.SequentialIO != 1 || delta.BytesRead != 20 {
		t.Fatalf("unexpected delta: %+v", delta)
	}
}

func TestSpan(t *testing.T) {
	d := NewDisk(DefaultParams())
	d.Read("f", 0, 10)
	sp := StartSpan(d)
	d.Read("f", 10, 10)
	got := sp.End()
	if got.BytesRead != 10 || got.Seeks != 0 {
		t.Fatalf("span = %+v", got)
	}
}

func TestZeroByteAccess(t *testing.T) {
	d := NewDisk(DefaultParams())
	d.Read("f", 0, 0)
	if st := d.Stats(); st.Seeks != 1 || st.BytesRead != 0 {
		t.Fatalf("zero byte read: %+v", st)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative size")
		}
	}()
	NewDisk(DefaultParams()).Read("f", 0, -1)
}

func TestConcurrentAccess(t *testing.T) {
	d := NewDisk(DefaultParams())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				d.Read("f", int64(j*10), 10)
			}
		}(i)
	}
	wg.Wait()
	st := d.Stats()
	if st.BytesRead != 8*100*10 {
		t.Fatalf("lost reads under concurrency: %+v", st)
	}
	if st.Seeks+st.SequentialIO != 800 {
		t.Fatalf("op count mismatch: %+v", st)
	}
}

func TestElapsedMonotonic(t *testing.T) {
	d := NewDisk(DefaultParams())
	var last time.Duration
	for i := 0; i < 50; i++ {
		d.Read("f", int64(i*7), 7)
		e := d.Elapsed()
		if e < last {
			t.Fatalf("elapsed went backwards: %v < %v", e, last)
		}
		last = e
	}
}
