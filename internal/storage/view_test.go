package storage

import (
	"fmt"
	"iter"
	"slices"
	"testing"
)

// opLog is a Recorder that keeps every charge it receives.
type opLog []string

func (l *opLog) Read(file string, off, n int64) {
	*l = append(*l, fmt.Sprintf("read %s@%d+%d", file, off, n))
}

func (l *opLog) Write(file string, off, n int64) {
	*l = append(*l, fmt.Sprintf("write %s@%d+%d", file, off, n))
}

// TestViewsChargeTheirOwnMisses: two readers with recorders of their
// own and a plain reader take turns over one pager, stepped page by
// page in one goroutine. Each recorder receives exactly the misses of
// its own reader, in order; the plain reader's misses reach the disk
// and no recorder; a page another reader cached is a free hit.
func TestViewsChargeTheirOwnMisses(t *testing.T) {
	p, disk := newPrefetchPager(t)
	fillPages(t, p, 90)
	var logA, logB opLog
	// reader yields once per page it has read through read.
	reader := func(read func(PageID) ([]byte, error), from, to PageID) iter.Seq2[PageID, error] {
		return func(yield func(PageID, error) bool) {
			for id := from; id < to; id++ {
				got, err := read(id)
				if err == nil && got[0] != byte(id) {
					err = fmt.Errorf("page %d holds %d", id, got[0])
				}
				if !yield(id, err) {
					return
				}
			}
		}
	}
	a := p.View(&logA, 1)
	b := p.View(&logB, 4)
	nextA, stopA := iter.Pull2(reader(a.Read, 0, 30))
	defer stopA()
	nextB, stopB := iter.Pull2(reader(b.Read, 30, 60))
	defer stopB()
	nextC, stopC := iter.Pull2(reader(p.Read, 60, 90))
	defer stopC()
	before := disk.Stats()
	for _, next := range slices.Repeat([]func() (PageID, error, bool){nextA, nextB, nextC}, 30) {
		if id, err, ok := next(); !ok || err != nil {
			t.Fatalf("page %d: ok=%v err=%v", id, ok, err)
		}
	}
	// Page 0 is A's, cached: B reads it for nothing.
	if _, err := b.Read(0); err != nil {
		t.Fatal(err)
	}

	var wantA, wantB opLog
	for id := int64(0); id < 30; id++ {
		wantA.Read("t", id*64, 64)
	}
	for id := int64(30); id < 60; id += 4 {
		wantB.Read("t", id*64, min(4, 60-id)*64)
	}
	if !slices.Equal(logA, wantA) {
		t.Fatalf("reader A was charged\n%v\nwant\n%v", logA, wantA)
	}
	if !slices.Equal(logB, wantB) {
		t.Fatalf("reader B was charged\n%v\nwant\n%v", logB, wantB)
	}
	if d := disk.Stats().Sub(before); d.BytesRead != 30*64 || d.Seeks+d.SequentialIO != 30 {
		t.Fatalf("disk took %v, want the plain reader's 30 page reads", d)
	}
}
