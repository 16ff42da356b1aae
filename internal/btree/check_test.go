package btree

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"
)

// countingCheck is a value check that counts its calls per value and
// rejects (frame 0) values that start with "bad". Any other value's
// frame is a checksum of its bytes, so a frame read back says which
// bytes were checked.
type countingCheck map[string]int

func (cc countingCheck) check(val []byte) uint32 {
	cc[string(val)]++
	if bytes.HasPrefix(val, []byte("bad")) {
		return 0
	}
	return frameOf(val)
}

func frameOf(val []byte) uint32 { return crc32.ChecksumIEEE(val) | 1 }

// TestValueCheckRunsOncePerPageLoad: a tree's value check runs on every
// leaf value once per page load, and Cursor.Frame and View.Lookup hand
// out what it returned for the bytes beside it. Two scans and a Get of
// every key on a warm tree check each value exactly once; after
// DropCache the next read checks again; a Put that rewrites a leaf gets
// that leaf, and only it, checked again, with frames of the new bytes.
// A rejected value gets frame 0 and its neighbours keep theirs.
func TestValueCheckRunsOncePerPageLoad(t *testing.T) {
	tr := newTestTree(t, 256)
	const n = 200
	val := func(i int) []byte {
		if i == 77 {
			return []byte("bad-value")
		}
		return v(i)
	}
	for i := 0; i < n; i++ {
		if _, err := tr.Put(k(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d: the test needs several leaves", tr.Height())
	}
	calls := countingCheck{}
	tr.SetValueCheck(calls.check)

	wantFrame := func(i int) uint32 {
		if i == 77 {
			return 0
		}
		return frameOf(val(i))
	}
	scan := func() {
		t.Helper()
		c := tr.NewCursor().First()
		for i := 0; i < n; i++ {
			if !c.Valid() || !bytes.Equal(c.Key(), k(i)) {
				t.Fatalf("scan entry %d: valid=%v err %v", i, c.Valid(), c.Err())
			}
			if got := c.Frame(); got != wantFrame(i) {
				t.Fatalf("scan entry %d: frame %#x, want %#x", i, got, wantFrame(i))
			}
			c.Next()
		}
		if c.Valid() || c.Err() != nil {
			t.Fatalf("scan ran past %d entries: err %v", n, c.Err())
		}
	}
	lookups := func() {
		t.Helper()
		for i := 0; i < n; i++ {
			got, frame, ok, err := tr.View(nil, 1).Lookup(k(i))
			if err != nil || !ok || !bytes.Equal(got, val(i)) || frame != wantFrame(i) {
				t.Fatalf("Lookup %d: %q frame %#x ok=%v err %v", i, got, frame, ok, err)
			}
			if got, ok, err := tr.Get(k(i)); err != nil || !ok || !bytes.Equal(got, val(i)) {
				t.Fatalf("Get %d: %q ok=%v err %v", i, got, ok, err)
			}
		}
		if _, frame, ok, err := tr.View(nil, 1).Lookup([]byte("absent")); ok || frame != 0 || err != nil {
			t.Fatalf("Lookup of an absent key: frame %#x ok=%v err %v", frame, ok, err)
		}
	}
	expectCalls := func(when string, want func(i int) int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got := calls[string(val(i))]; got != want(i) {
				t.Fatalf("%s: value %d checked %d times, want %d", when, i, got, want(i))
			}
		}
	}

	scan()
	scan()
	lookups()
	expectCalls("warm", func(int) int { return 1 })

	if err := tr.Pager().DropCache(); err != nil {
		t.Fatal(err)
	}
	lookups()
	scan()
	expectCalls("after DropCache", func(int) int { return 2 })

	// Rewrite key 5's leaf with a same-sized value: no split, one page.
	pg, err := tr.View(nil, 1).descendToLeaf(k(5))
	if err != nil {
		t.Fatal(err)
	}
	inLeaf := map[int]bool{}
	for j := range pg.slots {
		var i int
		if _, err := fmt.Sscanf(string(pg.key(j)), "key%08d", &i); err != nil {
			t.Fatal(err)
		}
		inLeaf[i] = true
	}
	if len(inLeaf) == n {
		t.Fatal("key 5's leaf holds every key")
	}
	newVal := []byte("VALUE-5")
	if len(newVal) != len(v(5)) {
		t.Fatal("the new value must keep the entry's size")
	}
	if _, err := tr.Put(k(5), newVal); err != nil {
		t.Fatal(err)
	}
	c := tr.NewCursor().Seek(k(5))
	if !c.Valid() || !bytes.Equal(c.Value(), newVal) || c.Frame() != frameOf(newVal) {
		t.Fatalf("after Put: value %q frame %#x, want %q %#x", c.Value(), c.Frame(), newVal, frameOf(newVal))
	}
	if calls[string(newVal)] != 1 {
		t.Fatalf("the new value was checked %d times, want 1", calls[string(newVal)])
	}
	val = func(i int) []byte {
		switch i {
		case 5:
			return newVal
		case 77:
			return []byte("bad-value")
		}
		return v(i)
	}
	scan()
	lookups()
	expectCalls("after Put", func(i int) int {
		switch {
		case i == 5:
			return 1
		case inLeaf[i]:
			return 3
		}
		return 2
	})
}
