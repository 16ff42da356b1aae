package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Page views alias the pager's buffers, and the mutation path moves
// keys between nodes while Pager.Write replaces the pages those buffers
// hold. These tests fail if a mutation ever works on the live page
// instead of a private clone (readNode), or if a view can be driven
// out of its page.

// TestQuickHistoryAgainstOracle runs seeded Put/Delete histories on a
// 256-byte page against a map, and after every step compares a full
// Scan, a Seek to the key just written and a Get of every live key
// (plus the key just removed) with the oracle. These reads run on a
// warm pool, through the parsed pages the pager keeps, so they fail if
// a write leaves a page's old slot table in place. A history is a sequence of episodes — fill with random
// keys, churn, delete a run of consecutive keys, delete from the top
// down — with values of 0-40 bytes, so that whole subtrees drain next
// to full ones. The seed source is fixed, so a failure reproduces and
// the coverage is a fact: `go test -cover -run QuickHistory` shows leaf
// and internal splits, mergeSiblings, the root collapse and both borrow
// directions, each for leaves and for internal nodes, taken (-short
// runs half the histories and misses one internal borrow).
func TestQuickHistoryAgainstOracle(t *testing.T) {
	steps, count := 4000, 4
	if testing.Short() {
		steps, count = 2500, 2
	}
	const (
		fill = iota
		churn
		drainRun
		drainTop
		kinds
	)
	history := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := quickTree(t)
		ref := make(map[string][]byte)
		maxHeight := 0
		kind, left, next, base := fill, 500, "", 0
		for step := 0; step < steps; step++ {
			if left == 0 {
				kind, left, next, base = rng.Intn(kinds), 100+rng.Intn(300), "", rng.Intn(400)
			}
			left--
			key, put := fmt.Sprintf("k%03d", rng.Intn(600)), true
			switch live := sortedKeys(ref); {
			case kind == fill && step >= 500:
				// A 200-key window: one subtree fattens beside thin ones.
				key = fmt.Sprintf("k%03d", base+rng.Intn(200))
			case kind == churn:
				put = rng.Intn(2) == 0
			case kind == drainRun && len(live) > 0:
				// The first live key at or after the previous victim.
				i := sort.SearchStrings(live, next)
				if next == "" || i == len(live) {
					i = rng.Intn(len(live))
				}
				key, put = live[i], false
				next = key
			case kind == drainTop && len(live) > 0:
				key, put = live[len(live)-1], false
			}
			_, existed := ref[key]
			if put {
				val := bytes.Repeat([]byte{byte(step)}, rng.Intn(41))
				ins, err := tr.Put([]byte(key), val)
				if err != nil || ins == existed {
					t.Errorf("seed %d step %d: put %s: inserted=%v existed=%v err=%v", seed, step, key, ins, existed, err)
					return false
				}
				ref[key] = val
			} else {
				del, err := tr.Delete([]byte(key))
				if err != nil || del != existed {
					t.Errorf("seed %d step %d: delete %s: deleted=%v existed=%v err=%v", seed, step, key, del, existed, err)
					return false
				}
				delete(ref, key)
			}
			if msg := diffOracle(tr, ref, key); msg != "" {
				t.Errorf("seed %d step %d (%s): %s", seed, step, key, msg)
				return false
			}
			maxHeight = max(maxHeight, tr.Height())
		}
		if maxHeight < 3 {
			t.Errorf("seed %d: tree only reached height %d; internal splits not exercised", seed, maxHeight)
			return false
		}
		return true
	}
	if err := quick.Check(history, &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func sortedKeys(ref map[string][]byte) []string {
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// diffOracle compares the tree with ref through Scan, Seek and Get and
// describes the first difference. touched is probed even when absent.
func diffOracle(tr *Tree, ref map[string][]byte, touched string) string {
	keys := sortedKeys(ref)
	i, msg := 0, ""
	err := tr.Scan(nil, nil, func(k, v []byte) bool {
		if i >= len(keys) || string(k) != keys[i] || !bytes.Equal(v, ref[keys[i]]) {
			msg = fmt.Sprintf("scan entry %d is %q=%x", i, k, v)
			return false
		}
		i++
		return true
	})
	switch {
	case err != nil:
		return "scan: " + err.Error()
	case msg != "":
		return msg
	case i != len(keys) || tr.Count() != int64(len(keys)):
		return fmt.Sprintf("scan visited %d, Count %d, oracle holds %d", i, tr.Count(), len(keys))
	}
	c := tr.NewCursor().Seek([]byte(touched))
	switch at := sort.SearchStrings(keys, touched); {
	case c.Err() != nil:
		return "seek: " + c.Err().Error()
	case at == len(keys) && c.Valid():
		return fmt.Sprintf("seek %s = %q, oracle holds no key at or after it", touched, c.Key())
	case at < len(keys) && (!c.Valid() || string(c.Key()) != keys[at] || !bytes.Equal(c.Value(), ref[keys[at]])):
		return fmt.Sprintf("seek %s = valid %v, oracle %s=%x", touched, c.Valid(), keys[at], ref[keys[at]])
	}
	for _, k := range append(keys, touched) {
		got, ok, err := tr.Get([]byte(k))
		want, live := ref[k]
		if err != nil || ok != live || !bytes.Equal(got, want) {
			return fmt.Sprintf("get %s = %x,%v,%v; oracle %x,%v", k, got, ok, err, want, live)
		}
	}
	return ""
}

// TestCursorSurvivesMutationOfItsLeaf: the documented contract of a
// cursor over a tree that is written under it is "undefined entries,
// memory-safe". The cursor's view keeps offsets parsed from the old
// page contents; overwriting the page in place (value growth, a split
// that empties half the leaf, deletes down to nothing) must not let
// Key, Value or Next panic or read outside the page.
func TestCursorSurvivesMutationOfItsLeaf(t *testing.T) {
	tr := newTestTree(t, 256)
	for i := 0; i < 8; i++ { // one root leaf
		if _, err := tr.Put(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() != 1 {
		t.Fatalf("height %d, want a single leaf", tr.Height())
	}
	drain := func(c *Cursor) {
		for n := 0; c.Valid(); n++ {
			if len(c.Key()) > 256 || len(c.Value()) > 256 {
				t.Fatalf("entry larger than its page: %d/%d", len(c.Key()), len(c.Value()))
			}
			if n > 10000 {
				t.Fatal("cursor does not terminate")
			}
			c.Next()
		}
	}
	mutations := []func(){
		func() { // same keys, other lengths: every offset in the page moves
			for i := 0; i < 8; i++ {
				tr.Put(k(i), bytes.Repeat([]byte{0xFF}, 3*i))
			}
		},
		func() { // split: the leaf keeps half its entries
			for i := 8; i < 40; i++ {
				tr.Put(k(i), bytes.Repeat([]byte{0xFF}, 20))
			}
		},
		func() { // shrink below the old entry count, merging leaves away
			for i := 0; i < 39; i++ {
				tr.Delete(k(i))
			}
		},
	}
	for _, mutate := range mutations {
		mid := tr.NewCursor().Seek(k(3))
		first := tr.NewCursor().First()
		mutate()
		drain(mid)
		drain(first)
		if err := mid.Err(); err != nil {
			t.Fatal(err)
		}
	}
	// A cursor opened after the writes sees exactly the tree.
	if msg := diffOracle(tr, map[string][]byte{string(k(39)): bytes.Repeat([]byte{0xFF}, 20)}, string(k(0))); msg != "" {
		t.Fatal(msg)
	}
}

// TestReadPathAllocations: on a warm pool every page a read visits
// was parsed when it was loaded, so a point lookup and a seek allocate
// nothing, and a whole-tree scan allocates at most its Cursor.
func TestReadPathAllocations(t *testing.T) {
	tr := newTestTree(t, 512)
	for i := 0; i < 5000; i++ {
		if _, err := tr.Put(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d, want >= 3", tr.Height())
	}
	key := k(2500)
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := tr.Get(key); !ok || err != nil {
			t.Fatal(ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Get: %.0f allocations, want 0", allocs)
	}
	c := tr.NewCursor()
	allocs = testing.AllocsPerRun(200, func() {
		if c.Seek(key); !c.Valid() || !bytes.Equal(c.Key(), key) {
			t.Fatal("seek missed", c.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Seek: %.0f allocations, want 0", allocs)
	}
	entries := 0
	allocs = testing.AllocsPerRun(20, func() {
		entries = 0
		if err := tr.Scan(nil, nil, func(_, _ []byte) bool { entries++; return true }); err != nil {
			t.Fatal(err)
		}
	})
	if entries != 5000 {
		t.Fatalf("scan visited %d", entries)
	}
	if allocs > 1 {
		t.Fatalf("Scan of %d entries on %d leaves: %.0f allocations, want <= 1 (the Cursor)", entries, tr.Leaves(), allocs)
	}
}
