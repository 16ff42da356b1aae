package fracture

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"upidb/internal/btree"
	"upidb/internal/storage"
	"upidb/internal/upi"
)

// TestPerFractureOptions: fractures created with different cutoff
// thresholds coexist and answer queries identically to a uniform
// store, both before and after a merge (which rebuilds everything with
// the final options).
func TestPerFractureOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	batch1 := randomTuples(t, rng, 1, 200)
	batch2 := randomTuples(t, rng, 1000, 200)
	batch3 := randomTuples(t, rng, 2000, 200)

	tuned, err := NewStore(newFS(), "tuned", "X", []string{"Y"}, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := NewStore(newFS(), "uniform", "X", []string{"Y"}, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Batch 1 with the default cutoff.
	for _, tup := range batch1 {
		if err := tuned.Insert(tup); err != nil {
			t.Fatal(err)
		}
		if err := uniform.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := tuned.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := uniform.Flush(); err != nil {
		t.Fatal(err)
	}

	// Batch 2 with an aggressive cutoff on the tuned store only.
	if err := tuned.SetFractureOptions(upi.Options{Cutoff: 0.45, PageSize: 512}); err != nil {
		t.Fatal(err)
	}
	for _, tup := range batch2 {
		tuned.Insert(tup)
		uniform.Insert(tup)
	}
	tuned.Flush()
	uniform.Flush()

	// Batch 3 with no cutoff at all.
	if err := tuned.SetFractureOptions(upi.Options{Cutoff: 0, PageSize: 512}); err != nil {
		t.Fatal(err)
	}
	for _, tup := range batch3 {
		tuned.Insert(tup)
		uniform.Insert(tup)
	}
	tuned.Flush()
	uniform.Flush()

	compare := func(stage string) {
		t.Helper()
		for _, qt := range []float64{0.05, 0.3, 0.7} {
			for v := 0; v < 14; v++ {
				val := fmt.Sprintf("v%02d", v)
				a, _, err := tuned.Query(context.Background(), val, qt)
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := uniform.Query(context.Background(), val, qt)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("%s %s@%v: tuned %d vs uniform %d", stage, val, qt, len(a), len(b))
				}
				for i := range a {
					if a[i].Tuple.ID != b[i].Tuple.ID {
						t.Fatalf("%s %s@%v: result %d differs", stage, val, qt, i)
					}
				}
			}
		}
	}
	compare("mixed fractures")
	if err := tuned.Merge(); err != nil {
		t.Fatal(err)
	}
	compare("after merge")
	if got := tuned.FractureOptions().Cutoff; got != 0 {
		t.Fatalf("options not retained: %v", got)
	}
}

func TestSetFractureOptionsValidates(t *testing.T) {
	s, err := NewStore(newFS(), "t", "X", nil, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFractureOptions(upi.Options{Cutoff: -1}); err == nil {
		t.Fatal("invalid options accepted")
	}
}

// truncateLastValue shortens, in place and on the flushed page, the
// value of the last entry of the tree's first non-empty leaf. The last
// entry is the one whose shrinking leaves the page's framing valid, so
// the B+Tree still reads the page and only the tuple decoder can object.
// It returns the page and its original bytes for restoring.
func truncateLastValue(t *testing.T, tree *btree.Tree) (storage.PageID, []byte) {
	t.Helper()
	pager := tree.Pager()
	if err := pager.Flush(); err != nil {
		t.Fatal(err)
	}
	for id := storage.PageID(1); id < pager.NumPages(); id++ { // page 0 is the meta page
		cached, err := pager.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		n := int(binary.BigEndian.Uint16(cached[1:]))
		if cached[0] != 1 || n == 0 { // not a leaf, or an empty one
			continue
		}
		orig := bytes.Clone(cached)
		page := bytes.Clone(cached)
		off := 1 + 2 + 4 // leaf header: type, key count, next leaf
		for i := 0; i < n-1; i++ {
			off += 4 + int(binary.BigEndian.Uint16(page[off:])) + int(binary.BigEndian.Uint16(page[off+2:]))
		}
		vlen := binary.BigEndian.Uint16(page[off+2:])
		binary.BigEndian.PutUint16(page[off+2:], vlen-5)
		if err := pager.Write(id, page); err != nil {
			t.Fatal(err)
		}
		return id, orig
	}
	t.Fatal("no non-empty leaf page")
	return 0, nil
}

// TestMergeFailsOnCorruptTuple: with partitions built under different
// cutoffs Merge rebuilds the main UPI from every live tuple; a tuple it
// cannot decode must fail the merge. (It used to end the heap scan
// early without an error, so the merge installed a main holding only
// the tuples before the bad one and doomed the old partitions.) The old
// generation stays in place and answers every query as before.
func TestMergeFailsOnCorruptTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	fs := newFS()
	s, err := BulkLoad(fs, "t", "X", []string{"Y"}, defaultOpts(), randomTuples(t, rng, 1, 300))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFractureOptions(upi.Options{Cutoff: 0.45, PageSize: 512}); err != nil {
		t.Fatal(err)
	}
	for _, tup := range randomTuples(t, rng, 1000, 100) {
		if err := s.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := sweep(t, s)
	files := fmt.Sprint(fs.List())

	heap := s.Main().Heap()
	page, orig := truncateLastValue(t, heap)
	err = s.Merge()
	if err == nil || !strings.Contains(err.Error(), "tuple") {
		t.Fatalf("merge over a truncated tuple: error %v, want the decode error", err)
	}
	if s.NumFractures() != 1 || s.Main().Heap() != heap {
		t.Fatalf("failed merge changed the partition set: %d fractures, main swapped: %v", s.NumFractures(), s.Main().Heap() != heap)
	}

	// With the page restored the untouched old generation answers
	// exactly as before, from exactly the files it had.
	if err := heap.Pager().Write(page, orig); err != nil {
		t.Fatal(err)
	}
	if got := sweep(t, s); got != want {
		t.Fatal("answers changed after a failed merge")
	}
	if got := fmt.Sprint(fs.List()); got != files {
		t.Fatalf("failed merge changed the files:\n got %s\nwant %s", got, files)
	}
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	if got := sweep(t, s); got != want {
		t.Fatal("answers changed across the merge that followed")
	}
}
