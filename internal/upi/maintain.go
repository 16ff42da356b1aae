package upi

import (
	"bytes"
	"fmt"
	"sort"

	"upidb/internal/btree"
	"upidb/internal/storage"
	"upidb/internal/tuple"
)

// Insert adds a tuple to the UPI per Algorithm 1: every alternative of
// the primary attribute with confidence >= C (or the first
// alternative, unconditionally) becomes a full heap entry; the rest
// become cutoff-index pointers to the first alternative. Secondary
// indexes receive one multi-pointer entry per alternative of their
// attribute.
func (t *Table) Insert(tup *tuple.Tuple) error {
	if err := tup.Validate(); err != nil {
		return err
	}
	dist, ok := tup.Uncertain(t.attr)
	if !ok {
		return fmt.Errorf("upi: tuple %d lacks primary attribute %q", tup.ID, t.attr)
	}
	enc := tuple.Encode(tup)
	first := Pointer{Value: dist.First().Value, Conf: tup.Existence * dist.First().Prob}
	for i, a := range dist {
		conf := tup.Existence * a.Prob
		key := HeapKey(a.Value, conf, tup.ID)
		if i == 0 || conf >= t.opts.Cutoff {
			if _, err := t.heap.Put(key, enc); err != nil {
				return err
			}
		} else {
			if _, err := t.cutoff.Put(key, EncodePointers([]Pointer{first})); err != nil {
				return err
			}
		}
	}
	ptrs, err := t.primaryPointers(tup)
	if err != nil {
		return err
	}
	ptrVal := EncodePointers(ptrs)
	for _, attr := range t.secAttrs {
		secDist, ok := tup.Uncertain(attr)
		if !ok {
			return fmt.Errorf("upi: tuple %d lacks secondary attribute %q", tup.ID, attr)
		}
		for _, a := range secDist {
			conf := tup.Existence * a.Prob
			if _, err := t.secondaries[attr].Put(HeapKey(a.Value, conf, tup.ID), ptrVal); err != nil {
				return err
			}
		}
	}
	return nil
}

// Delete removes a tuple from the UPI ("Deletion from the UPI is
// handled similarly, deleting entries from the heap file or cutoff
// index depends on the probability"). The caller supplies the tuple so
// all of its keys can be reconstructed.
func (t *Table) Delete(tup *tuple.Tuple) error {
	dist, ok := tup.Uncertain(t.attr)
	if !ok {
		return fmt.Errorf("upi: tuple %d lacks primary attribute %q", tup.ID, t.attr)
	}
	for i, a := range dist {
		conf := tup.Existence * a.Prob
		key := HeapKey(a.Value, conf, tup.ID)
		if i == 0 || conf >= t.opts.Cutoff {
			if _, err := t.heap.Delete(key); err != nil {
				return err
			}
		} else {
			if _, err := t.cutoff.Delete(key); err != nil {
				return err
			}
		}
	}
	for _, attr := range t.secAttrs {
		secDist, ok := tup.Uncertain(attr)
		if !ok {
			continue
		}
		for _, a := range secDist {
			conf := tup.Existence * a.Prob
			if _, err := t.secondaries[attr].Delete(HeapKey(a.Value, conf, tup.ID)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Update replaces a tuple ("Updates are processed as a deletion
// followed by an insertion").
func (t *Table) Update(oldTup, newTup *tuple.Tuple) error {
	if err := t.Delete(oldTup); err != nil {
		return err
	}
	return t.Insert(newTup)
}

// entry is one (key, value) pair destined for a bulk build.
type entry struct {
	key []byte
	val []byte
}

type entrySlice []entry

func (e entrySlice) Len() int           { return len(e) }
func (e entrySlice) Swap(i, j int)      { e[i], e[j] = e[j], e[i] }
func (e entrySlice) Less(i, j int) bool { return bytes.Compare(e[i].key, e[j].key) < 0 }

// BulkBuild creates a UPI from a batch of tuples with sequential
// writes only: all index entries are generated, sorted in memory and
// bulk-loaded. This is how fractures are written (Section 4: "all
// files ... are written out sequentially by the clustering key as a
// part of a single write") and how the experiments load tables.
func BulkBuild(fs *storage.FS, name, attr string, secAttrs []string, opts Options, tuples []*tuple.Tuple) (*Table, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	t := &Table{
		fs: fs, name: name, attr: attr, opts: opts,
		secondaries: make(map[string]*btree.Tree, len(secAttrs)),
		secAttrs:    append([]string(nil), secAttrs...),
	}

	var heapEntries, cutoffEntries entrySlice
	secEntries := make(map[string]entrySlice, len(secAttrs))
	for _, tup := range tuples {
		if err := tup.Validate(); err != nil {
			return nil, err
		}
		dist, ok := tup.Uncertain(attr)
		if !ok {
			return nil, fmt.Errorf("upi: tuple %d lacks primary attribute %q", tup.ID, attr)
		}
		enc := tuple.Encode(tup)
		first := Pointer{Value: dist.First().Value, Conf: tup.Existence * dist.First().Prob}
		for i, a := range dist {
			conf := tup.Existence * a.Prob
			key := HeapKey(a.Value, conf, tup.ID)
			if i == 0 || conf >= opts.Cutoff {
				heapEntries = append(heapEntries, entry{key: key, val: enc})
			} else {
				cutoffEntries = append(cutoffEntries, entry{key: key, val: EncodePointers([]Pointer{first})})
			}
		}
		ptrs, err := t.primaryPointers(tup)
		if err != nil {
			return nil, err
		}
		ptrVal := EncodePointers(ptrs)
		for _, sa := range secAttrs {
			secDist, ok := tup.Uncertain(sa)
			if !ok {
				return nil, fmt.Errorf("upi: tuple %d lacks secondary attribute %q", tup.ID, sa)
			}
			for _, a := range secDist {
				conf := tup.Existence * a.Prob
				secEntries[sa] = append(secEntries[sa], entry{key: HeapKey(a.Value, conf, tup.ID), val: ptrVal})
			}
		}
	}

	var err error
	if t.heap, err = bulkTree(fs, t.heapFile(), opts, heapEntries); err != nil {
		return nil, err
	}
	t.heap.SetValueCheck(tuple.Check)
	if t.cutoff, err = bulkTree(fs, t.cutoffFile(), opts, cutoffEntries); err != nil {
		return nil, err
	}
	for _, sa := range secAttrs {
		if sa == attr {
			return nil, fmt.Errorf("upi: secondary index on primary attribute %q", sa)
		}
		sec, err := bulkTree(fs, t.secFile(sa), opts, secEntries[sa])
		if err != nil {
			return nil, err
		}
		t.secondaries[sa] = sec
	}
	if err := t.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}

func bulkTree(fs *storage.FS, file string, opts Options, entries entrySlice) (*btree.Tree, error) {
	sort.Sort(entries)
	p, err := storage.NewPager(fs.Create(file), opts.PageSize)
	if err != nil {
		return nil, err
	}
	b, err := btree.NewBuilder(p)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if err := b.Add(e.key, e.val); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}
