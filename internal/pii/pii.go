// Package pii implements the Probabilistic Inverted Index of Singh et
// al. (ICDE 2007), the baseline the paper compares UPIs against for
// discrete distributions ("PII is an uncertain index based on an
// inverted index which orders inverted entries by their probability").
//
// A PII is a *secondary* index: the heap file is unclustered
// (insertion order), and the index maps {value, confidence DESC,
// tuple ID} to a RowID. Answering a PTQ therefore requires one random
// heap access per matching entry, mitigated only by sorting RowIDs in
// heap order first — which is exactly the disadvantage the UPI
// eliminates.
package pii

import (
	"context"
	"fmt"
	"sort"

	"upidb/internal/btree"
	"upidb/internal/heapfile"
	"upidb/internal/keyenc"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// Options configure a PII-indexed table.
type Options struct {
	PageSize int
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = storage.DefaultPageSize
	}
	return o
}

// Table is an unclustered heap file with PII indexes on one or more
// uncertain attributes. It is not safe for concurrent use.
type Table struct {
	fs   *storage.FS
	name string
	opts Options

	heap    *heapfile.Heap
	indexes map[string]*btree.Tree
	attrs   []string
	// rows tracks the RowID of each tuple so deletes can find them.
	rows map[uint64]heapfile.RowID
}

// newTable creates the table's heap file, empty, and no index yet.
func newTable(fs *storage.FS, name string, attrs []string, opts Options, rows int) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{fs: fs, name: name, opts: opts, indexes: make(map[string]*btree.Tree, len(attrs)),
		attrs: append([]string(nil), attrs...), rows: make(map[uint64]heapfile.RowID, rows)}
	hp, err := storage.NewPager(fs.Create(name+".pii.heap"), opts.PageSize)
	if err != nil {
		return nil, err
	}
	t.heap, err = heapfile.Create(hp)
	return t, err
}

// Create initializes an empty PII table with indexes on attrs.
func Create(fs *storage.FS, name string, attrs []string, opts Options) (*Table, error) {
	t, err := newTable(fs, name, attrs, opts, 0)
	if err != nil {
		return nil, err
	}
	for _, a := range attrs {
		p, err := storage.NewPager(fs.Create(name+".pii.idx."+a), t.opts.PageSize)
		if err != nil {
			return nil, err
		}
		idx, err := btree.Create(p)
		if err != nil {
			return nil, err
		}
		t.indexes[a] = idx
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Heap exposes the unclustered heap file.
func (t *Table) Heap() *heapfile.Heap { return t.heap }

// Index returns the PII B+Tree for attr.
func (t *Table) Index(attr string) (*btree.Tree, bool) {
	idx, ok := t.indexes[attr]
	return idx, ok
}

// SizeBytes returns the total on-disk size of the table's files.
func (t *Table) SizeBytes() int64 {
	total := t.fs.Size(t.name + ".pii.heap")
	for _, a := range t.attrs {
		total += t.fs.Size(t.name + ".pii.idx." + a)
	}
	return total
}

// Flush writes all dirty pages to disk.
func (t *Table) Flush() error {
	if err := t.heap.Pager().Flush(); err != nil {
		return err
	}
	for _, a := range t.attrs {
		if err := t.indexes[a].Pager().Flush(); err != nil {
			return err
		}
	}
	return nil
}

// DropCaches empties all buffer pools (cold-cache state).
func (t *Table) DropCaches() error {
	if err := t.heap.Pager().DropCache(); err != nil {
		return err
	}
	for _, a := range t.attrs {
		if err := t.indexes[a].Pager().DropCache(); err != nil {
			return err
		}
	}
	return nil
}

// rowIDValue encodes a RowID as an index value.
func rowIDValue(id heapfile.RowID) []byte {
	v := keyenc.AppendUint64(nil, uint64(id.Page))
	return keyenc.AppendUint64(v, uint64(id.Slot))
}

func decodeRowID(v []byte) (heapfile.RowID, error) {
	pg, rest, err := keyenc.DecodeUint64(v)
	if err != nil {
		return heapfile.RowID{}, err
	}
	slot, _, err := keyenc.DecodeUint64(rest)
	if err != nil {
		return heapfile.RowID{}, err
	}
	return heapfile.RowID{Page: storage.PageID(pg), Slot: uint16(slot)}, nil
}

// Insert appends the tuple to the heap and adds one inverted entry per
// alternative of every indexed attribute, keyed by confidence DESC.
func (t *Table) Insert(tup *tuple.Tuple) error {
	if err := tup.Validate(); err != nil {
		return err
	}
	rid, err := t.heap.Append(tuple.Encode(tup))
	if err != nil {
		return err
	}
	t.rows[tup.ID] = rid
	rv := rowIDValue(rid)
	for _, attr := range t.attrs {
		dist, ok := tup.Uncertain(attr)
		if !ok {
			return fmt.Errorf("pii: tuple %d lacks indexed attribute %q", tup.ID, attr)
		}
		for _, a := range dist {
			conf := tup.Existence * a.Prob
			if _, err := t.indexes[attr].Put(upi.HeapKey(a.Value, conf, tup.ID), rv); err != nil {
				return err
			}
		}
	}
	return nil
}

// Delete tombstones the tuple in the heap and removes its inverted
// entries.
func (t *Table) Delete(tup *tuple.Tuple) error {
	rid, ok := t.rows[tup.ID]
	if !ok {
		return fmt.Errorf("pii: unknown tuple %d", tup.ID)
	}
	if _, err := t.heap.Delete(rid); err != nil {
		return err
	}
	delete(t.rows, tup.ID)
	for _, attr := range t.attrs {
		dist, ok := tup.Uncertain(attr)
		if !ok {
			continue
		}
		for _, a := range dist {
			conf := tup.Existence * a.Prob
			if _, err := t.indexes[attr].Delete(upi.HeapKey(a.Value, conf, tup.ID)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Query answers the PTQ "attr = value, confidence >= qt": scan the
// inverted list (ordered by confidence DESC, so it stops at qt), sort
// the collected RowIDs in heap order, then fetch each tuple from the
// unclustered heap — one random page access per distinct page.
func (t *Table) Query(ctx context.Context, attr, value string, qt float64) ([]upi.Result, error) {
	if err := upi.CtxErr(ctx); err != nil {
		return nil, err
	}
	idx, ok := t.indexes[attr]
	if !ok {
		return nil, fmt.Errorf("pii: no index on %q", attr)
	}
	type match struct {
		rid  heapfile.RowID
		conf float64
	}
	var matches []match
	var scanErr error
	start := upi.ValuePrefix(value)
	end := upi.ValuePrefixEnd(value)
	err := idx.Scan(start, end, func(k, v []byte) bool {
		conf, _, err := upi.DecodeConfID(k)
		if err != nil {
			scanErr = err
			return false
		}
		if conf < qt {
			return false
		}
		rid, err := decodeRowID(v)
		if err != nil {
			scanErr = err
			return false
		}
		matches = append(matches, match{rid: rid, conf: conf})
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return nil, err
	}
	// Bitmap-scan discipline: visit heap pages in physical order.
	sort.Slice(matches, func(i, j int) bool { return matches[i].rid.Less(matches[j].rid) })
	results := make([]upi.Result, 0, len(matches))
	for i, m := range matches {
		if i%64 == 0 {
			if err := upi.CtxErr(ctx); err != nil {
				return nil, err
			}
		}
		rec, ok, err := t.heap.Get(m.rid)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // deleted under a stale index entry
		}
		tup, err := tuple.Decode(rec)
		if err != nil {
			return nil, err
		}
		results = append(results, upi.Result{Tuple: tup, Confidence: m.conf})
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Confidence != results[j].Confidence {
			return results[i].Confidence > results[j].Confidence
		}
		return results[i].Tuple.ID < results[j].Tuple.ID
	})
	return results, nil
}

// BulkBuild loads a PII table from a batch of tuples: heap appends are
// sequential; index entries are sorted and bulk-loaded.
func BulkBuild(fs *storage.FS, name string, attrs []string, opts Options, tuples []*tuple.Tuple) (*Table, error) {
	t, err := newTable(fs, name, attrs, opts, len(tuples))
	if err != nil {
		return nil, err
	}

	type entry struct {
		key []byte
		val []byte
	}
	idxEntries := make(map[string][]entry, len(attrs))
	for _, tup := range tuples {
		if err := tup.Validate(); err != nil {
			return nil, err
		}
		rid, err := t.heap.Append(tuple.Encode(tup))
		if err != nil {
			return nil, err
		}
		t.rows[tup.ID] = rid
		rv := rowIDValue(rid)
		for _, attr := range attrs {
			dist, ok := tup.Uncertain(attr)
			if !ok {
				return nil, fmt.Errorf("pii: tuple %d lacks indexed attribute %q", tup.ID, attr)
			}
			for _, a := range dist {
				conf := tup.Existence * a.Prob
				idxEntries[attr] = append(idxEntries[attr], entry{key: upi.HeapKey(a.Value, conf, tup.ID), val: rv})
			}
		}
	}
	for _, attr := range attrs {
		es := idxEntries[attr]
		sort.Slice(es, func(i, j int) bool { return keyenc.Compare(es[i].key, es[j].key) < 0 })
		p, err := storage.NewPager(fs.Create(name+".pii.idx."+attr), t.opts.PageSize)
		if err != nil {
			return nil, err
		}
		b, err := btree.NewBuilder(p)
		if err != nil {
			return nil, err
		}
		for _, e := range es {
			if err := b.Add(e.key, e.val); err != nil {
				return nil, err
			}
		}
		idx, err := b.Finish()
		if err != nil {
			return nil, err
		}
		t.indexes[attr] = idx
	}
	if err := t.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}
