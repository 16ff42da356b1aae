// Package upi implements the paper's primary contribution: the
// Uncertain Primary Index (UPI) for discrete uncertain attributes,
// together with its Cutoff Index (Section 3.1), multi-pointer
// secondary indexes and Tailored Secondary Index Access (Section 3.2).
//
// A UPI table clusters the heap file itself as a B+Tree keyed by
// {attribute value ASC, confidence DESC, tuple ID}: each tuple is
// duplicated once per alternative of the primary uncertain attribute,
// except alternatives below the cutoff threshold C, which are replaced
// by pointer entries in the cutoff index (Algorithm 1). Probabilistic
// threshold queries then run as one index seek plus a sequential leaf
// scan (Algorithm 2).
//
// Everything that scan orders and filters by — value, confidence, tuple
// ID — is in the heap key, so the streaming cursors (QueryCursor,
// TopKCursor) yield each scanned tuple body unbuilt: a Result carrying
// the confidence and the validated view, which aliases the leaf page.
// The body is validated once per page load, not once per read: every
// heap tree carries tuple.Check as its value check
// (btree.Tree.SetValueCheck), so parsing a heap leaf walks each body's
// framing and keeps the frame beside it, and the scan and the cutoff and
// secondary fetches turn body and frame into the view with
// tuple.ViewOf, walking nothing. A body the check rejected has frame 0,
// and ViewOf walks it again, so it fails with the codec's own error on
// the row that reads it and nowhere else. Frames stay true because a
// page's bytes never change once loaded (a write gives the pager a new
// page). The *tuple.Tuple is built from the view, without another
// framing walk, by whoever hands tuples to a caller (Drain, and so
// Query and TopK, here; the merged stream's consumers above). See
// Result for the two forms and how long an unbuilt one stays valid.
package upi

import (
	"fmt"

	"upidb/internal/btree"
	"upidb/internal/storage"
	"upidb/internal/tuple"
)

// Options are the tuning parameters of one UPI (paper Sections 3, 6).
type Options struct {
	// Cutoff is the cutoff threshold C: alternatives with confidence
	// below C are stored in the cutoff index, not the heap file. 0
	// disables the cutoff index (the naive UPI of Section 2).
	Cutoff float64
	// MaxPointers caps the pointers stored in one secondary-index
	// entry ("such a limit can lower storage consumption"); 0 means
	// unlimited.
	MaxPointers int
	// PageSize is the B+Tree page size (default storage.DefaultPageSize).
	PageSize int
}

// WithDefaults returns a copy with zero-valued size parameters
// replaced by their defaults.
func (o Options) WithDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = storage.DefaultPageSize
	}
	return o
}

// Validate checks the options.
func (o Options) Validate() error {
	if !(o.Cutoff >= 0 && o.Cutoff < 1) { // NaN is outside too
		return fmt.Errorf("upi: cutoff %v outside [0, 1)", o.Cutoff)
	}
	if o.MaxPointers < 0 {
		return fmt.Errorf("upi: negative MaxPointers")
	}
	return nil
}

// Table is one UPI: the clustered heap file, its cutoff index and any
// secondary indexes. It is not safe for concurrent use.
type Table struct {
	fs   *storage.FS
	name string
	// attr is the primary uncertain attribute the heap is clustered on.
	attr string
	opts Options

	heap        *btree.Tree
	cutoff      *btree.Tree
	secondaries map[string]*btree.Tree
	secAttrs    []string // stable iteration order

	// rec receives the I/O charges of this table's reads; nil charges
	// the disk (see View).
	rec storage.Recorder
}

// View returns a handle on the same table whose reads — every query,
// cursor and heap scan run through it — charge the pages they miss to
// rec instead of the disk. The buffer pools stay shared: a page another
// reader cached is a free hit. A view is for reading; it costs one
// allocation.
func (t *Table) View(rec storage.Recorder) *Table {
	v := *t
	v.rec = rec
	return &v
}

// Create initializes an empty UPI named name on fs, clustered on the
// uncertain attribute attr, with secondary indexes on secAttrs.
func Create(fs *storage.FS, name, attr string, secAttrs []string, opts Options) (*Table, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	t := &Table{
		fs: fs, name: name, attr: attr, opts: opts,
		secondaries: make(map[string]*btree.Tree, len(secAttrs)),
		secAttrs:    append([]string(nil), secAttrs...),
	}
	var err error
	if t.heap, err = t.createTree(t.heapFile()); err != nil {
		return nil, err
	}
	t.heap.SetValueCheck(tuple.Check)
	if t.cutoff, err = t.createTree(t.cutoffFile()); err != nil {
		return nil, err
	}
	for _, a := range t.secAttrs {
		if a == attr {
			return nil, fmt.Errorf("upi: secondary index on primary attribute %q", a)
		}
		sec, err := t.createTree(t.secFile(a))
		if err != nil {
			return nil, err
		}
		t.secondaries[a] = sec
	}
	return t, nil
}

// Open loads an existing UPI.
func Open(fs *storage.FS, name, attr string, secAttrs []string, opts Options) (*Table, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	t := &Table{
		fs: fs, name: name, attr: attr, opts: opts,
		secondaries: make(map[string]*btree.Tree, len(secAttrs)),
		secAttrs:    append([]string(nil), secAttrs...),
	}
	var err error
	if t.heap, err = t.openTree(t.heapFile()); err != nil {
		return nil, err
	}
	t.heap.SetValueCheck(tuple.Check)
	if t.cutoff, err = t.openTree(t.cutoffFile()); err != nil {
		return nil, err
	}
	for _, a := range t.secAttrs {
		sec, err := t.openTree(t.secFile(a))
		if err != nil {
			return nil, err
		}
		t.secondaries[a] = sec
	}
	return t, nil
}

func (t *Table) createTree(file string) (*btree.Tree, error) {
	p, err := storage.NewPager(t.fs.Create(file), t.opts.PageSize)
	if err != nil {
		return nil, err
	}
	return btree.Create(p)
}

func (t *Table) openTree(file string) (*btree.Tree, error) {
	f, err := t.fs.Open(file)
	if err != nil {
		return nil, err
	}
	p, err := storage.NewPager(f, t.opts.PageSize)
	if err != nil {
		return nil, err
	}
	return btree.Open(p)
}

// HeapFileName returns the heap-file name of a UPI named name.
func HeapFileName(name string) string { return name + ".upi.heap" }

// CutoffFileName returns the cutoff-index file name of a UPI.
func CutoffFileName(name string) string { return name + ".upi.cutoff" }

// SecFileName returns the secondary-index file name for attr.
func SecFileName(name, attr string) string { return name + ".upi.sec." + attr }

func (t *Table) heapFile() string           { return HeapFileName(t.name) }
func (t *Table) cutoffFile() string         { return CutoffFileName(t.name) }
func (t *Table) secFile(attr string) string { return SecFileName(t.name, attr) }

// FileNames returns the names of the files of a UPI named name with
// secondary indexes on secAttrs, in the order of Table.Trees.
func FileNames(name string, secAttrs []string) []string {
	files := []string{HeapFileName(name), CutoffFileName(name)}
	for _, a := range secAttrs {
		files = append(files, SecFileName(name, a))
	}
	return files
}

// Files returns the names of all files this UPI owns, in the order of
// Trees.
func (t *Table) Files() []string { return FileNames(t.name, t.secAttrs) }

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Attr returns the primary uncertain attribute.
func (t *Table) Attr() string { return t.attr }

// Options returns the tuning parameters.
func (t *Table) Options() Options { return t.opts }

// SecondaryAttrs returns the attributes with secondary indexes.
func (t *Table) SecondaryAttrs() []string { return append([]string(nil), t.secAttrs...) }

// Heap exposes the heap-file B+Tree (for stats and merging).
func (t *Table) Heap() *btree.Tree { return t.heap }

// CutoffIndex exposes the cutoff-index B+Tree.
func (t *Table) CutoffIndex() *btree.Tree { return t.cutoff }

// Secondary returns the secondary index tree for attr.
func (t *Table) Secondary(attr string) (*btree.Tree, bool) {
	s, ok := t.secondaries[attr]
	return s, ok
}

// SizeBytes returns the total on-disk size of the UPI's files.
func (t *Table) SizeBytes() int64 {
	var total int64
	for _, f := range t.Files() {
		total += t.fs.Size(f)
	}
	return total
}

// Flush writes all dirty pages through to the simulated disk.
func (t *Table) Flush() error {
	for _, tr := range t.Trees() {
		if err := tr.Pager().Flush(); err != nil {
			return err
		}
	}
	return nil
}

// DropCaches flushes and empties every buffer pool: the cold-cache
// state the paper measures queries in.
func (t *Table) DropCaches() error {
	for _, tr := range t.Trees() {
		if err := tr.Pager().DropCache(); err != nil {
			return err
		}
	}
	return nil
}

// Trees returns the B+Tree of each of the UPI's files: heap, cutoff
// index, then the secondary indexes.
func (t *Table) Trees() []*btree.Tree {
	trees := []*btree.Tree{t.heap, t.cutoff}
	for _, a := range t.secAttrs {
		trees = append(trees, t.secondaries[a])
	}
	return trees
}

// primaryPointers returns the pointer list for tup's non-cutoff
// alternatives of the primary attribute (what secondary-index entries
// store), capped at MaxPointers.
func (t *Table) primaryPointers(tup *tuple.Tuple) ([]Pointer, error) {
	dist, ok := tup.Uncertain(t.attr)
	if !ok {
		return nil, fmt.Errorf("upi: tuple %d lacks primary attribute %q", tup.ID, t.attr)
	}
	ps := make([]Pointer, 0, len(dist))
	for i, a := range dist {
		conf := tup.Existence * a.Prob
		if i > 0 && conf < t.opts.Cutoff {
			continue // cutoff alternative: not in the heap, no pointer
		}
		ps = append(ps, Pointer{Value: a.Value, Conf: conf})
		if t.opts.MaxPointers > 0 && len(ps) >= t.opts.MaxPointers {
			break
		}
	}
	return ps, nil
}
