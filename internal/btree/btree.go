// Package btree implements a page-based B+Tree over a storage.Pager.
//
// It is the reproduction of the BerkeleyDB B+Trees the UPI prototype
// was built on: UPI heap files, cutoff indexes, secondary indexes and
// the PII baseline are all instances of this tree with different
// composite keys. Whole tuples are stored in leaf values, which is
// what makes a UPI a *primary* index: a range scan of one attribute
// value is a contiguous walk of leaf pages.
//
// Keys are unique byte strings compared with bytes.Compare; callers
// build composite keys with package keyenc. Values are opaque to the
// tree, but a tree may carry a value check (SetValueCheck) that the read
// path runs on every leaf value once per page load, keeping the frame it
// returns beside the value (Cursor.Frame, View.Lookup).
//
// A page's bytes never change once the tree has handed them out: every
// write (Put, Delete, a bulk build) gives the pager a new buffer, and
// the pager drops the page's parse with the old one. So a parse, and
// every frame in it, always describes the bytes beside it.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"unsafe"

	"upidb/internal/storage"
)

const metaMagic = 0x55504942 // "UPIB"

// ErrKeyTooLarge is returned when a key/value pair cannot fit in one page.
var ErrKeyTooLarge = errors.New("btree: entry too large for page")

// Tree is a B+Tree. It is not safe for concurrent use.
type Tree struct {
	pager *storage.Pager

	root   storage.PageID
	height int   // 1 = root is a leaf
	count  int64 // live entries
	leaves int64 // leaf pages

	// check, when set, is run by the read path's parse on every leaf
	// value (see SetValueCheck).
	check func(val []byte) uint32
}

// Create initializes a new tree on an empty pager: page 0 becomes the
// meta page and page 1 the root leaf.
func Create(p *storage.Pager) (*Tree, error) {
	if p.NumPages() != 0 {
		return nil, fmt.Errorf("btree: create on non-empty file %s", p.File().Name())
	}
	if _, err := p.Alloc(); err != nil { // meta page 0
		return nil, err
	}
	rootID, err := p.Alloc()
	if err != nil {
		return nil, err
	}
	t := &Tree{pager: p, root: rootID, height: 1, leaves: 1}
	root := &node{id: rootID, leaf: true, next: storage.InvalidPage}
	if err := t.writeNode(root); err != nil {
		return nil, err
	}
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open loads an existing tree from its pager.
func Open(p *storage.Pager) (*Tree, error) {
	if p.NumPages() == 0 {
		return nil, fmt.Errorf("btree: open on empty file %s", p.File().Name())
	}
	buf, err := p.Read(0)
	if err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint32(buf[0:]) != metaMagic {
		return nil, fmt.Errorf("btree: %s is not a btree file", p.File().Name())
	}
	t := &Tree{pager: p}
	t.root = storage.PageID(binary.BigEndian.Uint32(buf[4:]))
	t.height = int(binary.BigEndian.Uint32(buf[8:]))
	t.count = int64(binary.BigEndian.Uint64(buf[12:]))
	t.leaves = int64(binary.BigEndian.Uint64(buf[20:]))
	return t, nil
}

func (t *Tree) writeMeta() error {
	buf := make([]byte, t.pager.PageSize())
	binary.BigEndian.PutUint32(buf[0:], metaMagic)
	binary.BigEndian.PutUint32(buf[4:], uint32(t.root))
	binary.BigEndian.PutUint32(buf[8:], uint32(t.height))
	binary.BigEndian.PutUint64(buf[12:], uint64(t.count))
	binary.BigEndian.PutUint64(buf[20:], uint64(t.leaves))
	return t.pager.Write(0, buf)
}

// Count returns the number of live entries.
func (t *Tree) Count() int64 { return t.count }

// Height returns the tree height; 1 means the root is a leaf. It is
// the H parameter of the paper's cost models.
func (t *Tree) Height() int { return t.height }

// Leaves returns the number of leaf pages (Nleaf in the cost models).
func (t *Tree) Leaves() int64 { return t.leaves }

// Pager exposes the underlying pager (for cache control in benchmarks).
func (t *Tree) Pager() *storage.Pager { return t.pager }

// SetValueCheck makes the read path run check on every leaf value once
// per page load, when it parses the page, and keep the 32-bit frame
// check returns beside the value: Cursor.Frame and View.Lookup hand it
// out with the value, so a reader need not check the value again. A
// frame of 0 means check did not accept the value; the tree stores and
// serves such a value all the same, and leaves it to the reader to
// object. Set the check before the tree's first read: every reader of
// one pager must parse its pages alike (storage.View.ReadParsed).
func (t *Tree) SetValueCheck(check func(val []byte) uint32) { t.check = check }

// View reads the tree through one reader's view of its pager (see
// storage.View): the pages it misses are charged to that reader's
// Recorder, fetched readAhead pages at a time. A view is a value;
// taking one allocates nothing. The Tree's own Get, Scan and NewCursor
// read through View(nil, 1).
type View struct {
	t  *Tree
	pv storage.View
}

// View returns a view of the tree charging rec (the disk when nil).
func (t *Tree) View(rec storage.Recorder, readAhead int) View {
	return View{t: t, pv: t.pager.View(rec, readAhead)}
}

// readPage returns the parsed view of page id that the pool keeps, and
// charges, beside the page (storage.View.ReadParsed): the page is
// parsed, and its leaf values checked, once per load, not once per
// visit. The view aliases the pager's buffer, which the pager never
// recycles or changes; the writer's Write replaces it and drops the
// view. The slot table is shared by every reader of the page, so the
// read path only reads it.
func (v View) readPage(id storage.PageID) (page, error) {
	check := v.t.check
	_, parsed, err := v.pv.ReadParsed(id, func(buf []byte) (any, int, error) {
		pg, err := parsePage(id, buf)
		if err != nil {
			return nil, 0, err
		}
		if pg.leaf && check != nil {
			for i := range pg.slots {
				pg.slots[i].frame = check(pg.val(i))
			}
		}
		return &pg, int(unsafe.Sizeof(pg)) + cap(pg.slots)*int(unsafe.Sizeof(slot{})), nil
	})
	if err != nil {
		return page{}, err
	}
	return *parsed.(*page), nil
}

// readNode is the mutation path's page access. Its node's keys and
// values alias the page's buffer, which stays as it is: writeNode hands
// the pager a new buffer instead of overwriting the old one.
func (t *Tree) readNode(id storage.PageID) (*node, error) {
	buf, err := t.pager.Read(id)
	if err != nil {
		return nil, err
	}
	pg, err := parsePage(id, buf)
	if err != nil {
		return nil, err
	}
	return pg.node(), nil
}

func (t *Tree) writeNode(n *node) error {
	buf, err := n.serialize(t.pager.PageSize())
	if err != nil {
		return err
	}
	return t.pager.Write(n.id, buf)
}

func (t *Tree) allocNode(leaf bool) (*node, error) {
	id, err := t.pager.Alloc()
	if err != nil {
		return nil, err
	}
	n := &node{id: id, leaf: leaf}
	if leaf {
		n.next = storage.InvalidPage
		t.leaves++
	}
	return n, nil
}

// maxEntry returns the largest leaf entry that fits a page.
func (t *Tree) maxEntry() int { return t.pager.PageSize() - leafHeader }

// Get returns the value stored under key. The value aliases the
// pager's page, whose bytes no write changes: a write to the tree hands
// the pager a new page instead.
func (t *Tree) Get(key []byte) ([]byte, bool, error) { return t.View(nil, 1).Get(key) }

// Get is Tree.Get through the view.
func (v View) Get(key []byte) ([]byte, bool, error) {
	val, _, ok, err := v.Lookup(key)
	return val, ok, err
}

// Lookup is Get that also returns the frame the tree's value check
// gave the value when its page was loaded (0 without a check; see
// SetValueCheck).
func (v View) Lookup(key []byte) (val []byte, frame uint32, ok bool, err error) {
	pg, err := v.descendToLeaf(key)
	if err != nil {
		return nil, 0, false, err
	}
	i := pg.lowerBound(key)
	if i < len(pg.slots) && bytes.Equal(pg.key(i), key) {
		return pg.val(i), pg.slots[i].frame, true, nil
	}
	return nil, 0, false, nil
}

// descendToLeaf returns the leaf that key routes to.
func (v View) descendToLeaf(key []byte) (page, error) {
	pg, err := v.readPage(v.t.root)
	for err == nil && !pg.leaf {
		pg, err = v.readPage(pg.childFor(key))
	}
	return pg, err
}

type promotion struct {
	key   []byte
	right storage.PageID
}

// Put inserts or replaces the value under key. It reports whether a
// new entry was created (false means an existing key was overwritten).
func (t *Tree) Put(key, val []byte) (bool, error) {
	if leafEntrySize(key, val) > t.maxEntry() || len(key) > t.pager.PageSize()/8 {
		return false, ErrKeyTooLarge
	}
	inserted, promo, err := t.insert(t.root, key, val)
	if err != nil {
		return false, err
	}
	if promo != nil {
		newRoot, err := t.allocNode(false)
		if err != nil {
			return false, err
		}
		newRoot.keys = [][]byte{promo.key}
		newRoot.children = []storage.PageID{t.root, promo.right}
		if err := t.writeNode(newRoot); err != nil {
			return false, err
		}
		t.root = newRoot.id
		t.height++
	}
	if inserted {
		t.count++
	}
	return inserted, t.writeMeta()
}

func (t *Tree) insert(id storage.PageID, key, val []byte) (bool, *promotion, error) {
	n, err := t.readNode(id)
	if err != nil {
		return false, nil, err
	}
	if n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) >= 0 })
		inserted := true
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			n.vals[i] = append([]byte(nil), val...)
			inserted = false
		} else {
			n.keys = append(n.keys, nil)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = append([]byte(nil), key...)
			n.vals = append(n.vals, nil)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = append([]byte(nil), val...)
		}
		promo, err := t.splitIfNeeded(n)
		return inserted, promo, err
	}
	ci := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(key, n.keys[i]) < 0 })
	inserted, childPromo, err := t.insert(n.children[ci], key, val)
	if err != nil {
		return false, nil, err
	}
	if childPromo == nil {
		return inserted, nil, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = childPromo.key
	n.children = append(n.children, 0)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = childPromo.right
	promo, err := t.splitIfNeeded(n)
	return inserted, promo, err
}

// splitIfNeeded writes n back, splitting it first if it overflows its
// page. The returned promotion carries the separator for the parent.
func (t *Tree) splitIfNeeded(n *node) (*promotion, error) {
	if n.size() <= t.pager.PageSize() {
		return nil, t.writeNode(n)
	}
	if n.leaf {
		m := t.splitPointLeaf(n)
		right, err := t.allocNode(true)
		if err != nil {
			return nil, err
		}
		right.keys = append(right.keys, n.keys[m:]...)
		right.vals = append(right.vals, n.vals[m:]...)
		right.next = n.next
		n.keys = n.keys[:m]
		n.vals = n.vals[:m]
		n.next = right.id
		if err := t.writeNode(n); err != nil {
			return nil, err
		}
		if err := t.writeNode(right); err != nil {
			return nil, err
		}
		return &promotion{key: append([]byte(nil), right.keys[0]...), right: right.id}, nil
	}
	m := len(n.keys) / 2
	sep := n.keys[m]
	right, err := t.allocNode(false)
	if err != nil {
		return nil, err
	}
	right.keys = append(right.keys, n.keys[m+1:]...)
	right.children = append(right.children, n.children[m+1:]...)
	n.keys = n.keys[:m]
	n.children = n.children[:m+1]
	if err := t.writeNode(n); err != nil {
		return nil, err
	}
	if err := t.writeNode(right); err != nil {
		return nil, err
	}
	return &promotion{key: sep, right: right.id}, nil
}

// splitPointLeaf picks the index that best balances the two halves by
// serialized size while guaranteeing both halves fit a page.
func (t *Tree) splitPointLeaf(n *node) int {
	total := n.size() - leafHeader
	acc := 0
	for i := range n.keys {
		e := leafEntrySize(n.keys[i], n.vals[i])
		if acc+e > total/2 && i > 0 {
			return i
		}
		acc += e
	}
	return len(n.keys) - 1
}

// minFill is the byte threshold below which a node is considered
// underflowing and triggers rebalancing on delete.
func (t *Tree) minFill() int { return t.pager.PageSize() / 4 }

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(key []byte) (bool, error) {
	deleted, _, err := t.remove(t.root, key)
	if err != nil {
		return false, err
	}
	if !deleted {
		return false, nil
	}
	// Collapse the root when an internal root loses all separators.
	v := t.View(nil, 1)
	root, err := v.readPage(t.root)
	if err != nil {
		return false, err
	}
	for !root.leaf && len(root.slots) == 0 {
		t.root = root.child(0)
		t.height--
		if root, err = v.readPage(t.root); err != nil {
			return false, err
		}
	}
	t.count--
	return true, t.writeMeta()
}

func (t *Tree) remove(id storage.PageID, key []byte) (deleted, underflow bool, err error) {
	n, err := t.readNode(id)
	if err != nil {
		return false, false, err
	}
	if n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) >= 0 })
		if i >= len(n.keys) || !bytes.Equal(n.keys[i], key) {
			return false, false, nil
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		if err := t.writeNode(n); err != nil {
			return false, false, err
		}
		return true, n.size() < t.minFill(), nil
	}
	ci := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(key, n.keys[i]) < 0 })
	deleted, childUnder, err := t.remove(n.children[ci], key)
	if err != nil || !deleted || !childUnder {
		return deleted, false, err
	}
	if err := t.rebalanceChild(n, ci); err != nil {
		return false, false, err
	}
	if err := t.writeNode(n); err != nil {
		return false, false, err
	}
	return true, n.size() < t.minFill(), nil
}

// rebalanceChild restores the fill of parent.children[ci] by merging
// with or borrowing from an adjacent sibling. parent is mutated but
// not written; the caller writes it.
func (t *Tree) rebalanceChild(parent *node, ci int) error {
	if len(parent.children) == 1 {
		return nil // no siblings; nothing to do
	}
	li := ci // merge/borrow pair is (li, li+1)
	if ci == len(parent.children)-1 {
		li = ci - 1
	}
	left, err := t.readNode(parent.children[li])
	if err != nil {
		return err
	}
	right, err := t.readNode(parent.children[li+1])
	if err != nil {
		return err
	}
	// Exact size of the merged node: leaves drop one header; internal
	// nodes additionally absorb the parent separator as a new entry
	// whose child pointer is right's first child (already counted in
	// right's header, hence the -1 byte for the dropped type byte
	// net of bookkeeping below).
	var mergedSize int
	if left.leaf {
		mergedSize = left.size() + right.size() - leafHeader
	} else {
		mergedSize = left.size() + right.size() + len(parent.keys[li]) - 1
	}
	if mergedSize <= t.pager.PageSize() {
		return t.mergeSiblings(parent, li, left, right)
	}
	// Borrow entries until the underfull side is healthy again.
	if ci == li {
		err = t.borrowFromRight(parent, li, left, right)
	} else {
		err = t.borrowFromLeft(parent, li, left, right)
	}
	return err
}

func (t *Tree) mergeSiblings(parent *node, li int, left, right *node) error {
	if left.leaf {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
		t.leaves--
	} else {
		left.keys = append(left.keys, parent.keys[li])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	parent.keys = append(parent.keys[:li], parent.keys[li+1:]...)
	parent.children = append(parent.children[:li+1], parent.children[li+2:]...)
	// The right page is orphaned; pages are not reused (the merge
	// process that rewrites fractures reclaims space wholesale).
	return t.writeNode(left)
}

func (t *Tree) borrowFromRight(parent *node, li int, left, right *node) error {
	for left.size() < t.minFill() && len(right.keys) > 1 {
		var incoming int
		if left.leaf {
			incoming = leafEntrySize(right.keys[0], right.vals[0])
		} else {
			incoming = 2 + len(parent.keys[li]) + 4
		}
		if left.size()+incoming > t.pager.PageSize() {
			break
		}
		if left.leaf {
			left.keys = append(left.keys, right.keys[0])
			left.vals = append(left.vals, right.vals[0])
			right.keys = right.keys[1:]
			right.vals = right.vals[1:]
			parent.keys[li] = append([]byte(nil), right.keys[0]...)
		} else {
			left.keys = append(left.keys, parent.keys[li])
			left.children = append(left.children, right.children[0])
			parent.keys[li] = right.keys[0]
			right.keys = right.keys[1:]
			right.children = right.children[1:]
		}
	}
	if err := t.writeNode(left); err != nil {
		return err
	}
	return t.writeNode(right)
}

func (t *Tree) borrowFromLeft(parent *node, li int, left, right *node) error {
	for right.size() < t.minFill() && len(left.keys) > 1 {
		last := len(left.keys) - 1
		var incoming int
		if left.leaf {
			incoming = leafEntrySize(left.keys[last], left.vals[last])
		} else {
			incoming = 2 + len(parent.keys[li]) + 4
		}
		if right.size()+incoming > t.pager.PageSize() {
			break
		}
		if left.leaf {
			right.keys = append([][]byte{left.keys[last]}, right.keys...)
			right.vals = append([][]byte{left.vals[last]}, right.vals...)
			left.keys = left.keys[:last]
			left.vals = left.vals[:last]
			parent.keys[li] = append([]byte(nil), right.keys[0]...)
		} else {
			right.keys = append([][]byte{parent.keys[li]}, right.keys...)
			right.children = append([]storage.PageID{left.children[last+1]}, right.children...)
			parent.keys[li] = left.keys[last]
			left.keys = left.keys[:last]
			left.children = left.children[:last+1]
		}
	}
	if err := t.writeNode(left); err != nil {
		return err
	}
	return t.writeNode(right)
}
