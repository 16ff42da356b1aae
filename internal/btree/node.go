package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"upidb/internal/storage"
)

// On-page node layout (big endian):
//
//	leaf:     [1: type=1][2: nkeys][4: next leaf PageID]
//	          then nkeys × [2: klen][2: vlen][key][value]
//	internal: [1: type=0][2: nkeys][4: child0]
//	          then nkeys × [2: klen][key][4: child]
//
// An internal node with nkeys separators has nkeys+1 children;
// keys[i] is the smallest key reachable under children[i+1].
const (
	nodeInternal = 0
	nodeLeaf     = 1

	leafHeader     = 1 + 2 + 4
	internalHeader = 1 + 2 + 4
)

type node struct {
	id       storage.PageID
	leaf     bool
	keys     [][]byte
	vals     [][]byte         // leaf only, len == len(keys)
	children []storage.PageID // internal only, len == len(keys)+1
	next     storage.PageID   // leaf only; InvalidPage terminates the chain

	// firstKey is transient bookkeeping used only during bulk loads:
	// the smallest key reachable under this internal node. It is not
	// serialized.
	firstKey []byte
}

// size returns the serialized size of the node in bytes.
func (n *node) size() int {
	if n.leaf {
		s := leafHeader
		for i := range n.keys {
			s += 4 + len(n.keys[i]) + len(n.vals[i])
		}
		return s
	}
	s := internalHeader
	for i := range n.keys {
		s += 2 + len(n.keys[i]) + 4
	}
	return s
}

func leafEntrySize(k, v []byte) int { return 4 + len(k) + len(v) }

func (n *node) serialize(pageSize int) ([]byte, error) {
	if n.size() > pageSize {
		return nil, fmt.Errorf("btree: node %d overflows page: %d > %d", n.id, n.size(), pageSize)
	}
	buf := make([]byte, pageSize)
	if n.leaf {
		buf[0] = nodeLeaf
		binary.BigEndian.PutUint16(buf[1:], uint16(len(n.keys)))
		binary.BigEndian.PutUint32(buf[3:], uint32(n.next))
		off := leafHeader
		for i := range n.keys {
			binary.BigEndian.PutUint16(buf[off:], uint16(len(n.keys[i])))
			binary.BigEndian.PutUint16(buf[off+2:], uint16(len(n.vals[i])))
			off += 4
			off += copy(buf[off:], n.keys[i])
			off += copy(buf[off:], n.vals[i])
		}
		return buf, nil
	}
	buf[0] = nodeInternal
	binary.BigEndian.PutUint16(buf[1:], uint16(len(n.keys)))
	binary.BigEndian.PutUint32(buf[3:], uint32(n.children[0]))
	off := internalHeader
	for i := range n.keys {
		binary.BigEndian.PutUint16(buf[off:], uint16(len(n.keys[i])))
		off += 2
		off += copy(buf[off:], n.keys[i])
		binary.BigEndian.PutUint32(buf[off:], uint32(n.children[i+1]))
		off += 4
	}
	return buf, nil
}

// page is a parsed, read-only view of one serialized node. Keys and
// values are sub-slices of buf (capacity capped, so an append cannot
// reach the neighbouring entry), located through the slot table. Every
// slot was bounds-checked by parsePage against the buffer it indexes,
// so accessors never fail or panic. The tree's writer never changes a
// buffer it has handed out (it gives the pager a new one), so a slot,
// and the frame in it, describes the bytes it indexes for as long as
// the page is held.
//
// On the read path the pager keeps one parsed page per loaded page
// (View.readPage) and readers work on copies of it: a page's slot
// table is shared by every reader of that page, and nothing writes
// into it.
type page struct {
	id    storage.PageID
	buf   []byte // nil = no page (an unpositioned or exhausted cursor)
	leaf  bool
	next  storage.PageID // leaf only
	slots []slot
}

// slot locates one entry in page.buf: the key starts at off and runs
// klen bytes; a leaf's value (vlen bytes) or an internal node's 4-byte
// child pointer follows it. frame is what the tree's value check
// returned for a leaf's value when the read path parsed the page (0
// without a check, and on the mutation path).
type slot struct {
	off        uint32
	klen, vlen uint16
	frame      uint32
}

// parsePage validates the framing of one serialized node and returns a
// view of it that aliases buf, with a freshly allocated slot table
// indexing every entry. The read path runs it once per page load (see
// View.readPage); the mutation path runs it on a private clone (see
// Tree.readNode).
func parsePage(id storage.PageID, buf []byte) (page, error) {
	if len(buf) < leafHeader {
		return page{}, fmt.Errorf("btree: page %d too short", id)
	}
	nkeys := int(binary.BigEndian.Uint16(buf[1:]))
	pg := page{id: id, buf: buf, slots: make([]slot, nkeys)}
	switch buf[0] {
	case nodeLeaf:
		pg.leaf = true
		pg.next = storage.PageID(binary.BigEndian.Uint32(buf[3:]))
		off := leafHeader
		for i := 0; i < nkeys; i++ {
			if off+4 > len(buf) {
				return page{}, fmt.Errorf("btree: page %d truncated at entry %d", id, i)
			}
			kl := binary.BigEndian.Uint16(buf[off:])
			vl := binary.BigEndian.Uint16(buf[off+2:])
			off += 4
			if off+int(kl)+int(vl) > len(buf) {
				return page{}, fmt.Errorf("btree: page %d entry %d out of bounds", id, i)
			}
			pg.slots[i] = slot{off: uint32(off), klen: kl, vlen: vl}
			off += int(kl) + int(vl)
		}
	case nodeInternal:
		off := internalHeader
		for i := 0; i < nkeys; i++ {
			if off+2 > len(buf) {
				return page{}, fmt.Errorf("btree: page %d truncated at separator %d", id, i)
			}
			kl := binary.BigEndian.Uint16(buf[off:])
			off += 2
			if off+int(kl)+4 > len(buf) {
				return page{}, fmt.Errorf("btree: page %d separator %d out of bounds", id, i)
			}
			pg.slots[i] = slot{off: uint32(off), klen: kl}
			off += int(kl) + 4
		}
	default:
		return page{}, fmt.Errorf("btree: page %d has unknown node type %d", id, buf[0])
	}
	return pg, nil
}

func (p *page) key(i int) []byte {
	s := p.slots[i]
	end := int(s.off) + int(s.klen)
	return p.buf[s.off:end:end]
}

// val returns a leaf entry's value.
func (p *page) val(i int) []byte {
	s := p.slots[i]
	start := int(s.off) + int(s.klen)
	end := start + int(s.vlen)
	return p.buf[start:end:end]
}

// child returns an internal node's i-th child, 0 <= i <= len(slots).
func (p *page) child(i int) storage.PageID {
	if i == 0 {
		return storage.PageID(binary.BigEndian.Uint32(p.buf[3:]))
	}
	s := p.slots[i-1]
	return storage.PageID(binary.BigEndian.Uint32(p.buf[int(s.off)+int(s.klen):]))
}

// lowerBound returns the index of the first key >= target, or
// len(slots): a leaf's seek position.
func (p *page) lowerBound(target []byte) int {
	return sort.Search(len(p.slots), func(i int) bool { return bytes.Compare(p.key(i), target) >= 0 })
}

// childFor returns the child an internal node routes key to: the one
// left of the first separator greater than key.
func (p *page) childFor(key []byte) storage.PageID {
	return p.child(sort.Search(len(p.slots), func(i int) bool { return bytes.Compare(key, p.key(i)) < 0 }))
}

// node materialises the view as a mutable node whose keys and values
// still alias p.buf; the mutation path hands it a private clone of the
// page (see Tree.readNode).
func (p *page) node() *node {
	n := &node{id: p.id, leaf: p.leaf, next: p.next, keys: make([][]byte, len(p.slots))}
	for i := range p.slots {
		n.keys[i] = p.key(i)
	}
	if p.leaf {
		n.vals = make([][]byte, len(p.slots))
		for i := range p.slots {
			n.vals[i] = p.val(i)
		}
		return n
	}
	n.children = make([]storage.PageID, len(p.slots)+1)
	for i := range n.children {
		n.children[i] = p.child(i)
	}
	return n
}
