package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"upidb/internal/storage"
)

// bulkFill is the target fill fraction for bulk-loaded pages. Loading
// slightly under full leaves headroom for a few inserts before splits
// begin, matching BDB's default bulk-fill behaviour.
const bulkFill = 0.9

// Builder bulk-loads a tree from keys supplied in strictly ascending
// order. Pages are allocated and written sequentially, which is what
// makes flushing a fracture or merging fractures a sequential write on
// the simulated disk (paper Section 4).
//
// Leaf entries are written straight into a buffer of the builder's
// own, in node.serialize's layout, which Write hands to the pager when
// the leaf closes: adding an entry copies its bytes once and allocates
// nothing, and the pool never holds a half-built leaf.
type Builder struct {
	pager *storage.Pager
	limit int

	// The open leaf: leaf is its page buffer (nil when none is open),
	// off the end of its entries and nkeys their count. Add opens a leaf
	// only to put an entry in it, so an open leaf is never empty.
	leafID storage.PageID
	leaf   []byte
	off    int
	nkeys  int

	// firstKey and lastKey alias the leaves' buffers, which nothing
	// rewrites once Write has handed them to the pager.
	firstKey []byte // the open leaf's smallest key
	lastKey  []byte

	count    int64
	leaves   int64
	finished bool
	// pending separators for each internal level being built:
	// level[i] holds (firstKey, pageID) of completed nodes at depth i.
	levels [][]sep
}

type sep struct {
	key []byte
	id  storage.PageID
}

// NewBuilder starts a bulk load on an empty pager.
func NewBuilder(p *storage.Pager) (*Builder, error) {
	if p.NumPages() != 0 {
		return nil, fmt.Errorf("btree: bulk load on non-empty file %s", p.File().Name())
	}
	if _, err := p.Alloc(); err != nil { // reserve meta page 0
		return nil, err
	}
	return &Builder{
		pager: p,
		limit: int(float64(p.PageSize()) * bulkFill),
	}, nil
}

// Add appends an entry. Keys must be strictly ascending.
func (b *Builder) Add(key, val []byte) error {
	if b.finished {
		return fmt.Errorf("btree: Add after Finish")
	}
	size := leafEntrySize(key, val)
	if size > b.pager.PageSize()-leafHeader {
		return ErrKeyTooLarge
	}
	if b.count > 0 && bytes.Compare(key, b.lastKey) <= 0 {
		return fmt.Errorf("btree: bulk keys not strictly ascending")
	}
	if b.leaf != nil && b.off+size > b.limit {
		// Leaves are allocated consecutively and nothing else allocates
		// during a bulk load, so the next leaf is the next page.
		if err := b.closeLeaf(b.leafID + 1); err != nil {
			return err
		}
	}
	if b.leaf == nil {
		if err := b.newLeaf(); err != nil {
			return err
		}
	}
	binary.BigEndian.PutUint16(b.leaf[b.off:], uint16(len(key)))
	binary.BigEndian.PutUint16(b.leaf[b.off+2:], uint16(len(val)))
	k := b.off + 4
	end := k + copy(b.leaf[k:], key)
	copy(b.leaf[end:], val)
	b.lastKey = b.leaf[k:end:end]
	if b.nkeys == 0 {
		b.firstKey = b.lastKey
	}
	b.off += size
	b.nkeys++
	b.count++
	return nil
}

func (b *Builder) newLeaf() error {
	id, err := b.pager.Alloc()
	if err != nil {
		return err
	}
	b.leafID, b.leaf, b.off, b.nkeys = id, make([]byte, b.pager.PageSize()), leafHeader, 0
	b.leaves++
	return nil
}

// closeLeaf writes the open leaf's header, chaining it to next, and
// hands the page to the pager, which records it dirty and most
// recently used exactly as a Write of its serialized node would.
func (b *Builder) closeLeaf(next storage.PageID) error {
	buf := b.leaf
	b.leaf = nil
	buf[0] = nodeLeaf
	binary.BigEndian.PutUint16(buf[1:], uint16(b.nkeys))
	binary.BigEndian.PutUint32(buf[3:], uint32(next))
	if err := b.pager.Write(b.leafID, buf); err != nil {
		return err
	}
	b.push(0, sep{key: b.firstKey, id: b.leafID})
	return nil
}

func (b *Builder) writeNode(n *node) error {
	buf, err := n.serialize(b.pager.PageSize())
	if err != nil {
		return err
	}
	return b.pager.Write(n.id, buf)
}

func (b *Builder) push(level int, s sep) {
	for len(b.levels) <= level {
		b.levels = append(b.levels, nil)
	}
	b.levels[level] = append(b.levels[level], s)
}

// Finish writes out the remaining pages, builds the internal levels
// bottom-up and returns the completed tree. An empty build yields a
// valid empty tree: a single empty root leaf.
func (b *Builder) Finish() (*Tree, error) {
	if b.finished {
		return nil, fmt.Errorf("btree: double Finish")
	}
	b.finished = true

	if b.leaf == nil {
		if err := b.newLeaf(); err != nil {
			return nil, err
		}
	}
	// Final leaf terminates the chain.
	if err := b.closeLeaf(storage.InvalidPage); err != nil {
		return nil, err
	}

	height := 1
	level := 0
	for len(b.levels[level]) > 1 {
		seps := b.levels[level]
		var cur *node
		newNode := func() error {
			id, err := b.pager.Alloc()
			if err != nil {
				return err
			}
			cur = &node{id: id}
			return nil
		}
		flush := func() error {
			if cur == nil {
				return nil
			}
			if err := b.writeNode(cur); err != nil {
				return err
			}
			b.push(level+1, sep{key: cur.firstKey, id: cur.id})
			cur = nil
			return nil
		}
		for _, s := range seps {
			if cur == nil {
				if err := newNode(); err != nil {
					return nil, err
				}
				cur.children = []storage.PageID{s.id}
				cur.firstKey = s.key
				continue
			}
			if cur.size()+2+len(s.key)+4 > b.limit {
				if err := flush(); err != nil {
					return nil, err
				}
				if err := newNode(); err != nil {
					return nil, err
				}
				cur.children = []storage.PageID{s.id}
				cur.firstKey = s.key
				continue
			}
			cur.keys = append(cur.keys, s.key)
			cur.children = append(cur.children, s.id)
		}
		if err := flush(); err != nil {
			return nil, err
		}
		level++
		height++
	}

	root := b.levels[level][0]
	t := &Tree{pager: b.pager, root: root.id, height: height, count: b.count, leaves: b.leaves}
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	return t, nil
}
