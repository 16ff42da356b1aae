package btree

import (
	"bytes"

	"upidb/internal/storage"
)

// Cursor iterates leaf entries in ascending key order. A cursor is a
// snapshot-style iterator without locking, like a BDB cursor: it holds
// a view of the current leaf that aliases the pager's page, so Key and
// Value are free of copies, and mutating the tree during iteration
// yields undefined (but memory-safe: no panic, no out-of-page read)
// entries.
type Cursor struct {
	v   View
	pg  page // current leaf; pg.buf == nil when unpositioned or exhausted
	idx int
	err error
}

// Seek positions the cursor at the first entry with key >= target and
// returns the cursor for chaining. This is the UPI.seekTo of the
// paper's Algorithm 2.
func (c *Cursor) Seek(target []byte) *Cursor {
	pg, err := c.v.descendToLeaf(target)
	if err != nil {
		c.fail(err)
		return c
	}
	c.pg = pg
	c.idx = pg.lowerBound(target)
	c.skipToNonEmpty()
	return c
}

// First positions the cursor at the smallest entry.
func (c *Cursor) First() *Cursor {
	pg, err := c.v.readPage(c.v.t.root)
	for err == nil && !pg.leaf {
		pg, err = c.v.readPage(pg.child(0))
	}
	if err != nil {
		c.fail(err)
		return c
	}
	c.pg = pg
	c.idx = 0
	c.skipToNonEmpty()
	return c
}

func (c *Cursor) fail(err error) {
	c.err = err
	c.pg = page{}
}

// skipToNonEmpty advances across empty leaves (possible after deletes).
func (c *Cursor) skipToNonEmpty() {
	for c.pg.buf != nil && c.idx >= len(c.pg.slots) {
		if c.pg.next == storage.InvalidPage {
			c.pg = page{}
			return
		}
		pg, err := c.v.readPage(c.pg.next)
		if err != nil {
			c.fail(err)
			return
		}
		c.pg = pg
		c.idx = 0
	}
}

// Valid reports whether the cursor points at an entry.
func (c *Cursor) Valid() bool { return c.err == nil && c.pg.buf != nil }

// Err returns the first I/O error the cursor encountered, if any.
func (c *Cursor) Err() error { return c.err }

// Key returns the current key. It aliases the page: valid until the
// next write to the tree.
func (c *Cursor) Key() []byte { return c.pg.key(c.idx) }

// Value returns the current value, aliasing the page like Key.
func (c *Cursor) Value() []byte { return c.pg.val(c.idx) }

// Frame returns the frame the tree's value check gave the current value
// when its page was loaded (0 without a check; see SetValueCheck).
func (c *Cursor) Frame() uint32 { return c.pg.slots[c.idx].frame }

// Next advances to the following entry (Cur.advance() in Algorithm 2).
func (c *Cursor) Next() {
	if !c.Valid() {
		return
	}
	c.idx++
	c.skipToNonEmpty()
}

// NewCursor returns an unpositioned cursor; call Seek or First.
func (t *Tree) NewCursor() *Cursor { return t.View(nil, 1).NewCursor() }

// NewCursor is Tree.NewCursor through the view.
func (v View) NewCursor() *Cursor { return &Cursor{v: v} }

// Scan calls fn for every entry with start <= key < end in order.
// A nil start begins at the first key; a nil end scans to the last.
// fn returning false stops the scan early. key and val alias the page,
// like Cursor.Key: fn may keep them until the next write to the tree.
func (t *Tree) Scan(start, end []byte, fn func(key, val []byte) bool) error {
	return t.View(nil, 1).Scan(start, end, fn)
}

// Scan is Tree.Scan through the view.
func (v View) Scan(start, end []byte, fn func(key, val []byte) bool) error {
	c := v.NewCursor()
	if start == nil {
		c.First()
	} else {
		c.Seek(start)
	}
	for c.Valid() {
		if end != nil && bytes.Compare(c.Key(), end) >= 0 {
			break
		}
		if !fn(c.Key(), c.Value()) {
			break
		}
		c.Next()
	}
	return c.Err()
}
