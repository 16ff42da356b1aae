package btree

import (
	"bytes"
	"testing"
)

// FuzzParsePage throws arbitrary bytes at the page decoder. parsePage
// must not panic, and a page it accepts must be safe to read: every
// slot lies inside the buffer, and every accessor and search the read
// path calls on it stays there. The seeds are a leaf and an internal
// page of a bulk-built tree.
func FuzzParsePage(f *testing.F) {
	entries := make([]entry, 300)
	for i := range entries {
		entries[i] = entry{k(i), v(i)}
	}
	p, tr := buildCase(f, 256, 64, entries)
	root, err := p.Read(tr.root)
	if err != nil {
		f.Fatal(err)
	}
	pg, err := parsePage(tr.root, root)
	if err != nil || pg.leaf {
		f.Fatalf("root: %v leaf=%v", err, pg.leaf)
	}
	for !pg.leaf {
		buf, err := p.Read(pg.child(0))
		if err != nil {
			f.Fatal(err)
		}
		if pg, err = parsePage(pg.child(0), buf); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(bytes.Clone(root), k(150))
	f.Add(bytes.Clone(pg.buf), k(3))
	f.Fuzz(func(t *testing.T, buf, target []byte) {
		pg, err := parsePage(7, buf)
		if err != nil {
			return
		}
		for i, s := range pg.slots {
			end := int(s.off) + int(s.klen) + int(s.vlen)
			if !pg.leaf {
				end = int(s.off) + int(s.klen) + 4
			}
			if end > len(buf) {
				t.Fatalf("slot %d %+v ends at %d, past the %d-byte page", i, s, end, len(buf))
			}
			if key := pg.key(i); len(key) != int(s.klen) {
				t.Fatalf("key %d has %d bytes, slot says %d", i, len(key), s.klen)
			}
			if pg.leaf {
				if val := pg.val(i); len(val) != int(s.vlen) {
					t.Fatalf("value %d has %d bytes, slot says %d", i, len(val), s.vlen)
				}
			}
		}
		if pg.leaf {
			if i := pg.lowerBound(target); i < 0 || i > len(pg.slots) {
				t.Fatalf("lowerBound = %d of %d slots", i, len(pg.slots))
			}
			return
		}
		for i := 0; i <= len(pg.slots); i++ {
			pg.child(i)
		}
		pg.childFor(target)
	})
}
