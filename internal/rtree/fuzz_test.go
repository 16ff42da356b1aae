package rtree

import (
	"bytes"
	"testing"

	"upidb/internal/storage"
)

// FuzzParseNodePage throws arbitrary bytes at the node page decoder.
// parseNode must not panic, and a page it accepts must hold no more
// than a node's fan-out and decode losslessly: encoding the decoded
// entries the way writeNode does gives back the page's header and
// entry bytes. The seeds are a leaf and an internal page of a grown
// tree (512-byte pages, fan-out 7).
func FuzzParseNodePage(f *testing.F) {
	tr, _ := grownTree(f, 200)
	root, err := tr.pager.Read(tr.root)
	if err != nil {
		f.Fatal(err)
	}
	var leaf storage.PageID
	if err := tr.Leaves(func(id storage.PageID, _ []Entry) bool { leaf = id; return false }); err != nil {
		f.Fatal(err)
	}
	leafPage, err := tr.pager.Read(leaf)
	if err != nil {
		f.Fatal(err)
	}
	if root[0] != nodeInternal || leafPage[0] != nodeLeaf {
		f.Fatalf("seed pages have node types %d and %d, want an internal and a leaf page", root[0], leafPage[0])
	}
	f.Add(bytes.Clone(root))
	f.Add(bytes.Clone(leafPage))
	max := tr.MaxEntries()
	f.Fuzz(func(t *testing.T, buf []byte) {
		v, err := parseNode(7, buf, max)
		if err != nil {
			return
		}
		if len(v.entries) > max {
			t.Fatalf("accepted %d entries, fan-out %d", len(v.entries), max)
		}
		end := headerSize + len(v.entries)*entryBytes
		out := make([]byte, end)
		encodeNode(out, v.leaf, v.entries)
		if !bytes.Equal(out, buf[:end]) {
			t.Fatalf("re-encoding the decoded %d entries (leaf=%v) does not give back the page's first %d bytes", len(v.entries), v.leaf, end)
		}
	})
}
