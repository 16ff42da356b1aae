// Package rtree implements a page-based R-Tree over 2-D rectangles,
// the substrate for package cupi's U-Tree and continuous UPI (paper
// Section 5). Nodes live on small pages (4 KiB by default,
// matching the paper's Figure 2) accessed through a storage.Pager, so
// every node touch is charged to the simulated disk.
//
// Leaf entries carry an auxiliary fixed-size payload (Aux) used by the
// U-Tree layer to embed precomputed probabilistically-constrained
// region radii directly in the entries, the way Tao et al.'s U-Tree
// fattens R*-Tree entries with PCRs.
package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"unsafe"

	"upidb/internal/prob"
	"upidb/internal/storage"
)

// AuxSize is the number of float64 auxiliary values stored per entry.
const AuxSize = 4

// Entry is one slot of a node: a bounding rectangle plus either a
// child page (internal nodes) or a data ID and aux payload (leaves).
type Entry struct {
	MBR   prob.Rect
	Child storage.PageID // internal nodes
	Data  uint64         // leaf nodes
	Aux   [AuxSize]float64
}

const (
	nodeInternal = 0
	nodeLeaf     = 1

	// entryBytes: 4 float64 MBR + 8 id/child + AuxSize float64 aux.
	entryBytes = 32 + 8 + AuxSize*8
	headerSize = 1 + 2 // type + count

	metaMagic = 0x55525452 // "URTR"
)

type node struct {
	id      storage.PageID
	leaf    bool
	entries []Entry
}

func (n *node) mbr() prob.Rect {
	r := n.entries[0].MBR
	for _, e := range n.entries[1:] {
		r = r.Union(e.MBR)
	}
	return r
}

// Tree is a page-based R-Tree. Not safe for concurrent use.
type Tree struct {
	pager  *storage.Pager
	root   storage.PageID
	height int // 1 = root is a leaf
	count  int64
}

// MaxEntries returns the node fan-out for the tree's page size.
func (t *Tree) MaxEntries() int { return (t.pager.PageSize() - headerSize) / entryBytes }

func (t *Tree) minEntries() int { return t.MaxEntries() * 2 / 5 } // R*-Tree's 40%

// Create initializes an empty tree: page 0 meta, page 1 root leaf.
func Create(p *storage.Pager) (*Tree, error) {
	if p.NumPages() != 0 {
		return nil, fmt.Errorf("rtree: create on non-empty file %s", p.File().Name())
	}
	if _, err := p.Alloc(); err != nil {
		return nil, err
	}
	rootID, err := p.Alloc()
	if err != nil {
		return nil, err
	}
	t := &Tree{pager: p, root: rootID, height: 1}
	if err := t.writeNode(&node{id: rootID, leaf: true}); err != nil {
		return nil, err
	}
	return t, t.writeMeta()
}

// Open loads an existing tree.
func Open(p *storage.Pager) (*Tree, error) {
	buf, err := p.Read(0)
	if err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint32(buf) != metaMagic {
		return nil, fmt.Errorf("rtree: %s is not an rtree file", p.File().Name())
	}
	return &Tree{
		pager:  p,
		root:   storage.PageID(binary.BigEndian.Uint32(buf[4:])),
		height: int(binary.BigEndian.Uint32(buf[8:])),
		count:  int64(binary.BigEndian.Uint64(buf[12:])),
	}, nil
}

// Count returns the number of data entries.
func (t *Tree) Count() int64 { return t.count }

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

// Pager exposes the underlying pager.
func (t *Tree) Pager() *storage.Pager { return t.pager }

func (t *Tree) writeMeta() error {
	buf := make([]byte, t.pager.PageSize())
	binary.BigEndian.PutUint32(buf, metaMagic)
	binary.BigEndian.PutUint32(buf[4:], uint32(t.root))
	binary.BigEndian.PutUint32(buf[8:], uint32(t.height))
	binary.BigEndian.PutUint64(buf[12:], uint64(t.count))
	return t.pager.Write(0, buf)
}

func (t *Tree) writeNode(n *node) error {
	if len(n.entries) > t.MaxEntries() {
		return fmt.Errorf("rtree: node %d overflows: %d > %d", n.id, len(n.entries), t.MaxEntries())
	}
	buf := make([]byte, t.pager.PageSize())
	encodeNode(buf, n.leaf, n.entries)
	return t.pager.Write(n.id, buf)
}

// encodeNode serializes a node's header and entries into the front of
// buf, which must hold them; the rest of buf is left as it is.
func encodeNode(buf []byte, leaf bool, entries []Entry) {
	if leaf {
		buf[0] = nodeLeaf
	} else {
		buf[0] = nodeInternal
	}
	binary.BigEndian.PutUint16(buf[1:], uint16(len(entries)))
	off := headerSize
	for _, e := range entries {
		for _, f := range []float64{e.MBR.MinX, e.MBR.MinY, e.MBR.MaxX, e.MBR.MaxY} {
			binary.BigEndian.PutUint64(buf[off:], math.Float64bits(f))
			off += 8
		}
		if leaf {
			binary.BigEndian.PutUint64(buf[off:], e.Data)
		} else {
			binary.BigEndian.PutUint64(buf[off:], uint64(e.Child))
		}
		off += 8
		for _, f := range e.Aux {
			binary.BigEndian.PutUint64(buf[off:], math.Float64bits(f))
			off += 8
		}
	}
}

// nodeView is a node page decoded once per load: the pool keeps it,
// and charges its size, beside the page (storage.View.ReadParsed)
// until the page is written, evicted or dropped, so searches read
// decoded MBRs instead of re-decoding the page on every visit. A view
// is shared by every reader of the page and never modified; a write to
// the page drops it and the next read decodes a fresh one. The
// mutating paths clone its entries (readNode).
type nodeView struct {
	leaf    bool
	entries []Entry
}

// parseNode validates the framing of one node page and decodes its
// entries. It is the tree's one page parser; its errors name the page.
func parseNode(id storage.PageID, buf []byte, maxEntries int) (*nodeView, error) {
	if len(buf) < headerSize {
		return nil, fmt.Errorf("rtree: page %d is %d bytes, shorter than a node header", id, len(buf))
	}
	if buf[0] != nodeLeaf && buf[0] != nodeInternal {
		return nil, fmt.Errorf("rtree: page %d has bad node type %d", id, buf[0])
	}
	cnt := int(binary.BigEndian.Uint16(buf[1:]))
	if cnt > maxEntries {
		return nil, fmt.Errorf("rtree: page %d claims %d entries, max %d", id, cnt, maxEntries)
	}
	if end := headerSize + cnt*entryBytes; end > len(buf) {
		return nil, fmt.Errorf("rtree: page %d claims %d entries ending at byte %d, past its %d bytes", id, cnt, end, len(buf))
	}
	v := &nodeView{leaf: buf[0] == nodeLeaf, entries: make([]Entry, cnt)}
	f64 := func(off int) float64 { return math.Float64frombits(binary.BigEndian.Uint64(buf[off:])) }
	for i := range v.entries {
		e, off := &v.entries[i], headerSize+i*entryBytes
		e.MBR = prob.Rect{MinX: f64(off), MinY: f64(off + 8), MaxX: f64(off + 16), MaxY: f64(off + 24)}
		ref := binary.BigEndian.Uint64(buf[off+32:])
		if v.leaf {
			e.Data = ref
		} else {
			if ref > math.MaxUint32 {
				return nil, fmt.Errorf("rtree: page %d entry %d points at page %d, past the page-ID range", id, i, ref)
			}
			e.Child = storage.PageID(ref)
		}
		for j := range e.Aux {
			e.Aux[j] = f64(off + 40 + 8*j)
		}
	}
	return v, nil
}

// View reads the tree through one reader's view of its pager (see
// storage.View): the node pages it misses are charged to that reader's
// Recorder. A view is a value; the Tree's own searches read through
// View(nil, 1).
type View struct {
	t  *Tree
	pv storage.View
}

// View returns a view of the tree charging rec (the disk when nil).
func (t *Tree) View(rec storage.Recorder, readAhead int) View {
	return View{t: t, pv: t.pager.View(rec, readAhead)}
}

// viewNode returns page id's decoded node, parsing the page only on
// its first read since it was loaded or last written.
func (tv View) viewNode(id storage.PageID) (*nodeView, error) {
	_, parsed, err := tv.pv.ReadParsed(id, func(buf []byte) (any, int, error) {
		v, err := parseNode(id, buf, tv.t.MaxEntries())
		if err != nil {
			return nil, 0, err
		}
		return v, int(unsafe.Sizeof(*v)) + cap(v.entries)*int(unsafe.Sizeof(Entry{})), nil
	})
	if err != nil {
		return nil, err
	}
	return parsed.(*nodeView), nil
}

// readNode materializes a node for the mutating paths (insert, split,
// root growth), which edit and rewrite its entries: it clones the
// shared decoded entries.
func (t *Tree) readNode(id storage.PageID) (*node, error) {
	v, err := t.View(nil, 1).viewNode(id)
	if err != nil {
		return nil, err
	}
	return &node{id: id, leaf: v.leaf, entries: slices.Clone(v.entries)}, nil
}

func (t *Tree) allocNode(leaf bool) (*node, error) {
	id, err := t.pager.Alloc()
	if err != nil {
		return nil, err
	}
	return &node{id: id, leaf: leaf}, nil
}

// Search visits every leaf entry whose MBR intersects r. fn returning
// false stops the search.
func (t *Tree) Search(r prob.Rect, fn func(e Entry) bool) error {
	_, err := t.View(nil, 1).search(t.root, r, fn)
	return err
}

func (tv View) search(id storage.PageID, r prob.Rect, fn func(e Entry) bool) (bool, error) {
	v, err := tv.viewNode(id)
	if err != nil {
		return false, err
	}
	for i := range v.entries {
		e := &v.entries[i]
		if !e.MBR.Intersects(r) {
			continue
		}
		if v.leaf {
			if !fn(*e) {
				return false, nil
			}
		} else {
			cont, err := tv.search(e.Child, r, fn)
			if err != nil || !cont {
				return cont, err
			}
		}
	}
	return true, nil
}

// SearchLeaves visits matching entries grouped by their leaf node, in
// DFS order. The continuous UPI uses the grouping to read one heap
// region per leaf (Section 5). matches is one buffer the whole
// traversal refills: it is valid only until fn returns, so fn copies
// what it keeps.
func (t *Tree) SearchLeaves(r prob.Rect, fn func(leafID storage.PageID, matches []Entry) bool) error {
	return t.View(nil, 1).SearchLeaves(r, fn)
}

// SearchLeaves is Tree.SearchLeaves through the view.
func (tv View) SearchLeaves(r prob.Rect, fn func(leafID storage.PageID, matches []Entry) bool) error {
	s := leafSearch{tv: tv, r: r, fn: fn}
	_, err := s.walk(tv.t.root)
	return err
}

// leafSearch is one SearchLeaves traversal and its matches buffer,
// sized once for a full leaf on the first leaf it reaches.
type leafSearch struct {
	tv      View
	r       prob.Rect
	fn      func(storage.PageID, []Entry) bool
	matches []Entry
}

func (s *leafSearch) walk(id storage.PageID) (bool, error) {
	v, err := s.tv.viewNode(id)
	if err != nil {
		return false, err
	}
	if v.leaf {
		if s.matches == nil {
			s.matches = make([]Entry, 0, s.tv.t.MaxEntries())
		}
		s.matches = s.matches[:0]
		for i := range v.entries {
			if v.entries[i].MBR.Intersects(s.r) {
				s.matches = append(s.matches, v.entries[i])
			}
		}
		if len(s.matches) == 0 {
			return true, nil
		}
		return s.fn(id, s.matches), nil
	}
	for i := range v.entries {
		if !v.entries[i].MBR.Intersects(s.r) {
			continue
		}
		cont, err := s.walk(v.entries[i].Child)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// Leaves visits every leaf in DFS order ("hierarchical node location"
// order), which is the clustering order of the continuous UPI heap.
// entries is the leaf's decoded form, shared with every reader of the
// page: fn may keep it but must not modify it.
func (t *Tree) Leaves(fn func(leafID storage.PageID, entries []Entry) bool) error {
	_, err := t.View(nil, 1).leaves(t.root, fn)
	return err
}

func (tv View) leaves(id storage.PageID, fn func(storage.PageID, []Entry) bool) (bool, error) {
	v, err := tv.viewNode(id)
	if err != nil {
		return false, err
	}
	if v.leaf {
		return fn(id, v.entries), nil
	}
	for i := range v.entries {
		cont, err := tv.leaves(v.entries[i].Child, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// Insert adds a leaf entry, splitting nodes as needed (quadratic
// split, ChooseSubtree by least area enlargement).
func (t *Tree) Insert(e Entry) error {
	splitRoot, err := t.insert(t.root, e, t.height)
	if err != nil {
		return err
	}
	if splitRoot != nil {
		oldRoot, err := t.readNode(t.root)
		if err != nil {
			return err
		}
		newRoot, err := t.allocNode(false)
		if err != nil {
			return err
		}
		newNode, err := t.readNode(*splitRoot)
		if err != nil {
			return err
		}
		newRoot.entries = []Entry{
			{MBR: oldRoot.mbr(), Child: t.root},
			{MBR: newNode.mbr(), Child: *splitRoot},
		}
		if err := t.writeNode(newRoot); err != nil {
			return err
		}
		t.root = newRoot.id
		t.height++
	}
	t.count++
	return t.writeMeta()
}

// insert descends level levels; returns the page ID of a new sibling
// if the visited node split.
func (t *Tree) insert(id storage.PageID, e Entry, level int) (*storage.PageID, error) {
	n, err := t.readNode(id)
	if err != nil {
		return nil, err
	}
	if n.leaf {
		n.entries = append(n.entries, e)
		return t.splitIfNeeded(n)
	}
	// ChooseSubtree: least area enlargement, then least area.
	best, bestEnl, bestArea := -1, math.Inf(1), math.Inf(1)
	for i, c := range n.entries {
		enl := c.MBR.Union(e.MBR).Area() - c.MBR.Area()
		area := c.MBR.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	child := n.entries[best].Child
	split, err := t.insert(child, e, level-1)
	if err != nil {
		return nil, err
	}
	// Refresh the chosen child's MBR.
	cn, err := t.readNode(child)
	if err != nil {
		return nil, err
	}
	n.entries[best].MBR = cn.mbr()
	if split != nil {
		sn, err := t.readNode(*split)
		if err != nil {
			return nil, err
		}
		n.entries = append(n.entries, Entry{MBR: sn.mbr(), Child: *split})
	}
	return t.splitIfNeeded(n)
}

func (t *Tree) splitIfNeeded(n *node) (*storage.PageID, error) {
	if len(n.entries) <= t.MaxEntries() {
		return nil, t.writeNode(n)
	}
	right, err := t.allocNode(n.leaf)
	if err != nil {
		return nil, err
	}
	t.quadraticSplit(n, right)
	if err := t.writeNode(n); err != nil {
		return nil, err
	}
	if err := t.writeNode(right); err != nil {
		return nil, err
	}
	return &right.id, nil
}

// quadraticSplit distributes n's entries between n and right using
// Guttman's quadratic algorithm with the R*-style minimum fill.
func (t *Tree) quadraticSplit(n, right *node) {
	entries := n.entries
	// Pick seeds: the pair wasting the most area together.
	s1, s2, worst := 0, 1, math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].MBR.Union(entries[j].MBR).Area() - entries[i].MBR.Area() - entries[j].MBR.Area()
			if d > worst {
				s1, s2, worst = i, j, d
			}
		}
	}
	g1 := []Entry{entries[s1]}
	g2 := []Entry{entries[s2]}
	r1, r2 := entries[s1].MBR, entries[s2].MBR
	minFill := t.minEntries()
	rest := make([]Entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		// Force-assign when one group must take everything remaining.
		if len(g1)+len(rest) == minFill {
			g1 = append(g1, rest...)
			break
		}
		if len(g2)+len(rest) == minFill {
			g2 = append(g2, rest...)
			break
		}
		// Pick the entry with the greatest preference difference.
		bestIdx, bestDiff := 0, math.Inf(-1)
		for i, e := range rest {
			d1 := r1.Union(e.MBR).Area() - r1.Area()
			d2 := r2.Union(e.MBR).Area() - r2.Area()
			if diff := math.Abs(d1 - d2); diff > bestDiff {
				bestIdx, bestDiff = i, diff
			}
		}
		e := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		d1 := r1.Union(e.MBR).Area() - r1.Area()
		d2 := r2.Union(e.MBR).Area() - r2.Area()
		if d1 < d2 || (d1 == d2 && len(g1) < len(g2)) {
			g1 = append(g1, e)
			r1 = r1.Union(e.MBR)
		} else {
			g2 = append(g2, e)
			r2 = r2.Union(e.MBR)
		}
	}
	n.entries = g1
	right.entries = g2
}

// BulkLoad builds the tree from scratch with Sort-Tile-Recursive
// packing: leaves come out spatially clustered and are written in
// strictly increasing page order, so DFS leaf order, spatial order and
// physical file order all agree — the property the continuous UPI's
// heap clustering relies on. place, when not nil, is called once per
// leaf in that order, just before the leaf is written, and may rewrite
// the leaf's Data fields (the continuous UPI appends the leaf's rows to
// its heap there and stores their positions).
func (t *Tree) BulkLoad(entries []Entry, place func(leaf []Entry) error) error {
	if t.count != 0 {
		return fmt.Errorf("rtree: bulk load on non-empty tree")
	}
	if len(entries) == 0 {
		return nil
	}
	cap := int(float64(t.MaxEntries()) * 0.8)
	if cap < 2 {
		cap = 2
	}
	level := strPack(entries, cap)
	// Write leaves.
	type built struct {
		id  storage.PageID
		mbr prob.Rect
	}
	cur := make([]built, 0, len(level))
	// Reuse the pre-allocated root page for the first leaf to avoid
	// orphaning it.
	for i, group := range level {
		var n *node
		if i == 0 {
			n = &node{id: t.root, leaf: true, entries: group}
		} else {
			var err error
			if n, err = t.allocNode(true); err != nil {
				return err
			}
			n.entries = group
		}
		if place != nil {
			if err := place(group); err != nil {
				return err
			}
		}
		if err := t.writeNode(n); err != nil {
			return err
		}
		cur = append(cur, built{id: n.id, mbr: n.mbr()})
	}
	t.height = 1
	// Build internal levels.
	for len(cur) > 1 {
		var parents []built
		for i := 0; i < len(cur); i += cap {
			end := i + cap
			if end > len(cur) {
				end = len(cur)
			}
			p, err := t.allocNode(false)
			if err != nil {
				return err
			}
			for _, c := range cur[i:end] {
				p.entries = append(p.entries, Entry{MBR: c.mbr, Child: c.id})
			}
			if err := t.writeNode(p); err != nil {
				return err
			}
			parents = append(parents, built{id: p.id, mbr: p.mbr()})
		}
		cur = parents
		t.height++
	}
	t.root = cur[0].id
	t.count = int64(len(entries))
	return t.writeMeta()
}

// strPack groups entries into leaf-sized runs by Sort-Tile-Recursive:
// sort by center X, cut into vertical slices, sort each slice by
// center Y, cut into runs.
func strPack(entries []Entry, cap int) [][]Entry {
	es := append([]Entry(nil), entries...)
	nLeaves := (len(es) + cap - 1) / cap
	nSlices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceSize := nSlices * cap
	sort.Slice(es, func(i, j int) bool {
		return es[i].MBR.Center().X < es[j].MBR.Center().X
	})
	var out [][]Entry
	for s := 0; s < len(es); s += sliceSize {
		end := s + sliceSize
		if end > len(es) {
			end = len(es)
		}
		slice := es[s:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].MBR.Center().Y < slice[j].MBR.Center().Y
		})
		for i := 0; i < len(slice); i += cap {
			e := i + cap
			if e > len(slice) {
				e = len(slice)
			}
			out = append(out, append([]Entry(nil), slice[i:e]...))
		}
	}
	return out
}
