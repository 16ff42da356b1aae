// Package heapfile implements an unclustered, append-only heap file
// with slotted pages and RowID addressing.
//
// It is the baseline storage layout the paper compares UPIs against:
// "an unclustered table (clustered by an auto-increment sequence)".
// The PII secondary index points into this heap; fetching many rows
// costs one random seek per distinct page even after sorting RowIDs in
// heap order (the bitmap-index-scan discipline the paper assumes).
package heapfile

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"upidb/internal/storage"
)

// RowID locates one record: a page number and a slot within the page.
type RowID struct {
	Page storage.PageID
	Slot uint16
}

// Compare orders RowIDs in physical heap order (the order a bitmap
// scan visits pages in).
func (r RowID) Compare(o RowID) int {
	if c := cmp.Compare(r.Page, o.Page); c != 0 {
		return c
	}
	return cmp.Compare(r.Slot, o.Slot)
}

// Less reports whether r precedes o in physical heap order.
func (r RowID) Less(o RowID) bool { return r.Compare(o) < 0 }

func (r RowID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// Page layout:
//
//	[2: nslots][2: freeOff] then per slot [2: off][2: len]
//	record data grows from the end of the page downward.
//
// A slot with len == 0xFFFF is a tombstone.
const (
	pageHeader   = 4
	slotSize     = 4
	tombstoneLen = 0xFFFF
)

// Heap is an append-only heap file. Records are immutable once
// written; Delete marks a tombstone. Not safe for concurrent use.
type Heap struct {
	pager *storage.Pager
	// tail is the page records are currently appended to.
	tail      storage.PageID
	tailValid bool
	count     int64
}

// Create initializes an empty heap on an empty pager.
func Create(p *storage.Pager) (*Heap, error) {
	if p.NumPages() != 0 {
		return nil, fmt.Errorf("heapfile: create on non-empty file %s", p.File().Name())
	}
	return &Heap{pager: p}, nil
}

// Open loads an existing heap, recounting live records with one
// sequential pass (heap files carry no meta page).
func Open(p *storage.Pager) (*Heap, error) {
	h := &Heap{pager: p}
	if p.NumPages() > 0 {
		h.tail = p.NumPages() - 1
		h.tailValid = true
	}
	err := h.Scan(func(RowID, []byte) bool {
		h.count++
		return true
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Count returns the number of live (non-deleted) records.
func (h *Heap) Count() int64 { return h.count }

// Pager exposes the underlying pager for cache control.
func (h *Heap) Pager() *storage.Pager { return h.pager }

// NumPages returns the heap size in pages.
func (h *Heap) NumPages() storage.PageID { return h.pager.NumPages() }

func readHeader(buf []byte) (nslots int, freeOff int) {
	return int(binary.BigEndian.Uint16(buf[0:])), int(binary.BigEndian.Uint16(buf[2:]))
}

func writeHeader(buf []byte, nslots, freeOff int) {
	binary.BigEndian.PutUint16(buf[0:], uint16(nslots))
	binary.BigEndian.PutUint16(buf[2:], uint16(freeOff))
}

func slotAt(buf []byte, i int) (off, length int) {
	base := pageHeader + i*slotSize
	return int(binary.BigEndian.Uint16(buf[base:])), int(binary.BigEndian.Uint16(buf[base+2:]))
}

// record returns the bytes slot i of page pg holds, or live=false for
// a tombstone. A slot entry or record extent that leaves the page (a
// corrupt slot table) is an error, not a panic.
func record(buf []byte, pg storage.PageID, i int) (rec []byte, live bool, err error) {
	if pageHeader+(i+1)*slotSize > len(buf) {
		return nil, false, fmt.Errorf("heapfile: slot %d on page %d out of bounds", i, pg)
	}
	off, length := slotAt(buf, i)
	if length == tombstoneLen {
		return nil, false, nil
	}
	if off+length > len(buf) {
		return nil, false, fmt.Errorf("heapfile: slot %d on page %d out of bounds", i, pg)
	}
	return buf[off : off+length], true, nil
}

func setSlot(buf []byte, i, off, length int) {
	base := pageHeader + i*slotSize
	binary.BigEndian.PutUint16(buf[base:], uint16(off))
	binary.BigEndian.PutUint16(buf[base+2:], uint16(length))
}

// Append stores a record at the end of the heap and returns its RowID.
// Appends are sequential I/O: they only ever touch the tail page.
func (h *Heap) Append(rec []byte) (RowID, error) {
	if len(rec) >= tombstoneLen || len(rec)+slotSize > h.pager.PageSize()-pageHeader {
		return RowID{}, fmt.Errorf("heapfile: record of %d bytes exceeds page capacity", len(rec))
	}
	if h.tailValid {
		if id, err := h.appendTo(h.tail, rec); err != nil || id.Slot != tombstoneLen {
			return id, err
		}
	}
	tail, err := h.pager.Alloc()
	if err != nil {
		return RowID{}, err
	}
	h.tail, h.tailValid = tail, true
	return h.appendTo(tail, rec)
}

// appendTo adds rec to page pg, a fresh zeroed page or one holding
// records, in place under the pool's lock. A page without room for rec
// yields slot tombstoneLen and stays as it is.
func (h *Heap) appendTo(pg storage.PageID, rec []byte) (RowID, error) {
	id := RowID{Page: pg, Slot: tombstoneLen}
	err := h.pager.Update(pg, func(buf []byte) bool {
		nslots, freeOff := readHeader(buf)
		if nslots == 0 {
			freeOff = len(buf) // a 64 KiB page's end does not fit the header
		}
		newOff := freeOff - len(rec)
		if newOff < pageHeader+(nslots+1)*slotSize {
			return false
		}
		copy(buf[newOff:], rec)
		setSlot(buf, nslots, newOff, len(rec))
		writeHeader(buf, nslots+1, newOff)
		id.Slot = uint16(nslots)
		h.count++
		return true
	})
	if err != nil {
		return RowID{}, err
	}
	return id, nil
}

// View reads the heap through one reader's view of its pager (see
// storage.View): the pages it misses are charged to that reader's
// Recorder, fetched readAhead pages at a time. A view is a value; the
// Heap's own Get and Scan read through View(nil, 1).
type View struct {
	h  *Heap
	pv storage.View
}

// View returns a view of the heap charging rec (the disk when nil).
func (h *Heap) View(rec storage.Recorder, readAhead int) View {
	return View{h: h, pv: h.pager.View(rec, readAhead)}
}

// Get returns the record at id, or ok=false if it was deleted.
func (h *Heap) Get(id RowID) ([]byte, bool, error) { return h.View(nil, 1).Get(id) }

// Get is Heap.Get through the view: a one-shot Reader.
func (v View) Get(id RowID) ([]byte, bool, error) {
	r := v.Reader()
	return r.Get(id)
}

// Reader is a View that keeps the last page it read: a Get on that
// page again takes no pool lock. The kept page aliases the pool's
// frame, which only Pager.Update changes in place (Append and Delete
// use it), and the pool never recycles a page's bytes once Read has
// returned them, so an eviction leaves the kept page readable. A Reader
// is therefore correct only while its owner keeps every writer of the
// heap out for the reader's whole life, as a query holding its table's
// read lock does. A Get served from the kept page is no pool hit and
// leaves the page's place in the pool's LRU order as it was. Not safe
// for concurrent use.
type Reader struct {
	v   View
	pg  storage.PageID
	buf []byte // page pg's bytes; nil before the first read
}

// Reader returns a reader over the view that has read no page yet.
func (v View) Reader() Reader { return Reader{v: v} }

// Get is View.Get, served from the kept page when id is on it.
func (r *Reader) Get(id RowID) ([]byte, bool, error) {
	if r.buf == nil || id.Page != r.pg {
		buf, err := r.v.pv.Read(id.Page)
		if err != nil {
			return nil, false, err
		}
		r.pg, r.buf = id.Page, buf
	}
	nslots, _ := readHeader(r.buf)
	if int(id.Slot) >= nslots {
		return nil, false, fmt.Errorf("heapfile: no slot %d on page %d", id.Slot, id.Page)
	}
	return record(r.buf, id.Page, int(id.Slot))
}

// Delete tombstones the record at id. Deleting an already-deleted
// record reports false. Deletes touch random pages, which is why the
// paper's Table 7 shows even the unclustered heap paying dearly for
// random deletions.
func (h *Heap) Delete(id RowID) (bool, error) {
	buf, err := h.pager.Read(id.Page)
	if err != nil {
		return false, err
	}
	nslots, _ := readHeader(buf)
	if int(id.Slot) >= nslots {
		return false, fmt.Errorf("heapfile: no slot %d on page %d", id.Slot, id.Page)
	}
	if _, live, err := record(buf, id.Page, int(id.Slot)); err != nil || !live {
		return false, err
	}
	off, _ := slotAt(buf, int(id.Slot))
	if err := h.pager.Update(id.Page, func(buf []byte) bool {
		setSlot(buf, int(id.Slot), off, tombstoneLen)
		return true
	}); err != nil {
		return false, err
	}
	h.count--
	return true, nil
}

// Scan visits all live records in physical order (one sequential pass).
// fn returning false stops early.
func (h *Heap) Scan(fn func(id RowID, rec []byte) bool) error { return h.View(nil, 1).Scan(fn) }

// Scan is Heap.Scan through the view.
func (v View) Scan(fn func(id RowID, rec []byte) bool) error {
	for pg := storage.PageID(0); pg < v.h.pager.NumPages(); pg++ {
		buf, err := v.pv.Read(pg)
		if err != nil {
			return err
		}
		nslots, _ := readHeader(buf)
		for s := 0; s < nslots; s++ {
			rec, live, err := record(buf, pg, s)
			if err != nil {
				return err
			}
			if live && !fn(RowID{Page: pg, Slot: uint16(s)}, rec) {
				return nil
			}
		}
	}
	return nil
}
