// Package upitest holds what tests of several packages need to damage
// a UPI on storage: the facade, the fracture store and the server all
// assert that a corrupt tuple body fails a query the same way.
package upitest

import (
	"encoding/binary"
	"fmt"
	"strings"

	"upidb/internal/storage"
	"upidb/internal/upi"
)

// Corruption describes one damaged heap entry.
type Corruption struct {
	File  string // the heap file
	Value string // primary-attribute value the entry is clustered under
	ID    uint64 // the entry's tuple ID
	// Body is the damaged tuple body, as a scan now reads it.
	Body []byte
	// Restore writes the original page back.
	Restore func() error
}

// CorruptHeapBody overwrites, on the backend, a length field inside the
// tuple body of the first entry of the first non-empty leaf of the named
// UPI heap file: the deterministic-field count becomes 0xFFFF, so the
// B+Tree still reads the page and only the tuple codec can object.
// pageSize is the tree's page size (0 = storage.DefaultPageSize). The
// caller drops the table's caches afterwards so the pagers re-read the
// page.
func CorruptHeapBody(b storage.Backend, file string, pageSize int) (Corruption, error) {
	return CorruptHeapBodyAt(b, file, pageSize, 0)
}

// CorruptHeapBodyAt is CorruptHeapBody for entry i (from 0) of the
// first leaf that holds more than i entries: with i > 0 the damaged
// body has valid neighbours on both sides of it on its page.
func CorruptHeapBodyAt(b storage.Backend, file string, pageSize, i int) (Corruption, error) {
	if pageSize == 0 {
		pageSize = storage.DefaultPageSize
	}
	size, ok := b.Size(file)
	if !ok {
		return Corruption{}, fmt.Errorf("upitest: no file %q", file)
	}
	page := make([]byte, pageSize)
	for off := int64(pageSize); off+int64(pageSize) <= size; off += int64(pageSize) { // page 0 is the meta page
		if err := b.ReadAt(file, page, off); err != nil {
			return Corruption{}, err
		}
		if page[0] != 1 || int(binary.BigEndian.Uint16(page[1:])) <= i { // not a leaf, or too short a one
			continue
		}
		entry := 1 + 2 + 4 // leaf header: type, key count, next leaf
		lens := func() (klen, vlen int) {
			return int(binary.BigEndian.Uint16(page[entry:])), int(binary.BigEndian.Uint16(page[entry+2:]))
		}
		for n := 0; n < i; n++ {
			klen, vlen := lens()
			entry += 4 + klen + vlen
		}
		klen, vlen := lens()
		key := page[entry+4 : entry+4+klen]
		body := page[entry+4+klen : entry+4+klen+vlen]
		value, _, id, err := upi.DecodeHeapKey(key)
		if err != nil {
			return Corruption{}, err
		}
		orig := append([]byte(nil), page...)
		const nDet = 8 + 8 // tuple body: ID, existence, then the field count
		binary.BigEndian.PutUint16(body[nDet:], 0xFFFF)
		if err := b.WriteAt(file, page, off); err != nil {
			return Corruption{}, err
		}
		return Corruption{
			File:    file,
			Value:   value,
			ID:      id,
			Body:    append([]byte(nil), body...),
			Restore: func() error { return b.WriteAt(file, orig, off) },
		}, nil
	}
	return Corruption{}, fmt.Errorf("upitest: %q has no leaf of more than %d entries", file, i)
}

// FractureHeapFile returns the heap file of the newest flushed fracture
// among files (a backend's or an FS's List), or "" when there is none.
func FractureHeapFile(files []string) string {
	best := ""
	for _, name := range files {
		if strings.Contains(name, ".frac") && strings.HasSuffix(name, upi.HeapFileName("")) {
			best = name
		}
	}
	return best
}
