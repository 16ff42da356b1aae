package fracture

import (
	"encoding/binary"
	"fmt"

	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// Open loads an existing fractured UPI from its files. The manifest is
// the authoritative partition catalog: partition files it does not name
// are debris of a crashed flush or merge and are swept away. Every
// partition it names is opened with the cutoff and pointer cap it was
// built with; opts.UPI's values apply to future flushes and to the next
// merge, which rebuilds the main UPI with them (the retuning of Section
// 4.2). Only a manifest older than that recording opens its partitions
// with opts.UPI.
//
// A durable store's write-ahead log is replayed to reconstruct the RAM
// insert buffer and pending delete set: every acknowledged write
// survives. A non-durable store has no log, so its unflushed changes
// are lost by design. Opening a durable store with opts.Durable unset
// downgrades it: the WAL is replayed one last time, then removed so it
// cannot go stale beside future unlogged writes; the manifest stays.
func Open(fs *storage.FS, name, attr string, secAttrs []string, opts Config) (*Store, error) {
	opts.UPI = opts.UPI.WithDefaults()
	s := newShell(fs, name, attr, secAttrs, opts)

	cat, err := readManifest(fs, name, opts.UPI)
	if err != nil {
		return nil, err
	}
	removeOrphans(fs, name, cat)
	for i, g := range append([]int{cat.main}, cat.fracs...) {
		name := s.mainName(g)
		if i > 0 {
			name = s.fracName(g)
		}
		tab, err := upi.Open(fs, name, attr, secAttrs, cat.built[g])
		if err != nil {
			return nil, err
		}
		p := &part{gen: g, table: tab, ref: newPartRef(fs)}
		if i > 0 {
			if p.deleted, err = s.readDelSet(g); err != nil {
				return nil, err
			}
		}
		s.parts = append(s.parts, p)
		s.gen = max(s.gen, g)
	}
	if err := s.recoverWAL(); err != nil {
		return nil, err
	}
	return s, nil
}

// recoverWAL replays an existing WAL into the freshly opened store and
// arranges the durability mode the caller asked for: a durable store
// keeps (or gains) a live WAL, a non-durable one sheds it.
func (s *Store) recoverWAL() error {
	if s.fs.Exists(walName(s.name)) {
		w, err := openWAL(s.fs, s.name, s.opts.Metrics, func(recType byte, payload []byte) error {
			switch recType {
			case walRecInsert:
				tup, err := tuple.Decode(payload)
				if err != nil {
					return err
				}
				s.applyInsertLocked(tup)
			case walRecDelete:
				if len(payload) != 8 {
					return fmt.Errorf("delete record has %d payload bytes", len(payload))
				}
				s.applyDeleteLocked(binary.BigEndian.Uint64(payload))
			}
			return nil
		})
		if err != nil {
			return err
		}
		if s.opts.Durable {
			s.wal = w
			return nil
		}
		// Downgrade: recovered operations now live only in RAM,
		// matching non-durable semantics; a stale WAL must not linger.
		return s.fs.Remove(walName(s.name))
	}
	if !s.opts.Durable {
		return nil
	}
	w, err := createWAL(s.fs, s.name, s.opts.Metrics)
	if err != nil {
		return err
	}
	s.wal = w
	return nil
}

// readDelSet loads one delete-set file written by writeDelSet.
func (s *Store) readDelSet(gen int) (map[uint64]bool, error) {
	file := s.delSetFile(gen)
	if !s.fs.Exists(file) {
		return map[uint64]bool{}, nil
	}
	f, err := s.fs.Open(file)
	if err != nil {
		return nil, err
	}
	head := make([]byte, 8)
	if err := f.ReadAt(head, 0); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint64(head)
	if int64(8+8*n) > f.Size() {
		return nil, fmt.Errorf("fracture: corrupt delete set %s: %d entries in %d bytes", file, n, f.Size())
	}
	body := make([]byte, 8*n)
	if err := f.ReadAt(body, 8); err != nil {
		return nil, err
	}
	out := make(map[uint64]bool, n)
	for i := uint64(0); i < n; i++ {
		out[binary.BigEndian.Uint64(body[8*i:])] = true
	}
	return out, nil
}
