package fracture

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// Open loads an existing fractured UPI from its files. A durable store
// (one with a manifest) is opened from its manifest — the authoritative
// partition catalog — with debris of any crashed flush or merge swept
// away, and its write-ahead log replayed to reconstruct the RAM insert
// buffer and pending delete set: every acknowledged write survives.
//
// A store without a manifest is opened the legacy way, by scanning
// file names for the newest main generation and every fracture in
// flush order; its RAM buffer is empty after opening (unflushed
// changes of a non-durable store are lost by design).
//
// Opening a durable store with opts.Durable unset downgrades it: the
// WAL is replayed one last time, then the WAL and manifest are removed
// so they cannot go stale beside future unlogged writes.
//
// Every partition the manifest describes is opened with the cutoff and
// pointer cap it was built with; opts.UPI's values apply to future
// flushes and to the next merge, which rebuilds the main UPI with them
// (the retuning of Section 4.2). Nothing but the manifest records them:
// a non-durable store, or a manifest older than the recording, opens
// every partition with opts.UPI, so the caller must pass the values
// they were built with or queries below the true cutoff miss rows.
func Open(fs *storage.FS, name, attr string, secAttrs []string, opts Config) (*Store, error) {
	opts.UPI = opts.UPI.WithDefaults()
	s := newShell(fs, name, attr, secAttrs, opts)

	mainGen, fracGens, built, err := readManifest(fs, name, opts.UPI)
	if err != nil {
		return nil, err
	}
	fromManifest := built != nil
	optsOf := func(gen int) upi.Options { // caller's, unless the manifest knows better
		if o, ok := built[gen]; ok {
			return o
		}
		return opts.UPI
	}
	if fromManifest {
		// Partition files the manifest does not name are debris of a
		// crashed flush or merge; the WAL (replayed below) holds
		// anything acknowledged that they contained.
		removeOrphans(fs, name, mainGen, fracGens)
	} else {
		if mainGen, fracGens, err = scanPartitions(fs, name); err != nil {
			return nil, err
		}
	}
	main, err := upi.Open(fs, s.mainName(mainGen), attr, secAttrs, optsOf(mainGen))
	if err != nil {
		return nil, err
	}
	s.main = main
	s.mainGen = mainGen
	s.gen = mainGen
	for _, g := range fracGens {
		tab, err := upi.Open(fs, s.fracName(g), attr, secAttrs, optsOf(g))
		if err != nil {
			return nil, err
		}
		deleted, err := s.readDelSet(g)
		if err != nil {
			return nil, err
		}
		s.fractures = append(s.fractures, &fract{gen: g, table: tab, deleted: deleted, ref: newPartRef(fs)})
		s.gen = max(s.gen, g)
	}
	if err := s.recoverWAL(fromManifest); err != nil {
		return nil, err
	}
	return s, nil
}

// recoverWAL replays an existing WAL into the freshly opened store and
// arranges the durability mode the caller asked for: durable stores
// keep (or gain) a live WAL and manifest, non-durable ones shed both.
func (s *Store) recoverWAL(hadManifest bool) error {
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
		}
	} else if s.opts.Durable {
		w, err := createWAL(s.fs, s.name, s.opts.Metrics)
		if err != nil {
			return err
		}
		s.wal = w
	}
	if s.opts.Durable {
		if !hadManifest {
			// Upgrade: give a legacy store its manifest so the next
			// open trusts the catalog, not the file scan.
			return writeManifest(s.fs, s.name, s.mainGen, s.main, s.fractures)
		}
		return nil
	}
	// Downgrade: recovered operations now live only in RAM, matching
	// non-durable semantics; stale durability files must not linger.
	for _, f := range []string{walName(s.name), manifestName(s.name)} {
		if s.fs.Exists(f) {
			if err := s.fs.Remove(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanPartitions finds the newest main generation and the fracture
// generations (sorted ascending = flush order) from the file listing.
func scanPartitions(fs *storage.FS, name string) (mainGen int, fracGens []int, err error) {
	mainGen = -1
	for _, f := range fs.List() {
		rest, ok := strings.CutPrefix(f, name+".")
		if !ok {
			continue
		}
		switch {
		case strings.HasPrefix(rest, "main") && strings.HasSuffix(rest, ".upi.heap"):
			n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(rest, "main"), ".upi.heap"))
			if err == nil && n > mainGen {
				mainGen = n
			}
		case strings.HasPrefix(rest, "frac") && strings.HasSuffix(rest, ".upi.heap"):
			n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(rest, "frac"), ".upi.heap"))
			if err == nil {
				fracGens = append(fracGens, n)
			}
		}
	}
	if mainGen < 0 {
		return 0, nil, fmt.Errorf("fracture: no main partition found for %q", name)
	}
	sort.Ints(fracGens)
	return mainGen, fracGens, nil
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
