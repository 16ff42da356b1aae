package fracture

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"upidb/internal/obs"
	"upidb/internal/storage"
	"upidb/internal/tuple"
)

// The write-ahead log makes the RAM insert buffer durable (the gap the
// paper's "write-buffered" design leaves open): every Insert and
// Delete appends one record and fsyncs before the call returns, so a
// crash loses nothing that was acknowledged. A flush persists the
// buffered changes as a fracture and then truncates the WAL — the
// fracture *is* the checkpoint — and Open replays whatever the WAL
// still holds to reconstruct the buffer and the pending delete set.
//
// Record layout (all integers big-endian):
//
//	[1 byte type][4 bytes payload len][payload][4 bytes CRC32-IEEE]
//
// The CRC covers type, length and payload. Replay stops at the first
// torn or corrupt record and truncates it away: a broken tail can only
// be an append that was never acknowledged, because acknowledged
// appends were fsynced whole.
//
// WAL replay is idempotent thanks to the store's upsert semantics:
// re-applying an insert supersedes the identical flushed version, and
// re-applying a delete re-deletes — so a crash *between* the
// checkpoint fracture landing and the WAL truncation recovers a
// harmless superset of operations, never a wrong state.
const (
	walRecInsert byte = 1 // payload: tuple.Encode
	walRecDelete byte = 2 // payload: 8-byte tuple ID
)

// walHeader is type+len before the payload; walFooter the CRC after.
const (
	walHeader = 5
	walFooter = 4
)

// wal is an open write-ahead log file. It is not internally locked:
// the Store serializes access under its write lock, which also keeps
// append order identical to buffer-mutation order.
type wal struct {
	f    *storage.File
	size int64 // bytes of valid, fsynced records
	met  *obs.EngineMetrics
}

func walName(store string) string { return store + ".wal" }

// createWAL creates an empty WAL (truncating any leftover).
func createWAL(fs *storage.FS, store string, met *obs.EngineMetrics) (*wal, error) {
	if met == nil {
		met = &obs.EngineMetrics{}
	}
	name := walName(store)
	fs.Sideband(name)
	f := fs.Create(name)
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("fracture: create wal: %w", err)
	}
	return &wal{f: f, met: met}, nil
}

// openWAL opens an existing WAL and replays its records through apply,
// self-healing a torn tail. Records are applied in append order.
func openWAL(fs *storage.FS, store string, met *obs.EngineMetrics, apply func(recType byte, payload []byte) error) (*wal, error) {
	if met == nil {
		met = &obs.EngineMetrics{}
	}
	name := walName(store)
	fs.Sideband(name)
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	w := &wal{f: f, met: met}
	size := f.Size()
	data := make([]byte, size)
	if size > 0 {
		if err := f.ReadAt(data, 0); err != nil {
			return nil, fmt.Errorf("fracture: read wal: %w", err)
		}
	}
	off := 0
	for {
		rec, payload, ok := nextWALRecord(data[off:])
		if !ok {
			break
		}
		recType := data[off]
		if err := apply(recType, payload); err != nil {
			return nil, fmt.Errorf("fracture: replay wal: %w", err)
		}
		off += rec
	}
	if int64(off) != size {
		// Torn tail from a crash mid-append: the operation was never
		// acknowledged, so dropping it is correct.
		if err := f.Truncate(int64(off)); err != nil {
			return nil, fmt.Errorf("fracture: heal wal: %w", err)
		}
	}
	w.size = int64(off)
	return w, nil
}

// nextWALRecord parses one record at the head of data, returning its
// total length and payload. ok is false for a torn or corrupt record.
func nextWALRecord(data []byte) (recLen int, payload []byte, ok bool) {
	if len(data) < walHeader+walFooter {
		return 0, nil, false
	}
	plen := int(binary.BigEndian.Uint32(data[1:walHeader]))
	total := walHeader + plen + walFooter
	if plen < 0 || len(data) < total {
		return 0, nil, false
	}
	crc := binary.BigEndian.Uint32(data[walHeader+plen:])
	if crc32.ChecksumIEEE(data[:walHeader+plen]) != crc {
		return 0, nil, false
	}
	if t := data[0]; t != walRecInsert && t != walRecDelete {
		return 0, nil, false
	}
	return total, data[walHeader : walHeader+plen], true
}

// appendWALRecord appends one record, framed as nextWALRecord reads it,
// to dst.
func appendWALRecord(dst []byte, recType byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, recType)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// append writes one record and fsyncs it; only then is the operation
// acknowledged. On any error the WAL is healed back to its previous
// length, so the file never retains a record whose append failed.
func (w *wal) append(recType byte, payload []byte) error {
	rec := appendWALRecord(make([]byte, 0, walHeader+len(payload)+walFooter), recType, payload)
	if err := w.f.WriteAt(rec, w.size); err != nil {
		w.heal()
		return fmt.Errorf("fracture: wal append: %w", err)
	}
	fsyncStart := time.Now()
	if err := w.f.Sync(); err != nil {
		w.heal()
		return fmt.Errorf("fracture: wal sync: %w", err)
	}
	w.met.WALFsyncSeconds.Observe(time.Since(fsyncStart).Seconds())
	w.met.WALAppends.Inc()
	w.size += int64(len(rec))
	return nil
}

// heal truncates the file back to the last acknowledged record after a
// failed append. Best-effort: if the truncate itself fails, replay's
// CRC check still discards the partial record.
func (w *wal) heal() {
	_ = w.f.Truncate(w.size)
}

// reset empties the WAL after a checkpoint (flush) made its records
// redundant.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("fracture: wal truncate: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("fracture: wal truncate sync: %w", err)
	}
	w.size = 0
	return nil
}

// appendInsert logs an upsert of tup.
func (w *wal) appendInsert(tup *tuple.Tuple) error {
	return w.append(walRecInsert, tuple.Encode(tup))
}

// appendDelete logs a delete of id.
func (w *wal) appendDelete(id uint64) error {
	return w.append(walRecDelete, binary.BigEndian.AppendUint64(nil, id))
}
