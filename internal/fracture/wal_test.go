package fracture

import (
	"bytes"
	"encoding/binary"
	"testing"

	"upidb/internal/tuple"
)

// FuzzWALRecord throws arbitrary bytes at the WAL record parser replay
// runs over whatever a crash left in the file. It must never panic, an
// accepted record must lie inside the bytes and re-frame to exactly
// them, and a record framed as wal.append frames it must parse back to
// its type and payload, whatever bytes follow it.
func FuzzWALRecord(f *testing.F) {
	insert := appendWALRecord(nil, walRecInsert, tuple.Encode(&tuple.Tuple{ID: 7, Existence: 1, Payload: []byte("p")}))
	del := appendWALRecord(nil, walRecDelete, binary.BigEndian.AppendUint64(nil, 7))
	f.Add(insert)
	f.Add(append(bytes.Clone(del), insert...))
	f.Add(insert[:len(insert)-1]) // torn tail
	badCRC := bytes.Clone(del)
	badCRC[len(badCRC)-1] ^= 1
	f.Add(badCRC)
	badType := appendWALRecord(nil, 9, nil)
	f.Add(badType)
	f.Add([]byte{walRecInsert, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // length past the end
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recLen, payload, ok := nextWALRecord(data)
		if !ok {
			if recLen != 0 || payload != nil {
				t.Fatalf("refused record reports length %d, payload %x", recLen, payload)
			}
		} else {
			if recLen < walHeader+walFooter || recLen > len(data) {
				t.Fatalf("record length %d outside [%d, %d]", recLen, walHeader+walFooter, len(data))
			}
			if again := appendWALRecord(nil, data[0], payload); !bytes.Equal(again, data[:recLen]) {
				t.Fatalf("accepted record %x re-frames as %x", data[:recLen], again)
			}
		}
		for _, recType := range []byte{walRecInsert, walRecDelete} {
			rec := appendWALRecord(nil, recType, data)
			n, p, ok := nextWALRecord(append(bytes.Clone(rec), data...))
			if !ok || n != len(rec) || !bytes.Equal(p, data) {
				t.Fatalf("type %d record of %d payload bytes: parsed %v, length %d of %d, payload %x", recType, len(data), ok, n, len(rec), p)
			}
		}
	})
}
