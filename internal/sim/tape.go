package sim

import (
	"sync"
	"time"
)

// opKind distinguishes the operations a Tape can record.
type opKind uint8

const (
	opOpen opKind = iota
	opRead
	opWrite
)

type tapeOp struct {
	kind opKind
	file string
	off  int64
	n    int64
}

// Tape records disk operations without charging them, preserving their
// order. A query records each partition's I/O on its own tape and
// replays it as one batch when the partition finishes: the charged
// sequence — and therefore every seek/sequential classification and
// the modeled total — is the query's own, whatever other disk activity
// ran meanwhile.
//
// Tape is safe for concurrent use, though a tape normally has a single
// writer (the query that owns the partition).
type Tape struct {
	mu  sync.Mutex
	ops []tapeOp
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Open records a file-open (Costinit) charge.
func (t *Tape) Open(file string) {
	t.mu.Lock()
	t.ops = append(t.ops, tapeOp{kind: opOpen, file: file})
	t.mu.Unlock()
}

// Read records a read of n bytes at offset off.
func (t *Tape) Read(file string, off, n int64) {
	t.mu.Lock()
	t.ops = append(t.ops, tapeOp{kind: opRead, file: file, off: off, n: n})
	t.mu.Unlock()
}

// Write records a write of n bytes at offset off.
func (t *Tape) Write(file string, off, n int64) {
	t.mu.Lock()
	t.ops = append(t.ops, tapeOp{kind: opWrite, file: file, off: off, n: n})
	t.mu.Unlock()
}

// Len returns the number of recorded operations.
func (t *Tape) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ops)
}

// Replay charges every operation recorded on the tape, in order, as one
// atomic batch: no other disk activity can interleave with the tape, so
// head movement within the batch is exactly what the recorded sequence
// dictates. The tape is left empty. It returns the modeled time charged
// for this batch, letting callers attribute cost to exactly one query
// even when other disk activity runs concurrently.
func (d *Disk) Replay(t *Tape) time.Duration {
	t.mu.Lock()
	ops := t.ops
	t.ops = nil
	t.mu.Unlock()
	if len(ops) == 0 {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var cost time.Duration
	for _, op := range ops {
		switch op.kind {
		case opOpen:
			d.stats.FileOpens++
			d.stats.Elapsed += d.params.Init
			cost += d.params.Init
		case opRead:
			cost += d.accessLocked(op.file, op.off, op.n, false)
		case opWrite:
			cost += d.accessLocked(op.file, op.off, op.n, true)
		}
	}
	return cost
}
