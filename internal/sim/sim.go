// Package sim provides a deterministic simulated disk used by every
// storage component in this repository.
//
// The UPI paper's evaluation ran on a 10k RPM hard drive with a cold
// buffer cache; all of its reported effects (primary vs. secondary
// index, cutoff-pointer saturation, fragmentation) are seek-versus-
// sequential-I/O effects. Modern test machines have no such disk, so
// instead of wall-clock time this package charges every file access
// with the paper's own cost constants (Table 6):
//
//	Tseek  = 10 ms    per random seek
//	Tread  = 20 ms/MB sequential read
//	Twrite = 50 ms/MB sequential write
//	Costinit = 100 ms per database file open
//
// A read or write is sequential when it starts exactly where the
// previous operation on the same file ended; anything else moves the
// disk head and pays Tseek. The accumulated modeled time is what the
// benchmark harness reports as "query runtime".
package sim

import (
	"fmt"
	"sync"
	"time"
)

// Params holds the disk cost constants (paper Table 6).
type Params struct {
	// Seek is the cost of one random disk seek (Tseek).
	Seek time.Duration
	// ReadPerMB is the cost of sequentially reading one mebibyte (Tread).
	ReadPerMB time.Duration
	// WritePerMB is the cost of sequentially writing one mebibyte (Twrite).
	WritePerMB time.Duration
	// Init is the cost of opening a database file (Costinit).
	Init time.Duration
}

// DefaultParams returns the constants used throughout the paper's
// experimental section (Table 6).
func DefaultParams() Params {
	return Params{
		Seek:       10 * time.Millisecond,
		ReadPerMB:  20 * time.Millisecond,
		WritePerMB: 50 * time.Millisecond,
		Init:       100 * time.Millisecond,
	}
}

// Stats is a snapshot of accumulated disk activity.
type Stats struct {
	Seeks        int64
	SequentialIO int64 // operations that continued from the head position
	BytesRead    int64
	BytesWritten int64
	FileOpens    int64
	Elapsed      time.Duration // modeled elapsed disk time
}

// Sub returns the difference s - o, field by field. It is used to
// measure the cost of a single query between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Seeks:        s.Seeks - o.Seeks,
		SequentialIO: s.SequentialIO - o.SequentialIO,
		BytesRead:    s.BytesRead - o.BytesRead,
		BytesWritten: s.BytesWritten - o.BytesWritten,
		FileOpens:    s.FileOpens - o.FileOpens,
		Elapsed:      s.Elapsed - o.Elapsed,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("seeks=%d seq=%d read=%dB written=%dB opens=%d elapsed=%v",
		s.Seeks, s.SequentialIO, s.BytesRead, s.BytesWritten, s.FileOpens, s.Elapsed)
}

const bytesPerMB = 1 << 20

// Disk models a single spinning disk shared by all files of one
// database. It tracks the head position (file, offset) and charges
// modeled time for every operation. Disk is safe for concurrent use.
type Disk struct {
	params Params

	mu       sync.Mutex
	headFile string
	headOff  int64
	headSet  bool
	stats    Stats
}

// NewDisk returns a disk with the given cost parameters.
func NewDisk(p Params) *Disk {
	return &Disk{params: p}
}

// Params returns the disk's cost constants.
func (d *Disk) Params() Params { return d.params }

// Open charges the file-open cost (Costinit). The storage layer calls
// it once per database file handle.
func (d *Disk) Open(file string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.FileOpens++
	d.stats.Elapsed += d.params.Init
}

// Read charges a read of n bytes at offset off in file. It returns the
// modeled cost of this single operation.
func (d *Disk) Read(file string, off, n int64) time.Duration {
	return d.access(file, off, n, false)
}

// Write charges a write of n bytes at offset off in file. It returns
// the modeled cost of this single operation.
func (d *Disk) Write(file string, off, n int64) time.Duration {
	return d.access(file, off, n, true)
}

func (d *Disk) access(file string, off, n int64, write bool) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.accessLocked(file, off, n, write)
}

func (d *Disk) accessLocked(file string, off, n int64, write bool) time.Duration {
	if n < 0 {
		panic("sim: negative I/O size")
	}
	var cost time.Duration
	if !d.headSet || d.headFile != file || d.headOff != off {
		cost += d.params.Seek
		d.stats.Seeks++
	} else {
		d.stats.SequentialIO++
	}
	perMB := d.params.ReadPerMB
	if write {
		perMB = d.params.WritePerMB
		d.stats.BytesWritten += n
	} else {
		d.stats.BytesRead += n
	}
	cost += time.Duration(float64(perMB) * float64(n) / bytesPerMB)

	d.headFile = file
	d.headOff = off + n
	d.headSet = true
	d.stats.Elapsed += cost
	return cost
}

// Stats returns a snapshot of the accumulated counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Elapsed returns the total modeled disk time accumulated so far.
func (d *Disk) Elapsed() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats.Elapsed
}

// Span measures modeled disk activity between its creation and End.
type Span struct {
	d     *Disk
	start Stats
}

// StartSpan begins a measurement window on the disk.
func StartSpan(d *Disk) *Span {
	return &Span{d: d, start: d.Stats()}
}

// End returns the activity accumulated since the span started.
func (s *Span) End() Stats {
	return s.d.Stats().Sub(s.start)
}
