package storage

import (
	"bytes"
	"errors"
	"testing"

	"upidb/internal/sim"
)

// backendContract runs the semantics every Backend must share.
func backendContract(t *testing.T, b Backend) {
	t.Helper()
	if err := b.Create("a"); err != nil {
		t.Fatal(err)
	}
	if !b.Exists("a") || b.Exists("nope") {
		t.Fatal("Exists wrong")
	}
	if err := b.WriteAt("a", []byte("hello world"), 0); err != nil {
		t.Fatal(err)
	}
	// Write past EOF creates a hole reading as zeroes.
	if err := b.WriteAt("a", []byte("!!"), 20); err != nil {
		t.Fatal(err)
	}
	if size, ok := b.Size("a"); !ok || size != 22 {
		t.Fatalf("size = %d, %v", size, ok)
	}
	hole := make([]byte, 9)
	if err := b.ReadAt("a", hole, 11); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hole, make([]byte, 9)) {
		t.Fatalf("hole not zero: %v", hole)
	}
	// Out-of-range read is an error, not a short read.
	if err := b.ReadAt("a", make([]byte, 5), 20); err == nil {
		t.Fatal("read past EOF should fail")
	}
	if err := b.Sync("a"); err != nil {
		t.Fatal(err)
	}
	// Truncate both ways.
	if err := b.Truncate("a", 5); err != nil {
		t.Fatal(err)
	}
	if size, _ := b.Size("a"); size != 5 {
		t.Fatalf("after shrink size = %d", size)
	}
	if err := b.Truncate("a", 8); err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, 3)
	if err := b.ReadAt("a", tail, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, make([]byte, 3)) {
		t.Fatalf("grown tail not zero: %v", tail)
	}
	// Create truncates.
	if err := b.Create("a"); err != nil {
		t.Fatal(err)
	}
	if size, _ := b.Size("a"); size != 0 {
		t.Fatalf("create did not truncate: %d", size)
	}
	// Rename replaces; Remove deletes.
	b.Create("b")
	b.WriteAt("b", []byte("x"), 0)
	if err := b.Rename("b", "a"); err != nil {
		t.Fatal(err)
	}
	if b.Exists("b") {
		t.Fatal("rename left source")
	}
	got := make([]byte, 1)
	if err := b.ReadAt("a", got, 0); err != nil || got[0] != 'x' {
		t.Fatalf("content lost: %v %q", err, got)
	}
	if err := b.Rename("zzz", "y"); err == nil {
		t.Fatal("rename of missing file should fail")
	}
	if err := b.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("a"); err == nil {
		t.Fatal("double remove should fail")
	}
	if names := b.List(); len(names) != 0 {
		t.Fatalf("list = %v", names)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemBackendContract(t *testing.T) {
	backendContract(t, NewMemBackend())
}

func TestDiskBackendContract(t *testing.T) {
	b, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backendContract(t, b)
}

func TestDiskBackendPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	b, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	b.Create("t")
	b.WriteAt("t", []byte("durable"), 0)
	b.Sync("t")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	got := make([]byte, 7)
	if err := b2.ReadAt("t", got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable" {
		t.Fatalf("read back %q", got)
	}
	if names := b2.List(); len(names) != 1 || names[0] != "t" {
		t.Fatalf("list = %v", names)
	}
}

func TestFSOverDiskBackend(t *testing.T) {
	b, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	disk := sim.NewDisk(sim.DefaultParams())
	fs := NewFSOn(disk, b)
	f := fs.Create("t")
	if err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Modeled charges accrue identically over a disk backend.
	if got := disk.Stats().BytesWritten; got != 5 {
		t.Fatalf("written = %d", got)
	}
	p, err := NewPager(fs.Create("pages"), 64)
	if err != nil {
		t.Fatal(err)
	}
	id := allocPage(t, p, 9)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(id)
	if err != nil || got[0] != 9 {
		t.Fatalf("pager over disk: %v %v", err, got)
	}
}

func TestSidebandUnchargedAndUnrouted(t *testing.T) {
	disk := sim.NewDisk(sim.DefaultParams())
	fs := NewFS(disk)
	fs.Sideband("wal")
	w := fs.Create("wal")
	q := fs.Create("data")

	before := disk.Stats()
	if err := w.WriteAt(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.ReadAt(make([]byte, 50), 0); err != nil {
		t.Fatal(err)
	}
	if d := disk.Stats().Sub(before); d.BytesWritten != 0 || d.BytesRead != 0 {
		t.Fatalf("sideband charged disk: %+v", d)
	}

	// A reader's recorder captures the regular file only.
	tape := sim.NewTape()
	w.writeAt(tape, make([]byte, 10), 0)
	q.writeAt(tape, make([]byte, 10), 0)
	w.readAt(tape, make([]byte, 10), 0)
	if got := tape.Len(); got != 1 {
		t.Fatalf("tape captured %d ops, want 1 (the data write only)", got)
	}

	// The class is fixed when the handle is made: marking a name later
	// leaves an open handle charged and uncharges the next one.
	fs.Sideband("data")
	before = disk.Stats()
	q.WriteAt(make([]byte, 10), 0)
	fs.Create("data").WriteAt(make([]byte, 10), 0)
	if d := disk.Stats().Sub(before); d.BytesWritten != 10 {
		t.Fatalf("wrote %d charged bytes, want 10 (the handle made before the mark)", d.BytesWritten)
	}

	// The mark follows a rename and dies with Remove.
	if err := fs.Rename("wal", "wal2"); err != nil {
		t.Fatal(err)
	}
	if !fs.IsSideband("wal2") || fs.IsSideband("wal") {
		t.Fatal("sideband mark did not follow rename")
	}
	if err := fs.Remove("wal2"); err != nil {
		t.Fatal(err)
	}
	if fs.IsSideband("wal2") {
		t.Fatal("sideband mark survived remove")
	}
}

func TestFaultBackendWriteCountdownAndPartial(t *testing.T) {
	fb := NewFaultBackend(NewMemBackend())
	fb.Create("t")
	fb.Arm(Fault{Op: OpWrite, Name: "t", CountDown: 1, PartialBytes: 3})

	if err := fb.WriteAt("t", []byte("first"), 0); err != nil {
		t.Fatalf("countdown write should pass: %v", err)
	}
	err := fb.WriteAt("t", []byte("second"), 5)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if !fb.Triggered() {
		t.Fatal("not triggered")
	}
	// Torn write: 3 bytes of the failing payload landed.
	if size, _ := fb.Size("t"); size != 8 {
		t.Fatalf("size after torn write = %d, want 8", size)
	}
	// Fault is one-shot.
	if err := fb.WriteAt("t", []byte("third"), 8); err != nil {
		t.Fatalf("fault should be disarmed: %v", err)
	}
}

func TestFaultBackendOtherOps(t *testing.T) {
	fb := NewFaultBackend(NewMemBackend())
	fb.Create("a")

	fb.Arm(Fault{Op: OpSync, Name: "a"})
	if err := fb.Sync("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync: %v", err)
	}
	fb.Arm(Fault{Op: OpRename, Name: "a"})
	if err := fb.Rename("a", "b"); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename: %v", err)
	}
	fb.Arm(Fault{Op: OpCreate, Name: "x"})
	if err := fb.Create("other"); err != nil {
		t.Fatalf("non-matching name must pass: %v", err)
	}
	if err := fb.Create("x.tmp"); !errors.Is(err, ErrInjected) {
		t.Fatalf("create: %v", err)
	}
	fb.Disarm()
	if err := fb.Truncate("a", 0); err != nil {
		t.Fatalf("disarmed: %v", err)
	}
}

func TestCreateFailureSurfacesOnUse(t *testing.T) {
	fb := NewFaultBackend(NewMemBackend())
	disk := sim.NewDisk(sim.DefaultParams())
	fs := NewFSOn(disk, fb)
	fb.Arm(Fault{Op: OpCreate})
	f := fs.Create("doomed")
	if err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("deferred create error not surfaced: %v", err)
	}
	if err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("deferred create error not surfaced on read: %v", err)
	}
}
