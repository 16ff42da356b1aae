package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Backend is the byte store underneath an FS. The FS keeps all I/O
// accounting (sim.Disk charges, per-reader View recorders) and
// delegates the bytes themselves here, so the same engine runs over an
// in-memory simulation (MemBackend, the default) or real files on a
// real disk (DiskBackend) without either layer knowing about the
// other.
//
// Semantics every implementation must provide:
//
//   - Create truncates an existing file to zero length.
//   - WriteAt past the current end extends the file; the gap reads as
//     zeroes (holes).
//   - ReadAt of a range not entirely inside the file is an error, not
//     a short read.
//   - Sync makes previously written bytes durable (a no-op for memory
//     backends). Rename and Remove are durable on return for backends
//     that persist anything at all.
type Backend interface {
	// Create creates or truncates the named file.
	Create(name string) error
	// Exists reports whether the named file exists.
	Exists(name string) bool
	// ReadAt fills p from offset off. The range must lie inside the
	// file.
	ReadAt(name string, p []byte, off int64) error
	// WriteAt writes p at offset off, extending the file if needed.
	WriteAt(name string, p []byte, off int64) error
	// Sync durably persists all written bytes of the named file.
	Sync(name string) error
	// Truncate sets the file's size, discarding bytes past it.
	Truncate(name string, size int64) error
	// Remove deletes the named file. Removing a missing file is an
	// error.
	Remove(name string) error
	// Rename moves a file to a new name, replacing any existing file.
	Rename(oldName, newName string) error
	// List returns the names of all files, sorted.
	List() []string
	// Size returns the file's size in bytes and whether it exists.
	Size(name string) (int64, bool)
	// Close releases backend resources (open handles). The backend
	// must not be used afterwards.
	Close() error
}

// MemBackend holds every file in memory. It is the default backend:
// nothing survives the process, which is exactly what the modeled-cost
// experiments want — every run starts cold and deterministic.
type MemBackend struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct {
	data []byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{files: make(map[string]*memFile)}
}

func (b *MemBackend) Create(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.files[name] = &memFile{}
	return nil
}

func (b *MemBackend) Exists(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.files[name]
	return ok
}

func (b *MemBackend) ReadAt(name string, p []byte, off int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	fd, ok := b.files[name]
	if !ok {
		return fmt.Errorf("storage: read %s: no such file", name)
	}
	if off < 0 || off+int64(len(p)) > int64(len(fd.data)) {
		return fmt.Errorf("storage: read %s: out of range [%d, %d) of %d",
			name, off, off+int64(len(p)), len(fd.data))
	}
	copy(p, fd.data[off:])
	return nil
}

func (b *MemBackend) WriteAt(name string, p []byte, off int64) error {
	if off < 0 {
		return fmt.Errorf("storage: write %s: negative offset", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	fd, ok := b.files[name]
	if !ok {
		return fmt.Errorf("storage: write %s: no such file", name)
	}
	end := off + int64(len(p))
	if end > int64(len(fd.data)) {
		if end > int64(cap(fd.data)) {
			// Grow capacity geometrically so sequential appends are
			// amortized O(1) instead of quadratic.
			newCap := 2 * int64(cap(fd.data))
			if newCap < end {
				newCap = end
			}
			grown := make([]byte, end, newCap)
			copy(grown, fd.data)
			fd.data = grown
		} else {
			fd.data = fd.data[:end]
		}
	}
	copy(fd.data[off:], p)
	return nil
}

func (b *MemBackend) Sync(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.files[name]; !ok {
		return fmt.Errorf("storage: sync %s: no such file", name)
	}
	return nil
}

func (b *MemBackend) Truncate(name string, size int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	fd, ok := b.files[name]
	if !ok {
		return fmt.Errorf("storage: truncate %s: no such file", name)
	}
	if size < 0 {
		return fmt.Errorf("storage: truncate %s: negative size", name)
	}
	if size <= int64(len(fd.data)) {
		fd.data = fd.data[:size]
		return nil
	}
	grown := make([]byte, size)
	copy(grown, fd.data)
	fd.data = grown
	return nil
}

func (b *MemBackend) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.files[name]; !ok {
		return fmt.Errorf("storage: remove %s: no such file", name)
	}
	delete(b.files, name)
	return nil
}

func (b *MemBackend) Rename(oldName, newName string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	fd, ok := b.files[oldName]
	if !ok {
		return fmt.Errorf("storage: rename %s: no such file", oldName)
	}
	delete(b.files, oldName)
	b.files[newName] = fd
	return nil
}

func (b *MemBackend) List() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.files))
	for n := range b.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (b *MemBackend) Size(name string) (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fd, ok := b.files[name]
	if !ok {
		return 0, false
	}
	return int64(len(fd.data)), true
}

func (b *MemBackend) Close() error { return nil }

// DiskBackend stores every file under one directory using os.File,
// with the fsync discipline a durable store needs: Sync fsyncs the
// file, and Create/Remove/Rename fsync the directory so the name
// change itself survives a crash.
//
// File names map directly to entries of the root directory; the engine
// only ever uses flat names ("tbl.main.0.heap"), so no sub-directories
// are created.
type DiskBackend struct {
	root string

	mu      sync.Mutex
	handles map[string]*os.File
}

// NewDiskBackend opens (creating if necessary) the directory root and
// returns a backend storing its files there.
func NewDiskBackend(root string) (*DiskBackend, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("storage: disk backend: %w", err)
	}
	return &DiskBackend{root: root, handles: make(map[string]*os.File)}, nil
}

func (b *DiskBackend) path(name string) string {
	return filepath.Join(b.root, name)
}

// handle returns the cached open handle for name, opening it lazily.
// Callers must hold b.mu.
func (b *DiskBackend) handleLocked(name string) (*os.File, error) {
	if h, ok := b.handles[name]; ok {
		return h, nil
	}
	h, err := os.OpenFile(b.path(name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	b.handles[name] = h
	return h, nil
}

// syncDir fsyncs the backing directory, making renames and unlinks
// durable.
func (b *DiskBackend) syncDir() error {
	d, err := os.Open(b.root)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (b *DiskBackend) Create(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if h, ok := b.handles[name]; ok {
		h.Close()
		delete(b.handles, name)
	}
	h, err := os.OpenFile(b.path(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	b.handles[name] = h
	return b.syncDir()
}

func (b *DiskBackend) Exists(name string) bool {
	_, err := os.Stat(b.path(name))
	return err == nil
}

func (b *DiskBackend) ReadAt(name string, p []byte, off int64) error {
	b.mu.Lock()
	h, err := b.handleLocked(name)
	b.mu.Unlock()
	if err != nil {
		return fmt.Errorf("storage: read %s: no such file", name)
	}
	if _, err := h.ReadAt(p, off); err != nil {
		if errors.Is(err, io.EOF) {
			size, _ := b.Size(name)
			return fmt.Errorf("storage: read %s: out of range [%d, %d) of %d",
				name, off, off+int64(len(p)), size)
		}
		return fmt.Errorf("storage: read %s: %w", name, err)
	}
	return nil
}

func (b *DiskBackend) WriteAt(name string, p []byte, off int64) error {
	if off < 0 {
		return fmt.Errorf("storage: write %s: negative offset", name)
	}
	b.mu.Lock()
	h, err := b.handleLocked(name)
	b.mu.Unlock()
	if err != nil {
		return fmt.Errorf("storage: write %s: no such file", name)
	}
	if _, err := h.WriteAt(p, off); err != nil {
		return fmt.Errorf("storage: write %s: %w", name, err)
	}
	return nil
}

func (b *DiskBackend) Sync(name string) error {
	b.mu.Lock()
	h, err := b.handleLocked(name)
	b.mu.Unlock()
	if err != nil {
		return fmt.Errorf("storage: sync %s: no such file", name)
	}
	if err := h.Sync(); err != nil {
		return fmt.Errorf("storage: sync %s: %w", name, err)
	}
	return nil
}

func (b *DiskBackend) Truncate(name string, size int64) error {
	b.mu.Lock()
	h, err := b.handleLocked(name)
	b.mu.Unlock()
	if err != nil {
		return fmt.Errorf("storage: truncate %s: no such file", name)
	}
	if err := h.Truncate(size); err != nil {
		return fmt.Errorf("storage: truncate %s: %w", name, err)
	}
	return nil
}

func (b *DiskBackend) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if h, ok := b.handles[name]; ok {
		h.Close()
		delete(b.handles, name)
	}
	if err := os.Remove(b.path(name)); err != nil {
		return fmt.Errorf("storage: remove %s: no such file", name)
	}
	return b.syncDir()
}

func (b *DiskBackend) Rename(oldName, newName string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Close both handles: the old name's handle keeps working after a
	// rename on POSIX but would be cached under a stale key, and the
	// destination's handle would silently keep pointing at the
	// replaced inode.
	for _, n := range []string{oldName, newName} {
		if h, ok := b.handles[n]; ok {
			h.Close()
			delete(b.handles, n)
		}
	}
	if err := os.Rename(b.path(oldName), b.path(newName)); err != nil {
		return fmt.Errorf("storage: rename %s: no such file", oldName)
	}
	return b.syncDir()
}

func (b *DiskBackend) List() []string {
	entries, err := os.ReadDir(b.root)
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

func (b *DiskBackend) Size(name string) (int64, bool) {
	st, err := os.Stat(b.path(name))
	if err != nil {
		return 0, false
	}
	return st.Size(), true
}

func (b *DiskBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var first error
	for name, h := range b.handles {
		if err := h.Close(); err != nil && first == nil {
			first = err
		}
		delete(b.handles, name)
	}
	return first
}
