// Package durable gives the fleet service crash-safe persistence: a
// length-prefixed CRC-32-framed write-ahead log of committed sessions
// plus periodic atomic snapshots of the aggregated shard state, behind
// an injectable filesystem so the recovery paths — torn final frame,
// short write, fsync error, disk full — are driven deterministically
// by tests instead of waiting for real disks to fail.
//
// The contract is ack-durability: an Append that returns a nil error
// has fsynced the frame, so a record acknowledged to its sender
// survives any subsequent crash. Recovery loads the newest valid
// snapshot and replays the WAL tail above it, truncating the log at
// the first torn or corrupt frame — everything acked is replayed,
// everything after the tear was never acked and the sender re-delivers
// it over the gateway's retry path. A persistent write failure flips
// the store into a sticky degraded read-only mode (ErrStorageDegraded)
// instead of crashing the process.
package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the subset of *os.File the store needs. Writes are
// append-only; Sync makes everything written so far crash-durable.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
}

// FS abstracts the filesystem under the store. OSFS is the production
// implementation; MemFS is the in-memory fault-injection double used
// by the recovery tests.
type FS interface {
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// ReadDir lists the base names in dir, sorted.
	ReadDir(dir string) ([]string, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	// Truncate cuts name to size bytes — the torn-frame repair.
	Truncate(name string, size int64) error
	// SyncDir makes directory-level operations (create, rename, remove)
	// in dir crash-durable.
	SyncDir(dir string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) Create(name string) (File, error) { return os.Create(name) }

func (OSFS) Open(name string) (File, error) { return os.Open(name) }

func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFileAtomic replaces name with data so that a crash at any point
// leaves either the previous content or the new one: data goes to
// name+".tmp", is fsynced and closed, renamed over name, and the parent
// directory is fsynced so the rename itself survives power loss. A
// failure up to the rename removes the tmp file and leaves name with
// its old bytes; a failed directory fsync comes after the rename, so
// name holds data but the rename is not known to be durable.
func WriteFileAtomic(fs FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, name)
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(filepath.Dir(name))
}

// ShortWrite, returned from a MemFS fault hook, makes the faulted
// write persist only N bytes before failing with Err — a torn write.
type ShortWrite struct {
	N   int
	Err error
}

func (e *ShortWrite) Error() string { return fmt.Sprintf("short write (%d bytes): %v", e.N, e.Err) }

func (e *ShortWrite) Unwrap() error { return e.Err }

// MemFS is an in-memory FS with fault injection and crash simulation.
// Files remember how much of their content has been fsynced, so Crash
// can revert each file to its durable prefix plus a seeded partial
// tail — the state a real disk may expose after power loss.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile

	// Fault, when non-nil, is consulted before every mutating
	// operation with the operation name ("write", "sync", "create",
	// "rename", "remove", "truncate", "syncdir") and the file name.
	// Returning a non-nil error fails the operation; a *ShortWrite
	// error on "write" persists a prefix first.
	Fault func(op, name string) error
}

type memFile struct {
	data   []byte
	synced int // bytes guaranteed to survive Crash
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*memFile)} }

func (m *MemFS) fault(op, name string) error {
	if m.Fault != nil {
		return m.Fault(op, name)
	}
	return nil
}

func (m *MemFS) MkdirAll(dir string) error { return nil }

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fault("create", name); err != nil {
		return nil, err
	}
	m.files[name] = &memFile{}
	return &memHandle{fs: m, name: name}, nil
}

func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &memHandle{fs: m, name: name}, nil
}

func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fault("create", name); err != nil {
		return nil, err
	}
	if m.files[name] == nil {
		m.files[name] = &memFile{}
	}
	return &memHandle{fs: m, name: name}, nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := dir + string(filepath.Separator)
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == dir || (dir == "." && filepath.Dir(name) == ".") {
			names = append(names, filepath.Base(name))
		} else if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			names = append(names, name[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fault("rename", oldname); err != nil {
		return err
	}
	f := m.files[oldname]
	if f == nil {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fault("remove", name); err != nil {
		return err
	}
	if m.files[name] == nil {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fault("truncate", name); err != nil {
		return err
	}
	f := m.files[name]
	if f == nil {
		return &os.PathError{Op: "truncate", Path: name, Err: os.ErrNotExist}
	}
	if int(size) < len(f.data) {
		f.data = f.data[:size]
	}
	if f.synced > len(f.data) {
		f.synced = len(f.data)
	}
	return nil
}

func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fault("syncdir", dir)
}

// Crash simulates a process kill plus power cut: every file reverts to
// its fsynced prefix plus a seed-chosen prefix of the unsynced tail —
// the torn-write state recovery must cope with. Handles stay usable
// (tests reopen through the FS anyway).
func (m *MemFS) Crash(seed uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	z := seed
	for _, name := range m.sortedNames() {
		f := m.files[name]
		unsynced := len(f.data) - f.synced
		if unsynced <= 0 {
			continue
		}
		keep := f.synced + int(splitmix(&z)%uint64(unsynced+1))
		f.data = f.data[:keep]
		f.synced = keep
	}
}

// ReadFile returns a copy of name's current content.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

// WriteFile replaces name's content, fully synced — the hook for tests
// that hand-craft corrupt segments and snapshots.
func (m *MemFS) WriteFile(name string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = &memFile{data: append([]byte(nil), data...), synced: len(data)}
}

func (m *MemFS) sortedNames() []string {
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func splitmix(z *uint64) uint64 {
	*z += 0x9E3779B97F4A7C15
	x := *z
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

type memHandle struct {
	fs   *MemFS
	name string
	pos  int
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f := h.fs.files[h.name]
	if f == nil {
		return 0, &os.PathError{Op: "read", Path: h.name, Err: os.ErrNotExist}
	}
	if h.pos >= len(f.data) {
		return 0, io.EOF
	}
	n := copy(p, f.data[h.pos:])
	h.pos += n
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f := h.fs.files[h.name]
	if f == nil {
		return 0, &os.PathError{Op: "write", Path: h.name, Err: os.ErrNotExist}
	}
	if err := h.fs.fault("write", h.name); err != nil {
		if sw, ok := err.(*ShortWrite); ok {
			n := sw.N
			if n > len(p) {
				n = len(p)
			}
			f.data = append(f.data, p[:n]...)
			return n, sw.Err
		}
		return 0, err
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.fault("sync", h.name); err != nil {
		return err
	}
	if f := h.fs.files[h.name]; f != nil {
		f.synced = len(f.data)
	}
	return nil
}

func (h *memHandle) Close() error { return nil }
