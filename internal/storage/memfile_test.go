package storage

import (
	"io"
	"sync"
)

// MemFile is an in-memory File. Its contents survive Close so crash tests
// can reopen "the disk" after abandoning a faulted handle.
type MemFile struct {
	mu   sync.Mutex
	data []byte
}

// NewMemFile returns an empty in-memory file.
func NewMemFile() *MemFile { return &MemFile{} }

// ReadAt implements File.
func (m *MemFile) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Append implements File.
func (m *MemFile) Append(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = append(m.data, p...)
	return len(p), nil
}

// Size implements File.
func (m *MemFile) Size() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.data)), nil
}

// Truncate implements File.
func (m *MemFile) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case size <= int64(len(m.data)):
		m.data = m.data[:size]
	default:
		m.data = append(m.data, make([]byte, size-int64(len(m.data)))...)
	}
	return nil
}

// Sync implements File (a no-op in memory).
func (m *MemFile) Sync() error { return nil }

// Close implements File. The contents remain readable through new handles
// (crash tests reuse the same MemFile after a simulated process death).
func (m *MemFile) Close() error { return nil }

// Bytes returns a copy of the file contents, for tests that snapshot or
// corrupt log state.
func (m *MemFile) Bytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.data...)
}

// SetBytes replaces the file contents, for tests that restore a snapshot.
func (m *MemFile) SetBytes(b []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = append([]byte(nil), b...)
}
