package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// File is the minimal durable byte-stream abstraction the write-ahead log
// runs on: sequential appends, random reads, truncation, and an explicit
// durability barrier. *os.File satisfies it via OSFile; the tests have an
// in-memory MemFile, and FaultFile (fault.go) wraps either to inject
// crashes at chosen append or sync points.
type File interface {
	io.ReaderAt
	// Append writes p at the current end of the file. A short append must
	// return a non-nil error (torn appends are how log corruption enters
	// the recovery test matrix).
	Append(p []byte) (int, error)
	// Size returns the current length in bytes.
	Size() (int64, error)
	// Truncate shrinks (or extends with zeros) the file to size bytes.
	Truncate(size int64) error
	// Sync makes all preceding appends durable.
	Sync() error
	// Close releases the file.
	Close() error
}

// OSFile adapts *os.File to the File interface, tracking the append offset.
type OSFile struct {
	mu  sync.Mutex
	f   *os.File
	end int64
}

// OpenOSFile opens (creating if necessary) path for appending and random
// reads.
func OpenOSFile(path string) (*OSFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	return &OSFile{f: f, end: info.Size()}, nil
}

// ReadAt implements File.
func (o *OSFile) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }

// Append implements File.
func (o *OSFile) Append(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	n, err := o.f.WriteAt(p, o.end)
	o.end += int64(n)
	if err != nil {
		return n, fmt.Errorf("storage: append %d bytes at offset %d: wrote %d: %w", len(p), o.end-int64(n), n, err)
	}
	return n, nil
}

// Size implements File.
func (o *OSFile) Size() (int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.end, nil
}

// Truncate implements File.
func (o *OSFile) Truncate(size int64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.f.Truncate(size); err != nil {
		return err
	}
	o.end = size
	return nil
}

// Sync implements File.
func (o *OSFile) Sync() error { return o.f.Sync() }

// Close implements File.
func (o *OSFile) Close() error { return o.f.Close() }
