// Package storage provides the block-oriented storage substrate used by the
// NoK physical encoding, the embedded DOL access-control data, and the
// B+-tree indexes: fixed-size pages, file-backed and in-memory pagers, and
// an LRU buffer pool with pin counting and I/O statistics.
//
// The DOL paper's performance claims are about I/O behavior (access checks
// piggy-back on structure pages; inaccessible pages can be skipped), so all
// page traffic is counted and exposed via Stats.
package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// DefaultPageSize matches the 4 KB pages used in the paper's evaluation (§5.2).
const DefaultPageSize = 4096

// PageID identifies a page within a pager. Pages are allocated densely
// starting at 0.
type PageID uint32

// InvalidPage is the null page reference.
const InvalidPage PageID = ^PageID(0)

// ErrPageOutOfRange is returned when reading or writing an unallocated page.
var ErrPageOutOfRange = errors.New("storage: page out of range")

// Pager is a flat array of fixed-size pages on some medium.
type Pager interface {
	// PageSize returns the fixed size of every page in bytes.
	PageSize() int
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Allocate appends a zeroed page and returns its ID.
	Allocate() (PageID, error)
	// ReadPage copies page id into buf, which must be PageSize() long.
	ReadPage(id PageID, buf []byte) error
	// WritePage copies buf, which must be PageSize() long, into page id.
	WritePage(id PageID, buf []byte) error
	// Sync flushes buffered writes to the medium.
	Sync() error
	// Close releases the pager's resources.
	Close() error
	// Stats returns cumulative physical I/O counters.
	Stats() IOStats
}

// IOStats counts physical page operations at the pager level.
type IOStats struct {
	Reads  int64 // pages physically read
	Writes int64 // pages physically written
	Allocs int64 // pages allocated
	Syncs  int64 // fsyncs physically issued (a clean Sync issues none)
}

func (s IOStats) String() string {
	return fmt.Sprintf("reads=%d writes=%d allocs=%d syncs=%d", s.Reads, s.Writes, s.Allocs, s.Syncs)
}

// MemPager is an in-memory Pager, used in tests and for small documents.
type MemPager struct {
	mu       sync.Mutex
	pageSize int
	pages    [][]byte
	stats    IOStats
	closed   bool
}

// NewMemPager returns an empty in-memory pager with the given page size.
func NewMemPager(pageSize int) *MemPager {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemPager{pageSize: pageSize}
}

// PageSize implements Pager.
func (m *MemPager) PageSize() int { return m.pageSize }

// NumPages implements Pager.
func (m *MemPager) NumPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pages)
}

// Allocate implements Pager.
func (m *MemPager) Allocate() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return InvalidPage, errors.New("storage: pager closed")
	}
	m.pages = append(m.pages, make([]byte, m.pageSize))
	m.stats.Allocs++
	return PageID(len(m.pages) - 1), nil
}

// ReadPage implements Pager.
func (m *MemPager) ReadPage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: read %d of %d", ErrPageOutOfRange, id, len(m.pages))
	}
	if len(buf) != m.pageSize {
		return fmt.Errorf("storage: buffer size %d != page size %d", len(buf), m.pageSize)
	}
	copy(buf, m.pages[id])
	m.stats.Reads++
	return nil
}

// WritePage implements Pager.
func (m *MemPager) WritePage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, len(m.pages))
	}
	if len(buf) != m.pageSize {
		return fmt.Errorf("storage: buffer size %d != page size %d", len(buf), m.pageSize)
	}
	copy(m.pages[id], buf)
	m.stats.Writes++
	return nil
}

// Sync implements Pager (a no-op in memory).
func (m *MemPager) Sync() error { return nil }

// Close implements Pager.
func (m *MemPager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.pages = nil
	return nil
}

// Stats implements Pager.
func (m *MemPager) Stats() IOStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// FilePager is a Pager over a single operating-system file.
type FilePager struct {
	mu       sync.Mutex
	f        *os.File
	pageSize int
	numPages int
	stats    IOStats
	// dirty records a write or an allocation since the last successful
	// Sync. A clean Sync issues no fsync: a store that was only read closes
	// without touching the disk.
	dirty bool
}

// OpenFilePager opens (creating if necessary) the file at path as a pager
// with the given page size. An existing file must be a whole number of pages
// long.
func OpenFilePager(path string, pageSize int) (*FilePager, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if info.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s size %d is not a multiple of page size %d", path, info.Size(), pageSize)
	}
	return &FilePager{f: f, pageSize: pageSize, numPages: int(info.Size() / int64(pageSize))}, nil
}

// PageSize implements Pager.
func (p *FilePager) PageSize() int { return p.pageSize }

// NumPages implements Pager.
func (p *FilePager) NumPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.numPages
}

// Allocate implements Pager.
func (p *FilePager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	zero := make([]byte, p.pageSize)
	off := int64(p.numPages) * int64(p.pageSize)
	p.dirty = true
	if n, err := p.f.WriteAt(zero, off); err != nil {
		return InvalidPage, fmt.Errorf("storage: allocate page %d at offset %d: wrote %d of %d bytes: %w",
			p.numPages, off, n, p.pageSize, err)
	}
	id := PageID(p.numPages)
	p.numPages++
	p.stats.Allocs++
	return id, nil
}

// ReadPage implements Pager.
func (p *FilePager) ReadPage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) >= p.numPages {
		return fmt.Errorf("%w: read %d of %d", ErrPageOutOfRange, id, p.numPages)
	}
	if len(buf) != p.pageSize {
		return fmt.Errorf("storage: buffer size %d != page size %d", len(buf), p.pageSize)
	}
	off := int64(id) * int64(p.pageSize)
	if n, err := p.f.ReadAt(buf, off); err != nil {
		return fmt.Errorf("storage: read page %d at offset %d: got %d of %d bytes: %w",
			id, off, n, p.pageSize, err)
	}
	p.stats.Reads++
	return nil
}

// WritePage implements Pager.
func (p *FilePager) WritePage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) >= p.numPages {
		return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, p.numPages)
	}
	if len(buf) != p.pageSize {
		return fmt.Errorf("storage: buffer size %d != page size %d", len(buf), p.pageSize)
	}
	off := int64(id) * int64(p.pageSize)
	p.dirty = true // a failed or short write may have changed the file too
	if n, err := p.f.WriteAt(buf, off); err != nil {
		// A short write tears the page; the ID and offset say exactly
		// which one, which recovery diagnostics depend on.
		return fmt.Errorf("storage: write page %d at offset %d: wrote %d of %d bytes: %w",
			id, off, n, p.pageSize, err)
	}
	p.stats.Writes++
	return nil
}

// Sync implements Pager. It fsyncs only when a page was written or
// allocated since the last Sync that succeeded; a failed fsync leaves the
// pager dirty, so the next Sync tries again. Pages written by an earlier
// process are durable already: WAL recovery and every flush fsync the file
// before the log that covers them is truncated (DESIGN.md §3). The fsync
// runs outside the lock, so page reads do not wait for it; a write that
// lands meanwhile marks the pager dirty again.
func (p *FilePager) Sync() error {
	p.mu.Lock()
	if !p.dirty {
		p.mu.Unlock()
		return nil
	}
	p.dirty = false
	p.stats.Syncs++
	p.mu.Unlock()
	if err := p.f.Sync(); err != nil {
		p.mu.Lock()
		p.dirty = true
		p.mu.Unlock()
		return err
	}
	return nil
}

// Close implements Pager.
func (p *FilePager) Close() error { return p.f.Close() }

// Stats implements Pager.
func (p *FilePager) Stats() IOStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
