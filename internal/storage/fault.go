package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrInjected is the root of every injected failure. Once a fault trips,
// the faulted component keeps failing: the wrapped handle behaves like the
// file descriptors of a crashed process, so tests exercise exactly the
// state a real crash leaves on disk.
var ErrInjected = errors.New("storage: injected fault")

// FaultOp names an operation class a fault can target.
type FaultOp int

// Fault targets.
const (
	// FaultWrite trips on the Nth page write (FaultPager) or log append
	// (FaultFile).
	FaultWrite FaultOp = iota
	// FaultSync trips on the Nth Sync call.
	FaultSync
)

// Fault describes one injected failure: the Nth occurrence (1-based) of Op
// fails. With Torn set, the failing write first applies only the first half
// of its payload — a torn page or log record — before the error surfaces.
type Fault struct {
	Op   FaultOp
	N    int
	Torn bool
}

// faultState is the shared trip logic of FaultPager and FaultFile.
type faultState struct {
	mu      sync.Mutex
	fault   Fault
	armed   bool
	writes  int
	syncs   int
	tripped bool
}

// arm installs the fault and resets counters.
func (fs *faultState) arm(f Fault) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.fault = f
	fs.armed = f.N > 0
	fs.writes = 0
	fs.syncs = 0
	fs.tripped = false
}

// op counts one occurrence of op and reports (torn, err): err non-nil when
// the component is dead or the fault fires now; torn additionally requests
// the half-write behavior from the caller before returning err.
func (fs *faultState) op(op FaultOp) (bool, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.tripped {
		return false, fmt.Errorf("%w (component dead after earlier fault)", ErrInjected)
	}
	var count int
	switch op {
	case FaultWrite:
		fs.writes++
		count = fs.writes
	case FaultSync:
		fs.syncs++
		count = fs.syncs
	}
	if fs.armed && fs.fault.Op == op && count == fs.fault.N {
		fs.tripped = true
		return fs.fault.Torn, fmt.Errorf("%w: %v #%d", ErrInjected, opName(fs.fault.Op), count)
	}
	return false, nil
}

// observe fails when the component is already dead (for reads and other
// non-targeted operations after the crash).
func (fs *faultState) observe() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.tripped {
		return fmt.Errorf("%w (component dead after earlier fault)", ErrInjected)
	}
	return nil
}

func (fs *faultState) counts() (writes, syncs int, tripped bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writes, fs.syncs, fs.tripped
}

func opName(op FaultOp) string {
	switch op {
	case FaultWrite:
		return "write"
	case FaultSync:
		return "sync"
	}
	return "unknown"
}

// FaultPager wraps a Pager and fails a chosen page write or sync, optionally
// tearing the failing write across the page (first half new bytes, second
// half old). A clean pass with no fault armed counts operations, so the
// recovery matrix can enumerate every crash point of an update.
type FaultPager struct {
	inner Pager
	state faultState
}

// NewFaultPager wraps p with no fault armed (counting only).
func NewFaultPager(p Pager) *FaultPager { return &FaultPager{inner: p} }

// Arm installs the fault and resets the operation counters.
func (p *FaultPager) Arm(f Fault) { p.state.arm(f) }

// Counts reports the page writes and syncs observed since the last Arm (or
// construction), plus whether the fault has tripped.
func (p *FaultPager) Counts() (writes, syncs int, tripped bool) { return p.state.counts() }

// PageSize implements Pager.
func (p *FaultPager) PageSize() int { return p.inner.PageSize() }

// NumPages implements Pager.
func (p *FaultPager) NumPages() int { return p.inner.NumPages() }

// Allocate implements Pager; an allocation is not a counted write (the
// zero-fill of a fresh page carries no information to tear).
func (p *FaultPager) Allocate() (PageID, error) {
	if err := p.state.observe(); err != nil {
		return InvalidPage, err
	}
	return p.inner.Allocate()
}

// ReadPage implements Pager.
func (p *FaultPager) ReadPage(id PageID, buf []byte) error {
	if err := p.state.observe(); err != nil {
		return err
	}
	return p.inner.ReadPage(id, buf)
}

// WritePage implements Pager.
func (p *FaultPager) WritePage(id PageID, buf []byte) error {
	torn, err := p.state.op(FaultWrite)
	if err == nil {
		return p.inner.WritePage(id, buf)
	}
	if torn {
		// A torn page: the first half of the sector run made it to disk,
		// the rest kept its previous contents.
		old := make([]byte, p.inner.PageSize())
		if rerr := p.inner.ReadPage(id, old); rerr == nil {
			copy(old[:len(old)/2], buf[:len(buf)/2])
			_ = p.inner.WritePage(id, old)
		}
	}
	return err
}

// Sync implements Pager.
func (p *FaultPager) Sync() error {
	if _, err := p.state.op(FaultSync); err != nil {
		return err
	}
	return p.inner.Sync()
}

// Close implements Pager. Closing a tripped pager does not flush anything;
// the inner pager keeps whatever reached it before the crash.
func (p *FaultPager) Close() error { return p.inner.Close() }

// Stats implements Pager.
func (p *FaultPager) Stats() IOStats { return p.inner.Stats() }

// FaultFile wraps a File (the WAL log) and fails a chosen append or sync,
// optionally tearing the failing append in half. It tracks how much of the
// log a sync covered, so a crash can lose the rest (LoseUnsynced).
type FaultFile struct {
	inner File
	state faultState
	// size is the file's size as its appends and truncations left it,
	// synced the size the last successful Sync made durable.
	size, synced atomic.Int64
}

// NewFaultFile wraps f with no fault armed (counting only); the bytes f
// holds already count as synced.
func NewFaultFile(f File) *FaultFile {
	ff := &FaultFile{inner: f}
	if size, err := f.Size(); err == nil {
		ff.size.Store(size)
		ff.synced.Store(size)
	}
	return ff
}

// LoseUnsynced cuts the log back to the size its last successful Sync
// covered, as a crash loses what no sync made durable.
func (f *FaultFile) LoseUnsynced() {
	if synced := f.synced.Load(); f.size.Load() > synced && f.inner.Truncate(synced) == nil {
		f.size.Store(synced)
	}
}

// Arm installs the fault and resets the operation counters.
func (f *FaultFile) Arm(fault Fault) { f.state.arm(fault) }

// Counts reports the appends and syncs observed since the last Arm, plus
// whether the fault has tripped.
func (f *FaultFile) Counts() (appends, syncs int, tripped bool) { return f.state.counts() }

// ReadAt implements File.
func (f *FaultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.state.observe(); err != nil {
		return 0, err
	}
	return f.inner.ReadAt(p, off)
}

// Append implements File.
func (f *FaultFile) Append(p []byte) (int, error) {
	torn, err := f.state.op(FaultWrite)
	if err == nil {
		n, err := f.inner.Append(p)
		f.size.Add(int64(n))
		return n, err
	}
	if torn && len(p) > 0 {
		n, _ := f.inner.Append(p[:(len(p)+1)/2])
		f.size.Add(int64(n))
		return n, err
	}
	return 0, err
}

// Size implements File.
func (f *FaultFile) Size() (int64, error) {
	if err := f.state.observe(); err != nil {
		return 0, err
	}
	return f.inner.Size()
}

// Truncate implements File.
func (f *FaultFile) Truncate(size int64) error {
	if err := f.state.observe(); err != nil {
		return err
	}
	if err := f.inner.Truncate(size); err != nil {
		return err
	}
	f.size.Store(size)
	if size < f.synced.Load() {
		f.synced.Store(size)
	}
	return nil
}

// Sync implements File.
func (f *FaultFile) Sync() error {
	if _, err := f.state.op(FaultSync); err != nil {
		return err
	}
	if err := f.inner.Sync(); err != nil {
		return err
	}
	f.synced.Store(f.size.Load())
	return nil
}

// Close implements File.
func (f *FaultFile) Close() error { return f.inner.Close() }
