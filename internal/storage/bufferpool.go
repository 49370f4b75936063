package storage

import (
	"context"
	"fmt"
	"sync"

	"dolxml/internal/obs"
)

// PoolStats counts logical page requests against the buffer pool. Together
// with the underlying pager's IOStats they quantify the I/O savings of the
// DOL page-skipping optimization.
type PoolStats struct {
	Gets      int64 // logical page requests
	Hits      int64 // served from the pool without physical I/O
	Misses    int64 // required a physical read
	Evictions int64 // frames reclaimed
	Flushes   int64 // dirty pages written back
}

// Frame is a buffered page. Data is valid while the frame is pinned.
type Frame struct {
	id    PageID
	Data  []byte
	pins  int
	dirty bool
	// prev and next link the frame into the pool's LRU ring; non-nil only
	// while unpinned. The links live in the frame so that an Unpin
	// allocates nothing.
	prev, next *Frame
	// ready is closed once Data holds the page contents. Frames are
	// published to the pool map before their physical read completes so
	// that the pool mutex is never held across I/O; concurrent getters of
	// the same page wait on ready instead of issuing a duplicate read.
	ready chan struct{}
	// loadErr is set (before ready closes) when the physical read failed;
	// the frame is withdrawn from the pool and waiters propagate the error.
	loadErr error
}

// ID returns the page this frame buffers.
func (f *Frame) ID() PageID { return f.id }

// BufferPool caches pages of a Pager with LRU replacement and pin counting.
// It is safe for concurrent use.
type BufferPool struct {
	mu       sync.Mutex
	pager    Pager
	capacity int
	frames   map[PageID]*Frame
	// lru is the sentinel of the ring of unpinned frames: lru.next is the
	// most recently used, lru.prev the eviction victim, the sentinel itself
	// when none is unpinned.
	lru Frame
	// Counters are obs atomics rather than fields of a mutex-guarded
	// struct: Stats() and the metrics registry read them while workers
	// update them, without coordinating on bp.mu. They register under
	// pool_* via RegisterMetrics.
	gets      obs.Counter
	hits      obs.Counter
	misses    obs.Counter
	evictions obs.Counter
	flushes   obs.Counter
	// dirty indexes the buffered frames whose dirty bit is set, so FlushAll
	// visits exactly the write-back set instead of scanning every frame —
	// the scan sat inside each update commit's sealing critical section and
	// grew with pool capacity, not with the update's footprint. Invariant
	// (under mu): id ∈ dirty ⇔ frames[id].dirty.
	dirty map[PageID]struct{}
	// room is how an admission that finds every frame pinned waits instead of
	// failing: whatever makes a frame evictable or a slot free wakes the
	// waiters (see wake), but only while waiters > 0, so the hit path pays one
	// integer compare. pinWaits counts those waits.
	room     *sync.Cond
	waiters  int
	pinWaits obs.Counter
}

// NewBufferPool wraps pager with a pool of at most capacity frames. The
// frame table grows with the pages buffered, not with capacity: an index
// pool is given a capacity it never reaches (1 GiB of pages) for a few
// dozen frames.
func NewBufferPool(pager Pager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	bp := &BufferPool{
		pager:    pager,
		capacity: capacity,
		frames:   make(map[PageID]*Frame),
		dirty:    make(map[PageID]struct{}),
	}
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
	bp.room = sync.NewCond(&bp.mu)
	return bp
}

// Pager returns the underlying pager.
func (bp *BufferPool) Pager() Pager { return bp.pager }

// Capacity returns the maximum number of buffered frames.
func (bp *BufferPool) Capacity() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.capacity
}

// closedReady is shared by frames whose contents are valid from birth
// (allocations and reloads), so waiting on ready never blocks for them.
var closedReady = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Get pins and returns the frame for page id, reading it from the pager on
// a miss. The caller must Unpin the frame when done.
//
// The pool mutex is held only for bookkeeping, never across pager I/O: on a
// miss the frame is published pinned-but-loading, the read proceeds outside
// the lock, and concurrent hits on other pages are unaffected. A concurrent
// Get of the same still-loading page counts as a hit (no second physical
// read happens) and blocks until the load completes.
func (bp *BufferPool) Get(id PageID) (*Frame, error) {
	return bp.GetCtx(context.Background(), id)
}

// GetCtx is Get with cancellation. The page-fetch boundary is the natural
// cancellation point of every scan in the system, so the context is
// consulted exactly once here, before the frame is pinned: a cancelled
// query observes ctx.Err() without ever acquiring a pin, which is what lets
// the query layers guarantee that pin counts return to zero on
// cancellation. A Get that has already passed the check completes its read
// normally (worst-case cancellation latency is one physical page read).
//
// A miss that finds every frame pinned waits for an Unpin rather than
// failing; cancelling ctx ends the wait with ctx's error, again with no pin
// held and nothing counted.
func (bp *BufferPool) GetCtx(ctx context.Context, id PageID) (*Frame, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := obs.TraceFromContext(ctx)
	bp.mu.Lock()
	for {
		if f, ok := bp.frames[id]; ok {
			bp.gets.Inc()
			bp.hits.Inc()
			bp.pin(f)
			bp.mu.Unlock()
			// Recorded per Get, mirroring the gets counter exactly: the
			// invariant tests hold trace pin events == pool Gets delta.
			tr.PagePin(int64(id), true)
			<-f.ready
			if f.loadErr != nil {
				// The loader withdrew the frame; the pin died with it.
				return nil, f.loadErr
			}
			return f, nil
		}
		waited, err := bp.makeRoom(ctx)
		if err != nil {
			bp.mu.Unlock()
			return nil, err
		}
		if !waited {
			break
		}
		// The mutex was released while waiting: another getter may have
		// loaded this very page meanwhile.
	}
	bp.gets.Inc()
	bp.misses.Inc()
	f := bp.newFrame(id)
	f.ready = make(chan struct{})
	bp.pin(f)
	bp.mu.Unlock()
	tr.PagePin(int64(id), false)

	err := bp.pager.ReadPage(id, f.Data)
	bp.mu.Lock()
	if err != nil {
		f.loadErr = err
		delete(bp.frames, id)
		bp.wake()
	}
	close(f.ready)
	bp.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Allocate creates a new page in the pager and returns it pinned and zeroed.
func (bp *BufferPool) Allocate() (*Frame, error) {
	id, err := bp.pager.Allocate()
	if err != nil {
		return nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if _, err := bp.makeRoom(context.Background()); err != nil {
		return nil, err
	}
	bp.gets.Inc()
	f := bp.newFrame(id)
	bp.pin(f)
	return f, nil
}

// makeRoom brings the pool under capacity so one frame can be admitted,
// evicting LRU frames and, when every frame is pinned, waiting for an Unpin
// or a larger capacity. The loop matters once SetCapacity can shrink a pool
// below its occupancy: one admission may have to reclaim several frames
// before the pool is back under budget. Caller holds bp.mu; waited reports
// that it was released meanwhile. A cancelled ctx ends the wait with ctx's
// error.
func (bp *BufferPool) makeRoom(ctx context.Context) (waited bool, err error) {
	for len(bp.frames) >= bp.capacity {
		if bp.lru.prev != &bp.lru {
			if err := bp.evict(); err != nil {
				return waited, err
			}
			continue
		}
		if !waited {
			waited = true
			bp.pinWaits.Inc()
			// Cond.Wait cannot watch a channel, so cancellation wakes every
			// waiter and each re-checks its own ctx.
			stop := context.AfterFunc(ctx, func() {
				bp.mu.Lock()
				bp.room.Broadcast()
				bp.mu.Unlock()
			})
			defer stop()
		}
		bp.waiters++
		bp.room.Wait()
		bp.waiters--
		if err := ctx.Err(); err != nil {
			return true, err
		}
	}
	return waited, nil
}

// wake rouses every admission waiting in makeRoom. All of them, not one: a
// woken waiter may leave without taking the room (its ctx was cancelled, or
// its page arrived meanwhile), and the rest must not sleep on. Caller holds
// bp.mu.
func (bp *BufferPool) wake() {
	if bp.waiters > 0 {
		bp.room.Broadcast()
	}
}

// newFrame installs an empty frame for id; makeRoom has made room for it.
// The frame is born ready (callers that must load it asynchronously replace
// the channel before releasing the mutex). Caller holds bp.mu.
func (bp *BufferPool) newFrame(id PageID) *Frame {
	f := &Frame{id: id, Data: make([]byte, bp.pager.PageSize()), ready: closedReady}
	bp.frames[id] = f
	return f
}

// SetCapacity re-budgets the pool to at most capacity frames, evicting LRU
// frames (writing back dirty ones) until occupancy fits. Pinned frames
// cannot be reclaimed; if pins alone exceed the new capacity the shrink
// stops there and completes lazily as later admissions evict. The tenant
// registry calls this on every open and close to keep the sum of per-store
// capacities under one global byte budget.
func (bp *BufferPool) SetCapacity(capacity int) error {
	if capacity < 1 {
		capacity = 1
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if capacity > bp.capacity {
		bp.wake()
	}
	bp.capacity = capacity
	for len(bp.frames) > bp.capacity && bp.lru.prev != &bp.lru {
		if err := bp.evict(); err != nil {
			return err
		}
	}
	return nil
}

// pin marks f in use. Caller holds bp.mu.
func (bp *BufferPool) pin(f *Frame) {
	f.pins++
	if f.next != nil {
		f.unlink()
	}
}

// unlink takes f out of the LRU ring.
func (f *Frame) unlink() {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// Unpin releases one pin on the frame for page id; dirty records that the
// caller modified the page.
func (bp *BufferPool) Unpin(id PageID, dirty bool) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok {
		return fmt.Errorf("storage: unpin of unbuffered page %d", id)
	}
	if f.pins == 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	if dirty {
		f.dirty = true
		bp.dirty[id] = struct{}{}
	}
	f.pins--
	if f.pins == 0 {
		f.prev, f.next = &bp.lru, bp.lru.next
		f.prev.next, f.next.prev = f, f
		bp.wake()
	}
	return nil
}

// evict removes the least recently used unpinned frame, writing it back if
// dirty. Caller holds bp.mu and has checked that the LRU list is not empty.
func (bp *BufferPool) evict() error {
	f := bp.lru.prev
	id := f.id
	if f.dirty {
		if err := bp.pager.WritePage(id, f.Data); err != nil {
			return err
		}
		delete(bp.dirty, id)
		bp.flushes.Inc()
	}
	f.unlink()
	delete(bp.frames, id)
	bp.evictions.Inc()
	return nil
}

// FlushAll writes every dirty buffered page back to the pager.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id := range bp.dirty {
		f := bp.frames[id]
		if err := bp.pager.WritePage(id, f.Data); err != nil {
			return err
		}
		f.dirty = false
		delete(bp.dirty, id)
		bp.flushes.Inc()
	}
	return bp.pager.Sync()
}

// Stats returns cumulative pool counters. Each field is an atomic load, so
// Stats never races with concurrent workers. The fields are not sampled at
// one instant, but a Get counts itself before it counts its hit or miss and
// Stats reads in the opposite order, so Hits+Misses <= Gets holds in every
// sample, with equality once the pool is quiet.
func (bp *BufferPool) Stats() PoolStats {
	st := PoolStats{
		Hits:      bp.hits.Load(),
		Misses:    bp.misses.Load(),
		Evictions: bp.evictions.Load(),
		Flushes:   bp.flushes.Load(),
	}
	st.Gets = bp.gets.Load()
	return st
}

// ResetStats zeroes the pool counters (the pager's physical counters are
// unaffected).
func (bp *BufferPool) ResetStats() {
	bp.gets.Reset()
	bp.hits.Reset()
	bp.misses.Reset()
	bp.evictions.Reset()
	bp.flushes.Reset()
	bp.pinWaits.Reset()
}

// RegisterMetrics registers the pool's counters plus pinned/buffered/
// capacity gauges with reg under prefix (prefix "pool" yields pool_gets,
// pool_hits, …).
func (bp *BufferPool) RegisterMetrics(reg *obs.Registry, prefix string) error {
	for _, m := range []struct {
		name, help string
		c          *obs.Counter
	}{
		{"gets", "Page pins served by the buffer pool.", &bp.gets},
		{"hits", "Page pins satisfied without a pager read.", &bp.hits},
		{"misses", "Page pins that required a pager read.", &bp.misses},
		{"evictions", "Frames evicted to make room.", &bp.evictions},
		{"flushes", "Dirty frames written back on eviction or flush.", &bp.flushes},
		{"pin_waits_total", "Times an admission found every frame pinned and waited for an unpin.", &bp.pinWaits},
	} {
		if err := reg.RegisterCounter(prefix+"_"+m.name, m.c); err != nil {
			return err
		}
		reg.SetHelp(prefix+"_"+m.name, m.help)
	}
	if err := reg.RegisterGauge(prefix+"_pinned", func() int64 { return int64(bp.Pinned()) }); err != nil {
		return err
	}
	if err := reg.RegisterGauge(prefix+"_buffered", func() int64 { return int64(bp.Buffered()) }); err != nil {
		return err
	}
	if err := reg.RegisterGauge(prefix+"_capacity", func() int64 { return int64(bp.Capacity()) }); err != nil {
		return err
	}
	reg.SetHelp(prefix+"_pinned", "Outstanding page pins across all frames.")
	reg.SetHelp(prefix+"_buffered", "Frames currently holding a page.")
	reg.SetHelp(prefix+"_capacity", "Configured frame capacity of the pool.")
	return nil
}

// Pinned returns the total number of outstanding pins across all frames.
// Tests use it to assert that cancelled or closed query pipelines released
// every page they touched.
func (bp *BufferPool) Pinned() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, f := range bp.frames {
		n += f.pins
	}
	return n
}

// Buffered returns the number of frames currently in the pool.
func (bp *BufferPool) Buffered() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}

// DropAll discards every unpinned clean frame and flushes+drops dirty ones,
// emptying the cache. It fails if any frame is still pinned. Used by
// experiments that measure cold-cache I/O.
func (bp *BufferPool) DropAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id, f := range bp.frames {
		if f.pins > 0 {
			return fmt.Errorf("storage: DropAll with page %d still pinned", id)
		}
		if f.dirty {
			if err := bp.pager.WritePage(id, f.Data); err != nil {
				return err
			}
			bp.flushes.Inc()
		}
	}
	bp.frames = make(map[PageID]*Frame)
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
	bp.dirty = make(map[PageID]struct{})
	return nil
}
