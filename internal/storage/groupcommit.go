package storage

import (
	"errors"
	"fmt"
	"time"
)

// Group commit. Sealing a batch (sealForCommit in wal.go) is cheap — it
// moves the buffered after-images onto the flush queue under w.mu and
// never touches a file. The expensive part, the flush protocol, drains the
// WHOLE queue in one pass: every queued batch is appended to the log back
// to back, the log is fsynced once, the merged images are applied to the
// data pager and fsynced once, and a single checkpoint covering the whole
// group is appended and fsynced once. N committers therefore share ~3
// fsyncs instead of paying 3 each — the classic group-commit bargain, and
// the entire 40–100× WAL write-path gap is fsync-bound.
//
// Two durability modes build on the same seal+flush core:
//
//   - sync (Commit, or SealCommit then Flush): the committer seals, then
//     runs the flush itself. With no concurrency this is byte-for-byte the
//     single-batch protocol; with concurrency a committer that seals while
//     another flushes waits on flushMu and then drains whatever the queue
//     holds, so sync committers coalesce too.
//   - async (SealCommit then ScheduleFlush): seal, kick the flusher
//     goroutine, and return the CommitWaiter at once. The batch is visible
//     to reads at once (the queue is a read overlay) and durable when the
//     waiter resolves.
//
// The caller's locks can be released between seal and flush, which is how
// securexml.Store lets readers run during the flush.
//
// Failure latches: if a flush fails mid-protocol the log's tail state is
// unknown, so the pager marks itself broken, resolves every queued waiter
// with the error, and refuses further commits. Reopening the store runs
// recovery, which keeps the committed prefix of the interrupted group and
// discards the rest.
//
// Lock ordering: flushMu is acquired before w.mu and never the other way;
// w.mu is never held across an I/O call on the log or the data pager.

// errWALBroken marks commits refused because an earlier flush failure left
// the log in an unknown state; the store must be reopened to recover.
var errWALBroken = errors.New("storage: wal broken by earlier flush failure")

// sealedBatch is a committed-but-not-yet-durable batch on the flush queue.
// Its images serve double duty: flush input, and read overlay for pages
// the data pager does not have yet.
type sealedBatch struct {
	seq    uint64
	final  int // logical page count after this batch
	order  []PageID
	images map[PageID][]byte
	meta   []byte
	sealed time.Time
	done   chan struct{}
	err    error
}

func newSealedBatch(seq uint64, final int, order []PageID, images map[PageID][]byte, meta []byte) *sealedBatch {
	return &sealedBatch{
		seq:    seq,
		final:  final,
		order:  order,
		images: images,
		meta:   meta,
		sealed: time.Now(),
		done:   make(chan struct{}),
	}
}

// resolve publishes the batch's outcome exactly once; later calls are
// ignored (a batch can race between an inline flush and Close's drain).
func (b *sealedBatch) resolve(err error) {
	select {
	case <-b.done:
		return
	default:
	}
	b.err = err
	close(b.done)
}

// CommitWaiter is the durability handle returned by SealCommit: it
// resolves when the batch's group flush completes (or fails). The batch's
// effects are already visible to reads once it is sealed; the waiter only
// reports durability.
type CommitWaiter struct {
	b *sealedBatch
}

// Done returns a channel closed when the batch is durable or failed.
func (cw *CommitWaiter) Done() <-chan struct{} { return cw.b.done }

// Err returns the batch's outcome. Valid only after Done is closed.
func (cw *CommitWaiter) Err() error { return cw.b.err }

// Wait blocks until the batch is durable and returns its outcome.
func (cw *CommitWaiter) Wait() error {
	<-cw.b.done
	return cw.b.err
}

// resolvedWaiter is returned for commits with nothing to flush (empty
// batches, or nested commits folded into their parent — already covered by
// the parent's waiter).
func resolvedWaiter() *CommitWaiter {
	b := &sealedBatch{done: make(chan struct{})}
	close(b.done)
	return &CommitWaiter{b: b}
}

// SealCommit seals the outermost batch onto the flush queue and returns
// its durability waiter WITHOUT scheduling a flush — the two-phase form
// behind every durability mode. The caller typically seals under its own
// exclusive lock (cheap, no I/O), releases it, and then either flushes
// inline (Flush), kicks the background flusher (ScheduleFlush), or leaves
// the flush to a later committer, barrier, or Close. Nested calls merge
// metadata like Commit and return an already-resolved waiter.
func (w *WALPager) SealCommit(meta []byte) (*CommitWaiter, error) {
	b, err := w.sealForCommit(meta)
	if err != nil {
		return nil, err
	}
	if b == nil {
		return resolvedWaiter(), nil
	}
	return &CommitWaiter{b: b}, nil
}

// Flush runs one group flush inline on the calling goroutine, draining
// whatever the queue holds. Its return is the authoritative outcome of the
// whole protocol: waiters resolve as soon as the log sync makes the group
// durable, so a failure in the apply/checkpoint tail (which poisons the
// pager) is visible here but not through already-resolved waiters.
//
// Inline flushes checkpoint eagerly — sidecar delivered, log truncated —
// keeping the synchronous durability mode byte-for-byte the deterministic
// single-writer protocol the recovery fault matrix enumerates. Only the
// background flusher defers the checkpoint (see flushProtocol).
func (w *WALPager) Flush() error { return w.flushGroup(false) }

// ScheduleFlush starts the background flusher if needed and kicks it. The
// flush happens on the flusher goroutine; callers learn the outcome from
// their CommitWaiter.
func (w *WALPager) ScheduleFlush() {
	w.ensureFlusher()
	w.kickFlusher()
}

// ensureFlusher lazily starts the flusher goroutine. Stores that only ever
// commit synchronously never start it, keeping their I/O single-threaded
// and deterministic (the recovery fault matrix depends on that).
func (w *WALPager) ensureFlusher() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.flusherOn {
		return
	}
	w.flusherOn = true
	w.wg.Add(1)
	go w.flusherLoop()
}

// kickFlusher nudges the flusher; the buffered channel coalesces kicks.
func (w *WALPager) kickFlusher() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

func (w *WALPager) flusherLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			return
		case <-w.kick:
			w.gatherWindow()
			// Errors are latched in w.broken and delivered to every
			// waiter; nothing to do with them here. Background flushes
			// are lazy: they defer sidecar delivery and log truncation
			// until the log crosses walTruncateThreshold.
			w.flushGroup(true)
		}
	}
}

// gatherWindow briefly lets a group form before the background flusher
// flushes. When a flush completes, its waiters wake and re-seal staggered
// (sealing serializes on the store's write lock, so arrivals are spaced by
// a whole seal, several hundred microseconds); flushing the instant the
// first of them kicks would produce singleton groups and per-update fsync
// behavior all over again. The window extends in 400µs steps — longer than
// one seal, so a re-sealing wave registers as growth — only while the
// queue keeps growing, and is bounded by a WALL-CLOCK deadline rather than
// an iteration count: under CPU saturation (committers are compute-heavy
// between commits, or GOMAXPROCS is low) each sleep can overshoot by a
// scheduler quantum, and eight overshoots of 10ms would starve the flusher
// far longer than any group is worth. A lone committer pays one step of
// extra latency; a burst of committers lands in one flush. Only the
// flusher goroutine waits here — inline flushes (Commit, FlushBarrier,
// ReleaseFlushes) never do.
func (w *WALPager) gatherWindow() {
	prev := w.PendingBatches()
	if prev == 0 {
		return
	}
	deadline := time.Now().Add(2 * time.Millisecond)
	for {
		step := 400 * time.Microsecond
		if rest := time.Until(deadline); rest <= 0 {
			return
		} else if step > rest {
			step = rest
		}
		time.Sleep(step)
		cur := w.PendingBatches()
		if cur == prev {
			return
		}
		prev = cur
	}
}

// stopFlusher shuts the flusher goroutine down (idempotent).
func (w *WALPager) stopFlusher() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.wg.Wait()
}

// flushGroup drains the current queue as one flush. Concurrent callers
// serialize on flushMu: the loser finds the queue empty (or flushes the
// batches that arrived meanwhile). Returns the flush error; waiters see it
// too unless they already resolved at the group's durability point (the
// first log sync) before the failure. lazy selects the background
// flusher's deferred-checkpoint tail.
func (w *WALPager) flushGroup(lazy bool) error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	if w.held {
		w.mu.Unlock()
		return nil
	}
	if w.broken != nil {
		err := fmt.Errorf("%w: %w", errWALBroken, w.broken)
		w.failQueuedLocked(err)
		w.mu.Unlock()
		return err
	}
	group := make([]*sealedBatch, len(w.queue))
	copy(group, w.queue)
	w.mu.Unlock()
	if len(group) == 0 {
		return nil
	}
	err := w.flushProtocol(group, lazy)
	w.mu.Lock()
	if err != nil {
		w.broken = err
		w.lastAbortDirty = true
		w.failQueuedLocked(err)
		w.mu.Unlock()
		return err
	}
	// The group is durable and applied: only now may the batches leave the
	// read overlay (their pages are readable from the data pager). The
	// waiters resolved earlier, inside flushProtocol, the moment the log
	// sync made the group durable.
	w.queue = w.queue[len(group):]
	if w.depth == 0 {
		w.numPages = w.queueTopLocked()
	}
	w.groupSize.Observe(int64(len(group)))
	for range group {
		w.commits.Inc()
	}
	w.mu.Unlock()
	return nil
}

// failQueuedLocked resolves every queued batch with err and empties the
// queue. Caller holds w.mu.
func (w *WALPager) failQueuedLocked(err error) {
	for _, b := range w.queue {
		b.resolve(err)
	}
	w.queue = nil
	if w.depth == 0 {
		w.numPages = w.data.NumPages()
	}
}

// flushProtocol runs the durable group flush: journal every batch, fsync
// the log, apply the merged images, fsync the data pager, checkpoint,
// fsync, then — eagerly, or lazily once the log is large enough — deliver
// the newest metadata to the sink and truncate the log. Caller holds
// flushMu but NOT w.mu — the protocol only reads the immutable contents of
// sealed batches, so readers proceed concurrently.
func (w *WALPager) flushProtocol(group []*sealedBatch, lazy bool) error {
	if err := w.ensureHeader(); err != nil {
		return err
	}
	// 1. Journal every batch — begin, frames, meta, commit — then one
	// fsync makes the whole group's commit records durable. Meta blobs are
	// delta-chained (each batch's blob shares most of its bytes with the
	// previous one); the chain continues across lazy flushes — the base is
	// whatever meta record is already in the log — and restarts whenever a
	// checkpoint truncates the log back to its header.
	base := w.data.NumPages()
	prevMeta := w.prevLoggedMeta
	for _, b := range group {
		if err := w.appendRecord(encodeBegin(b.seq, base)); err != nil {
			return err
		}
		for _, id := range b.order {
			if err := w.appendRecord(encodePage(id, b.images[id])); err != nil {
				return err
			}
		}
		if b.meta != nil {
			if err := w.appendRecord(encodeMetaRecord(prevMeta, b.meta)); err != nil {
				return err
			}
			prevMeta = b.meta
		}
		if err := w.appendRecord(encodeCommit(b.seq, b.final, len(b.order))); err != nil {
			return err
		}
		base = b.final
	}
	w.prevLoggedMeta = prevMeta
	w.fsyncs.Inc()
	if err := w.log.Sync(); err != nil {
		return fmt.Errorf("storage: wal commit sync: %w", err)
	}
	// The group is durable from this point: its commit records are synced,
	// and the log is only truncated after the apply/deliver/checkpoint tail
	// below succeeds, so a crash (or a tail failure, which latches w.broken
	// and forces a reopen) replays every batch from the log. Resolve the
	// waiters now — blocked committers overlap their next seal with the
	// remaining four fsyncs of this flush. Tail failures thus reach inline
	// flushers through Flush's return, not through these waiters.
	now := time.Now()
	for _, b := range group {
		w.commitWait.Observe(now.Sub(b.sealed).Microseconds())
		b.resolve(nil)
	}
	// 2. Apply the merged group to the data pager and make it durable.
	// Later batches win on overlapping pages; first-touch order keeps the
	// apply deterministic.
	finalPages := group[len(group)-1].final
	var order []PageID
	images := make(map[PageID][]byte)
	for _, b := range group {
		for _, id := range b.order {
			if _, ok := images[id]; !ok {
				order = append(order, id)
			}
			images[id] = b.images[id]
		}
	}
	if err := w.applyImages(finalPages, order, images); err != nil {
		return err
	}
	// 3. Checkpoint the whole group, then deliver the newest metadata blob
	// (each is a full sidecar image, so the last one subsumes the rest) and
	// reset the log. A lazy flush defers that last step until the log
	// crosses walTruncateThreshold: the two sidecar fsyncs then amortize
	// across many flushes instead of taxing each one, and crash safety is
	// unchanged because recovery redelivers the newest committed blob it
	// finds in the log, checkpointed or not.
	if w.sink != nil {
		for _, b := range group {
			if b.meta != nil {
				w.pendingSidecar = b.meta
			}
		}
	}
	if err := w.appendRecord(encodeCheckpoint(group[len(group)-1].seq)); err != nil {
		return err
	}
	w.fsyncs.Inc()
	if err := w.log.Sync(); err != nil {
		return fmt.Errorf("storage: wal checkpoint sync: %w", err)
	}
	if lazy {
		size, err := w.log.Size()
		if err != nil {
			return fmt.Errorf("storage: wal size: %w", err)
		}
		if size < walTruncateThreshold {
			return nil
		}
	}
	return w.checkpointLocked()
}

// checkpointLocked completes a deferred (or eager) checkpoint: deliver the
// pending metadata sidecar, then truncate the log to its header. Delivery
// precedes truncation so a crash between the two merely redelivers on
// reopen (the sink is idempotent) rather than losing the newest blob.
// Caller holds flushMu and has ensured every record in the log belongs to
// a checkpointed batch.
func (w *WALPager) checkpointLocked() error {
	size, err := w.log.Size()
	if err != nil {
		return err
	}
	if size <= walHeaderSize {
		// Nothing journaled since the last truncation (and therefore no
		// sidecar can be pending).
		return nil
	}
	if w.sink != nil && w.pendingSidecar != nil {
		if err := w.sink(w.pendingSidecar); err != nil {
			return fmt.Errorf("storage: wal meta sink: %w", err)
		}
	}
	w.pendingSidecar = nil
	if err := w.log.Truncate(walHeaderSize); err != nil {
		return fmt.Errorf("storage: wal truncate: %w", err)
	}
	w.prevLoggedMeta = nil
	return nil
}

// FlushBarrier flushes until no sealed batch remains queued, overriding a
// test hold. It is the durability barrier behind Sync, Save and direct
// page access outside batches.
func (w *WALPager) FlushBarrier() error {
	for {
		w.mu.Lock()
		if w.broken != nil {
			err := fmt.Errorf("%w: %w", errWALBroken, w.broken)
			w.failQueuedLocked(err)
			w.mu.Unlock()
			return err
		}
		if len(w.queue) == 0 {
			w.mu.Unlock()
			return nil
		}
		w.held = false
		w.mu.Unlock()
		if err := w.flushGroup(false); err != nil {
			return err
		}
	}
}

// Broken returns the latched flush failure, if any. A broken pager rejects
// further commits; the store must be reopened to recover.
func (w *WALPager) Broken() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", errWALBroken, w.broken)
}

// PendingBatches reports how many sealed batches await flush.
func (w *WALPager) PendingBatches() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.queue)
}

// HoldFlushes pauses group flushing so tests can assemble a multi-batch
// group deterministically: sealed batches accumulate on the queue (and
// stay readable through the overlay) until ReleaseFlushes.
func (w *WALPager) HoldFlushes() {
	w.mu.Lock()
	w.held = true
	w.mu.Unlock()
}

// ReleaseFlushes ends a HoldFlushes window and immediately flushes the
// accumulated group inline, returning the flush outcome.
func (w *WALPager) ReleaseFlushes() error {
	w.mu.Lock()
	w.held = false
	w.mu.Unlock()
	return w.flushGroup(false)
}
