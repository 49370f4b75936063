package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"dolxml/internal/obs"
)

// This file implements the page-level write-ahead log that makes update
// batches atomic: a crash at any instant leaves the data pager either
// exactly as it was before the batch or exactly as the batch committed it —
// never a torn mixture. The DOL encoding makes this a security property,
// not merely a consistency one: a transition region torn mid-rewrite can
// grant access that was being revoked.
//
// Protocol. A batch buffers after-images of every page it touches (reads
// see the batch's own writes); nothing reaches the data pager before
// commit. Commit seals the batch onto the flush queue; a flush takes every
// queued batch — one or many — and appends them all to the log (begin
// record, one frame per page, an optional opaque metadata blob, commit
// record per batch, every record CRC32-guarded), then fsyncs the log ONCE
// for the whole group. Only then are the merged after-images applied to the
// data pager and fsynced, the newest metadata blob handed to the MetaSink,
// and a single checkpoint record covering the whole group appended before
// the log is truncated back to its header. The fsync ordering is therefore
// log → data → checkpoint, exactly as for a lone batch, but shared by every
// batch in the group — the group-commit machinery lives in groupcommit.go.
//
// Recovery. Opening the log classifies its tail:
//
//   - a committed batch without a checkpoint is redone (idempotent: the log
//     holds full after-images) and its metadata re-delivered to the sink;
//   - an uncommitted batch — missing or CRC-corrupt records, a torn tail —
//     is discarded; by construction the data pager was never touched, so
//     the pre-batch state is intact.
//
// A crash inside a group flush therefore recovers to an exact prefix of
// the group: batches whose commit records reached the log roll forward in
// seal order, the first torn or missing one and everything after it rolls
// back. There is no interleaving — records are appended batch by batch.

// ErrBatchAborted is returned by Commit after an inner Rollback poisoned
// the batch.
var ErrBatchAborted = errors.New("storage: update batch aborted")

// walMagic identifies a WAL file and its format version.
var walMagic = [8]byte{'D', 'O', 'L', 'W', 'A', 'L', '0', '1'}

const walHeaderSize = 12 // magic + u32 pageSize

// walTruncateThreshold bounds how large the log may grow before a
// background flush forces the deferred checkpoint (sidecar delivery + log
// truncation). Checkpointed batches are dead weight — recovery skips their
// redo — so keeping them until the log crosses this size trades a little
// replay scanning for removing the two sidecar fsyncs from every flush.
const walTruncateThreshold = 1 << 20

// WAL record types.
const (
	walRecBegin      = 1
	walRecPage       = 2
	walRecMeta       = 3
	walRecCommit     = 4
	walRecCheckpoint = 5
	// walRecMetaDelta journals a batch's metadata as (prefixLen, suffix)
	// against the previous meta record in the same log: the blob is the
	// first prefixLen bytes of that record's (reconstructed) blob followed
	// by the suffix. Metadata blobs are full sidecar images that differ
	// only in a small mutated region from batch to batch, so within a group
	// flush only the first batch pays the full blob; without this, meta
	// dominated the log traffic (a 140 KB blob per ~16 KB of page images)
	// and large coalesced groups made flushes slower, not faster.
	walRecMetaDelta = 6
)

// WALPager wraps a Pager with write-ahead-logged update batches. Outside a
// batch it is a transparent proxy (bulk loads journal nothing); inside one,
// writes and allocations are buffered and only reach the wrapped pager
// after the commit record is durable.
type WALPager struct {
	mu   sync.Mutex
	data Pager
	log  File
	// sink receives the committed metadata blob once its batch is durable:
	// at checkpoint (the newest pending blob), and from recovery — both
	// when it redoes a batch and when the newest committed blob in the log
	// belongs to an already-checkpointed batch whose deferred sidecar
	// delivery never happened. It must be idempotent.
	sink func([]byte) error

	seq     uint64
	depth   int
	aborted bool
	// pending maps page → after-image for the open batch; order preserves
	// first-write order for deterministic apply.
	pending map[PageID][]byte
	order   []PageID
	meta    []byte
	// numPages is the logical page count: data pages, plus allocations of
	// sealed-but-unflushed batches, plus the open batch's allocations.
	numPages int
	// lastAbortDirty records whether the most recent outermost rollback
	// (or failed flush) discarded buffered writes — the caller's in-memory
	// state is then ahead of disk and must be rebuilt by reopening.
	lastAbortDirty bool

	// Group-commit state (see groupcommit.go). queue holds sealed batches
	// not yet applied to the data pager; reads consult it newest-first, so
	// committed-but-unflushed pages stay visible. broken latches the first
	// flush failure: the log is in an unknown state and every later commit
	// fails until the store is reopened (recovery sorts out the log).
	queue  []*sealedBatch
	broken error
	// flushMu serializes the flush protocol (log appends, data apply,
	// checkpoint). It is never held together with mu across an I/O call,
	// so readers do not stall behind a flush's fsyncs.
	flushMu sync.Mutex
	// Deferred-checkpoint state, guarded by flushMu. Background (lazy)
	// flushes leave checkpointed batches in the log and their sidecar
	// delivery outstanding until the log crosses walTruncateThreshold;
	// pendingSidecar is the newest committed metadata blob the sink has
	// not seen, prevLoggedMeta the last blob journaled since the log was
	// truncated (the cross-flush base for meta delta records).
	pendingSidecar []byte
	prevLoggedMeta []byte
	// held pauses flushing (test hook for deterministic group formation).
	held bool
	// Flusher goroutine lifecycle: started lazily by the first async
	// commit, stopped by Close.
	flusherOn bool
	kick      chan struct{}
	stop      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup

	// Protocol counters, registered under wal_* via RegisterMetrics. Only
	// outermost Begin/Commit/Rollback count; fsyncs counts every Sync the
	// flush protocol and recovery issue (log → data → checkpoint).
	begins     obs.Counter
	commits    obs.Counter
	rollbacks  obs.Counter
	fsyncs     obs.Counter
	logAppends obs.Counter
	logBytes   obs.Counter
	// groupSize observes how many batches each flush coalesced;
	// commitWait observes seal-to-durable latency per batch in µs.
	groupSize  obs.Histogram
	commitWait obs.Histogram
}

// RecoveryInfo reports what opening a WAL found.
type RecoveryInfo struct {
	// Redone counts committed batches re-applied to the data pager.
	Redone int
	// MetaApplied reports that a redone batch carried a metadata blob that
	// was (re)delivered to the sink.
	MetaApplied bool
	// Discarded reports that an uncommitted tail (torn or unfinished
	// batch) was dropped.
	Discarded bool
}

// OpenWALPager wraps data with a write-ahead log stored in log, first
// running crash recovery: committed-but-unapplied batches are redone into
// data (and their metadata delivered to sink, which may be nil), torn or
// uncommitted tails are discarded. The log is left holding its header
// alone.
func OpenWALPager(data Pager, log File, sink func([]byte) error) (*WALPager, RecoveryInfo, error) {
	w := &WALPager{
		data:     data,
		log:      log,
		sink:     sink,
		numPages: data.NumPages(),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	info, err := w.recover()
	if err != nil {
		return nil, info, err
	}
	return w, info, nil
}

// PageSize implements Pager.
func (w *WALPager) PageSize() int { return w.data.PageSize() }

// NumPages implements Pager: it includes allocations of sealed batches
// still queued for flush and, inside a batch, the batch's own not yet
// materialized allocations.
func (w *WALPager) NumPages() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.numPages
}

// queueTopLocked is the logical page count excluding the open batch: the
// last sealed batch's final count, or the data pager's. Caller holds w.mu.
func (w *WALPager) queueTopLocked() int {
	if n := len(w.queue); n > 0 {
		return w.queue[n-1].final
	}
	return w.data.NumPages()
}

// Allocate implements Pager. Inside a batch the page exists only in the
// batch until commit. Outside one, any sealed batches are flushed first so
// the data pager's allocation cannot collide with a queued batch's.
func (w *WALPager) Allocate() (PageID, error) {
	for {
		w.mu.Lock()
		if w.depth > 0 {
			id := PageID(w.numPages)
			w.numPages++
			w.stage(id, make([]byte, w.data.PageSize()))
			w.mu.Unlock()
			return id, nil
		}
		if len(w.queue) == 0 {
			id, err := w.data.Allocate()
			if err == nil {
				w.numPages = w.data.NumPages()
			}
			w.mu.Unlock()
			return id, err
		}
		w.mu.Unlock()
		if err := w.FlushBarrier(); err != nil {
			return InvalidPage, err
		}
	}
}

// stage records buf (retained, not copied — callers pass fresh slices) as
// the batch's after-image of id. Caller holds w.mu.
func (w *WALPager) stage(id PageID, buf []byte) {
	if _, ok := w.pending[id]; !ok {
		w.order = append(w.order, id)
	}
	w.pending[id] = buf
}

// ReadPage implements Pager, reading through the open batch and any sealed
// batches still queued for flush (newest first). The fall-through read of
// the data pager runs outside w.mu, so cold reads do not serialize behind
// batch bookkeeping; the data pager synchronizes itself, and a page being
// applied by a flush stays in the queue overlay until the apply is durable,
// so no reader can observe a torn or stale image.
func (w *WALPager) ReadPage(id PageID, buf []byte) error {
	w.mu.Lock()
	if int(id) >= w.numPages {
		n := w.numPages
		w.mu.Unlock()
		return fmt.Errorf("%w: read %d of %d", ErrPageOutOfRange, id, n)
	}
	img, ok := w.pending[id]
	if !ok {
		for i := len(w.queue) - 1; i >= 0; i-- {
			if qi, hit := w.queue[i].images[id]; hit {
				img, ok = qi, true
				break
			}
		}
	}
	if ok {
		if len(buf) != len(img) {
			w.mu.Unlock()
			return fmt.Errorf("storage: buffer size %d != page size %d", len(buf), len(img))
		}
		copy(buf, img)
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	return w.data.ReadPage(id, buf)
}

// WritePage implements Pager. Inside a batch the write is journaled, not
// applied; outside one, queued batches are flushed first so the direct
// write cannot be overwritten by an older sealed image.
func (w *WALPager) WritePage(id PageID, buf []byte) error {
	for {
		w.mu.Lock()
		if w.depth > 0 {
			if int(id) >= w.numPages {
				n := w.numPages
				w.mu.Unlock()
				return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, n)
			}
			if len(buf) != w.data.PageSize() {
				ps := w.data.PageSize()
				w.mu.Unlock()
				return fmt.Errorf("storage: buffer size %d != page size %d", len(buf), ps)
			}
			img := make([]byte, len(buf))
			copy(img, buf)
			w.stage(id, img)
			w.mu.Unlock()
			return nil
		}
		if len(w.queue) == 0 {
			w.mu.Unlock()
			return w.data.WritePage(id, buf)
		}
		w.mu.Unlock()
		if err := w.FlushBarrier(); err != nil {
			return err
		}
	}
}

// Sync implements Pager. Inside a batch durability is deferred to Commit;
// outside one it first flushes any queued batches, so Sync remains a full
// durability barrier under asynchronous commits.
func (w *WALPager) Sync() error {
	w.mu.Lock()
	inBatch := w.depth > 0
	w.mu.Unlock()
	if inBatch {
		return nil
	}
	if err := w.FlushBarrier(); err != nil {
		return err
	}
	return w.data.Sync()
}

// Close implements Pager: it stops the flusher, flushes any sealed batches
// still queued (waking their waiters), discards an open batch (equivalent
// to a crash before commit), and closes both files. After a flush failure
// the queued batches are resolved with the failure instead — recovery on
// reopen decides their fate from the log.
func (w *WALPager) Close() error {
	w.stopFlusher()
	ferr := w.FlushBarrier()
	if ferr == nil {
		// Force the deferred checkpoint: a clean close leaves the sidecar
		// current and the log a bare header, so reopening redoes nothing.
		w.flushMu.Lock()
		ferr = w.checkpointLocked()
		w.flushMu.Unlock()
	}
	w.mu.Lock()
	w.discardLocked()
	w.mu.Unlock()
	lerr := w.log.Close()
	derr := w.data.Close()
	if ferr != nil && !errors.Is(ferr, errWALBroken) {
		return ferr
	}
	if derr != nil {
		return derr
	}
	return lerr
}

// Stats implements Pager. Batched writes are counted when they reach the
// data pager at flush, keeping the physical counters honest.
func (w *WALPager) Stats() IOStats { return w.data.Stats() }

// Begin opens an atomic update batch, or joins the enclosing one.
// Begin/Commit nest: only the outermost pair acts, so layered update entry
// points (securexml over dol over nok) compose into a single atomic batch.
// Batch building is single-owner: callers serialize Begin..Commit
// externally (securexml holds its write lock across them); concurrency
// comes from overlapping one batch's flush with the next batch's build
// (see groupcommit.go).
func (w *WALPager) Begin() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.depth++
	if w.depth == 1 {
		w.begins.Inc()
		w.pending = make(map[PageID][]byte)
		w.order = w.order[:0]
		w.meta = nil
		w.aborted = false
		w.numPages = w.queueTopLocked()
	}
	return nil
}

// Rollback abandons the batch. Inside a nesting it poisons the enclosing
// batch: the outermost Commit will fail and discard.
func (w *WALPager) Rollback() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.depth == 0 {
		return errors.New("storage: rollback without batch")
	}
	w.aborted = true
	w.depth--
	if w.depth == 0 {
		w.rollbacks.Inc()
		w.discardLocked()
	}
	return nil
}

// LastAbortDirty reports whether the most recent outermost rollback or
// failed flush threw away buffered page writes. When true, the caller's
// in-memory structures were built against state that never reached disk;
// the store must be reopened (recovery restores the pre-batch pages).
func (w *WALPager) LastAbortDirty() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastAbortDirty
}

// discardLocked drops the open batch. Caller holds w.mu.
func (w *WALPager) discardLocked() {
	w.lastAbortDirty = len(w.order) > 0
	w.pending = nil
	w.order = w.order[:0]
	w.meta = nil
	w.depth = 0
	w.aborted = false
	w.numPages = w.queueTopLocked()
}

// Commit ends the batch with synchronous durability: the outermost commit
// seals the batch, flushes the queue inline (coalescing whatever other
// batches are queued), and returns once its own batch is durable and
// applied. Nested commits only merge their metadata: meta, when non-nil, is
// an opaque blob stored with the commit record and delivered to the
// recovery sink, and the last non-nil meta wins. Both error returns of the
// flush resolve every queued batch, this one included, so the wait cannot
// hang; a failure in the flush tail, after the waiter resolved nil at the
// log sync, still surfaces through the flush's return.
func (w *WALPager) Commit(meta []byte) error {
	b, err := w.sealForCommit(meta)
	if err != nil || b == nil {
		return err
	}
	ferr := w.Flush()
	<-b.done
	if ferr != nil {
		return ferr
	}
	return b.err
}

// sealForCommit handles the shared Commit bookkeeping: nested commits merge
// meta and return (nil, nil); an empty outermost batch resolves in place;
// otherwise the batch is sealed onto the flush queue and returned.
func (w *WALPager) sealForCommit(meta []byte) (*sealedBatch, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.depth == 0 {
		return nil, errors.New("storage: commit without batch")
	}
	if meta != nil {
		w.meta = meta
	}
	if w.depth > 1 {
		w.depth--
		return nil, nil
	}
	if w.aborted {
		w.discardLocked()
		return nil, ErrBatchAborted
	}
	if w.broken != nil {
		w.discardLocked()
		w.lastAbortDirty = true
		return nil, fmt.Errorf("%w: %w", errWALBroken, w.broken)
	}
	if len(w.order) == 0 && w.meta == nil {
		w.depth = 0
		w.pending = nil
		w.lastAbortDirty = false
		w.commits.Inc()
		return nil, nil
	}
	w.seq++
	b := newSealedBatch(w.seq, w.numPages, w.order, w.pending, w.meta)
	w.queue = append(w.queue, b)
	w.depth = 0
	w.pending = nil
	w.order = nil
	w.meta = nil
	w.lastAbortDirty = false
	return b, nil
}

// ensureHeader writes the log header if the file is empty, and validates it
// otherwise. Caller holds w.flushMu (or is recovery, which runs before any
// concurrency exists).
func (w *WALPager) ensureHeader() error {
	size, err := w.log.Size()
	if err != nil {
		return err
	}
	if size >= walHeaderSize {
		return nil
	}
	if size != 0 {
		if err := w.log.Truncate(0); err != nil {
			return err
		}
	}
	hdr := make([]byte, walHeaderSize)
	copy(hdr, walMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], uint32(w.data.PageSize()))
	if _, err := w.log.Append(hdr); err != nil {
		return fmt.Errorf("storage: wal header: %w", err)
	}
	return nil
}

// appendRecord appends one framed record (payload already includes the
// type byte) plus its CRC32.
func (w *WALPager) appendRecord(rec []byte) error {
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(rec))
	if _, err := w.log.Append(append(rec, crc[:]...)); err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	w.logAppends.Inc()
	w.logBytes.Add(int64(len(rec) + 4))
	return nil
}

// applyImages materializes committed after-images in the data pager:
// allocate up to finalPages, write every image, sync. Used both by the
// flush protocol (with the group's merged images) and by recovery redo. A
// group that writes and allocates nothing (a subject or membership update
// changes only the metadata) leaves the data pager alone and syncs nothing.
func (w *WALPager) applyImages(finalPages int, order []PageID, images map[PageID][]byte) error {
	if len(order) == 0 && w.data.NumPages() >= finalPages {
		return nil
	}
	for w.data.NumPages() < finalPages {
		if _, err := w.data.Allocate(); err != nil {
			return fmt.Errorf("storage: wal apply allocate: %w", err)
		}
	}
	for _, id := range order {
		if err := w.data.WritePage(id, images[id]); err != nil {
			return fmt.Errorf("storage: wal apply: %w", err)
		}
	}
	w.fsyncs.Inc()
	if err := w.data.Sync(); err != nil {
		return fmt.Errorf("storage: wal apply sync: %w", err)
	}
	return nil
}

// RegisterMetrics registers the WAL protocol counters with reg under
// prefix (prefix "wal" yields wal_begins, wal_commits, …), plus the
// group-commit observability: wal_group_size (batches coalesced per
// flush), wal_pending_batches (sealed batches awaiting flush) and
// commit_wait_us (seal-to-durable latency per batch).
func (w *WALPager) RegisterMetrics(reg *obs.Registry, prefix string) error {
	for _, m := range []struct {
		name, help string
		c          *obs.Counter
	}{
		{"begins", "Transactions begun against the WAL.", &w.begins},
		{"commits", "Transactions committed durably.", &w.commits},
		{"rollbacks", "Transactions rolled back.", &w.rollbacks},
		{"fsyncs", "fsync calls issued by the WAL.", &w.fsyncs},
		{"log_appends", "Records appended to the log.", &w.logAppends},
		{"log_bytes", "Bytes appended to the log.", &w.logBytes},
	} {
		if err := reg.RegisterCounter(prefix+"_"+m.name, m.c); err != nil {
			return err
		}
		reg.SetHelp(prefix+"_"+m.name, m.help)
	}
	if err := reg.RegisterHistogram(prefix+"_group_size", &w.groupSize); err != nil {
		return err
	}
	reg.SetHelp(prefix+"_group_size", "Commit batches coalesced per group flush.")
	if err := reg.RegisterGauge(prefix+"_pending_batches", func() int64 {
		return int64(w.PendingBatches())
	}); err != nil {
		return err
	}
	reg.SetHelp(prefix+"_pending_batches", "Sealed commit batches awaiting flush.")
	if err := reg.RegisterHistogram("commit_wait_us", &w.commitWait); err != nil {
		return err
	}
	reg.SetHelp("commit_wait_us", "Seal-to-durable commit latency in microseconds.")
	return nil
}

func encodeBegin(seq uint64, basePages int) []byte {
	b := make([]byte, 13)
	b[0] = walRecBegin
	binary.LittleEndian.PutUint64(b[1:], seq)
	binary.LittleEndian.PutUint32(b[9:], uint32(basePages))
	return b
}

func encodePage(id PageID, data []byte) []byte {
	b := make([]byte, 5+len(data))
	b[0] = walRecPage
	binary.LittleEndian.PutUint32(b[1:], uint32(id))
	copy(b[5:], data)
	return b
}

func encodeMeta(meta []byte) []byte {
	b := make([]byte, 5+len(meta))
	b[0] = walRecMeta
	binary.LittleEndian.PutUint32(b[1:], uint32(len(meta)))
	copy(b[5:], meta)
	return b
}

func encodeMetaDelta(prefixLen int, suffix []byte) []byte {
	b := make([]byte, 9+len(suffix))
	b[0] = walRecMetaDelta
	binary.LittleEndian.PutUint32(b[1:], uint32(prefixLen))
	binary.LittleEndian.PutUint32(b[5:], uint32(len(suffix)))
	copy(b[9:], suffix)
	return b
}

// encodeMetaRecord picks the meta encoding for a batch: a delta against the
// previous meta record in the same log when the shared prefix is worth it,
// the full blob otherwise. prev must be the blob of the log's most recent
// meta record (nil if none) — recovery reconstructs deltas against exactly
// that chain.
func encodeMetaRecord(prev, meta []byte) []byte {
	p := 0
	for p < len(prev) && p < len(meta) && prev[p] == meta[p] {
		p++
	}
	if p < 16 {
		return encodeMeta(meta)
	}
	return encodeMetaDelta(p, meta[p:])
}

func encodeCommit(seq uint64, finalPages, frames int) []byte {
	b := make([]byte, 17)
	b[0] = walRecCommit
	binary.LittleEndian.PutUint32(b[9:], uint32(finalPages))
	binary.LittleEndian.PutUint64(b[1:], seq)
	binary.LittleEndian.PutUint32(b[13:], uint32(frames))
	return b
}

func encodeCheckpoint(seq uint64) []byte {
	b := make([]byte, 9)
	b[0] = walRecCheckpoint
	binary.LittleEndian.PutUint64(b[1:], seq)
	return b
}

// walBatch is one parsed batch during recovery.
type walBatch struct {
	seq          uint64
	finalPages   int
	order        []PageID
	images       map[PageID][]byte
	meta         []byte
	committed    bool
	checkpointed bool
}

// recover scans the log, redoes committed-but-unapplied batches, discards
// torn or uncommitted tails, and truncates the log to its header (where it
// holds more than that).
func (w *WALPager) recover() (RecoveryInfo, error) {
	var info RecoveryInfo
	size, err := w.log.Size()
	if err != nil {
		return info, err
	}
	if size < walHeaderSize {
		// Fresh (or unusable-short) log: reset to a bare header.
		if size != 0 {
			info.Discarded = true
		}
		if err := w.log.Truncate(0); err != nil {
			return info, err
		}
		return info, w.ensureHeader()
	}
	buf := make([]byte, size)
	if _, err := w.log.ReadAt(buf, 0); err != nil {
		return info, fmt.Errorf("storage: wal read: %w", err)
	}
	if [8]byte(buf[:8]) != walMagic {
		return info, fmt.Errorf("storage: wal bad magic %q", buf[:8])
	}
	if ps := int(binary.LittleEndian.Uint32(buf[8:12])); ps != w.data.PageSize() {
		return info, fmt.Errorf("storage: wal page size %d, data pager has %d", ps, w.data.PageSize())
	}
	if size == walHeaderSize {
		// A cleanly closed store's log: nothing to redo, discard, truncate
		// or sync.
		return info, nil
	}
	batches, tail := parseWAL(buf[walHeaderSize:], w.data.PageSize())
	info.Discarded = tail
	// pendingMeta tracks the newest committed metadata blob whose sidecar
	// delivery may still be outstanding: background flushes defer sidecar
	// writes (see checkpointLocked), so a checkpointed batch's blob can be
	// newer than the sidecar on disk even though its pages need no redo.
	// Redelivering is safe — the sink is idempotent — and required before
	// this truncation discards the only durable copy.
	var pendingMeta []byte
	for _, b := range batches {
		if b.seq > w.seq {
			w.seq = b.seq
		}
		if !b.committed {
			info.Discarded = true
			continue
		}
		if b.meta != nil {
			pendingMeta = b.meta
		}
		if b.checkpointed {
			continue
		}
		if err := w.applyImages(b.finalPages, b.order, b.images); err != nil {
			return info, fmt.Errorf("storage: wal redo batch %d: %w", b.seq, err)
		}
		w.numPages = w.data.NumPages()
		if w.sink != nil && b.meta != nil {
			if err := w.sink(b.meta); err != nil {
				return info, fmt.Errorf("storage: wal redo meta sink: %w", err)
			}
			info.MetaApplied = true
			pendingMeta = nil
		}
		info.Redone++
	}
	if w.sink != nil && pendingMeta != nil {
		if err := w.sink(pendingMeta); err != nil {
			return info, fmt.Errorf("storage: wal recovered meta sink: %w", err)
		}
		info.MetaApplied = true
	}
	if err := w.log.Truncate(walHeaderSize); err != nil {
		return info, err
	}
	if err := w.log.Sync(); err != nil {
		return info, err
	}
	return info, nil
}

// parseWAL splits the record region into batches. It stops at the first
// malformed or CRC-corrupt record; tail reports whether such a stop dropped
// bytes (a torn log).
func parseWAL(b []byte, pageSize int) (batches []*walBatch, tail bool) {
	var cur *walBatch
	// prevMeta is the blob of the most recent meta record, the base of the
	// delta chain. Records are strictly sequential and parsing stops at the
	// first bad record, so any delta reached here has its whole base chain
	// already parsed — a torn tail can never orphan a delta.
	var prevMeta []byte
	for len(b) > 0 {
		rec, rest, ok := nextRecord(b, pageSize)
		if !ok {
			return batches, true
		}
		b = rest
		switch rec[0] {
		case walRecBegin:
			cur = &walBatch{
				seq:    binary.LittleEndian.Uint64(rec[1:]),
				images: make(map[PageID][]byte),
			}
			batches = append(batches, cur)
		case walRecPage:
			if cur == nil || cur.committed {
				return batches, true
			}
			id := PageID(binary.LittleEndian.Uint32(rec[1:]))
			img := append([]byte(nil), rec[5:]...)
			if _, ok := cur.images[id]; !ok {
				cur.order = append(cur.order, id)
			}
			cur.images[id] = img
		case walRecMeta:
			if cur == nil || cur.committed {
				return batches, true
			}
			cur.meta = append([]byte(nil), rec[5:]...)
			prevMeta = cur.meta
		case walRecMetaDelta:
			p := int(binary.LittleEndian.Uint32(rec[1:]))
			if cur == nil || cur.committed || p > len(prevMeta) {
				return batches, true
			}
			meta := make([]byte, p+len(rec[9:]))
			copy(meta, prevMeta[:p])
			copy(meta[p:], rec[9:])
			cur.meta = meta
			prevMeta = meta
		case walRecCommit:
			if cur == nil || cur.committed ||
				binary.LittleEndian.Uint64(rec[1:]) != cur.seq ||
				int(binary.LittleEndian.Uint32(rec[13:])) != len(cur.order) {
				return batches, true
			}
			cur.finalPages = int(binary.LittleEndian.Uint32(rec[9:]))
			cur.committed = true
		case walRecCheckpoint:
			// A group flush writes one checkpoint covering every batch it
			// applied: seq S marks all committed batches up to S. A lone
			// batch is the degenerate group of one.
			seq := binary.LittleEndian.Uint64(rec[1:])
			covered := false
			for _, cb := range batches {
				if cb.committed && cb.seq <= seq {
					cb.checkpointed = true
					if cb.seq == seq {
						covered = true
					}
				}
			}
			if !covered {
				return batches, true
			}
		default:
			return batches, true
		}
	}
	return batches, false
}

// nextRecord slices one CRC-validated record (without its CRC) off b.
func nextRecord(b []byte, pageSize int) (rec, rest []byte, ok bool) {
	if len(b) < 1 {
		return nil, nil, false
	}
	var n int // record length excluding CRC
	switch b[0] {
	case walRecBegin:
		n = 13
	case walRecPage:
		n = 5 + pageSize
	case walRecMeta:
		if len(b) < 5 {
			return nil, nil, false
		}
		n = 5 + int(binary.LittleEndian.Uint32(b[1:]))
	case walRecMetaDelta:
		if len(b) < 9 {
			return nil, nil, false
		}
		n = 9 + int(binary.LittleEndian.Uint32(b[5:]))
	case walRecCommit:
		n = 17
	case walRecCheckpoint:
		n = 9
	default:
		return nil, nil, false
	}
	if n < 0 || len(b) < n+4 {
		return nil, nil, false
	}
	if crc32.ChecksumIEEE(b[:n]) != binary.LittleEndian.Uint32(b[n:]) {
		return nil, nil, false
	}
	return b[:n], b[n+4:], true
}
