package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// pageBytes builds a page-sized buffer whose first bytes spell out a marker.
func pageBytes(size int, marker byte) []byte {
	b := make([]byte, size)
	for i := 0; i < 8; i++ {
		b[i] = marker
	}
	return b
}

func readPageOrFatal(t *testing.T, p Pager, id PageID) []byte {
	t.Helper()
	buf := make([]byte, p.PageSize())
	if err := p.ReadPage(id, buf); err != nil {
		t.Fatalf("read page %d: %v", id, err)
	}
	return buf
}

func newMemWAL(t *testing.T) (*WALPager, *MemPager, *MemFile) {
	t.Helper()
	mem := NewMemPager(128)
	log := NewMemFile()
	w, _, err := OpenWALPager(mem, log, nil)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	return w, mem, log
}

func TestWALPassthroughOutsideBatch(t *testing.T) {
	w, mem, _ := newMemWAL(t)
	id, err := w.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePage(id, pageBytes(128, 'a')); err != nil {
		t.Fatal(err)
	}
	if got := readPageOrFatal(t, mem, id); got[0] != 'a' {
		t.Fatalf("write did not pass through: %q", got[0])
	}
}

func TestWALCommitAppliesBatch(t *testing.T) {
	w, mem, log := newMemWAL(t)
	base, _ := w.Allocate()
	if err := w.WritePage(base, pageBytes(128, 'a')); err != nil {
		t.Fatal(err)
	}

	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePage(base, pageBytes(128, 'b')); err != nil {
		t.Fatal(err)
	}
	grown, err := w.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePage(grown, pageBytes(128, 'c')); err != nil {
		t.Fatal(err)
	}
	// Batch-local reads see the batch; the data pager does not.
	if got := readPageOrFatal(t, w, base); got[0] != 'b' {
		t.Fatalf("batch read = %q, want b", got[0])
	}
	if got := readPageOrFatal(t, mem, base); got[0] != 'a' {
		t.Fatalf("data pager leaked batch write: %q", got[0])
	}
	if mem.NumPages() != 1 {
		t.Fatalf("allocation leaked into data pager: %d pages", mem.NumPages())
	}
	if w.NumPages() != 2 {
		t.Fatalf("logical NumPages = %d, want 2", w.NumPages())
	}

	if err := w.Commit([]byte("meta-blob")); err != nil {
		t.Fatal(err)
	}
	if got := readPageOrFatal(t, mem, base); got[0] != 'b' {
		t.Fatalf("commit did not apply: %q", got[0])
	}
	if got := readPageOrFatal(t, mem, grown); got[0] != 'c' {
		t.Fatalf("commit did not materialize allocation: %q", got[0])
	}
	if sz, _ := log.Size(); sz != walHeaderSize {
		t.Fatalf("log not truncated after checkpoint: %d bytes", sz)
	}
}

func TestWALRollbackDiscards(t *testing.T) {
	w, mem, _ := newMemWAL(t)
	id, _ := w.Allocate()
	if err := w.WritePage(id, pageBytes(128, 'a')); err != nil {
		t.Fatal(err)
	}
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePage(id, pageBytes(128, 'x')); err != nil {
		t.Fatal(err)
	}
	if err := w.Rollback(); err != nil {
		t.Fatal(err)
	}
	if !w.LastAbortDirty() {
		t.Fatal("rollback with writes should report dirty")
	}
	if got := readPageOrFatal(t, mem, id); got[0] != 'a' {
		t.Fatalf("rollback leaked: %q", got[0])
	}
	// A clean (write-free) rollback is not dirty.
	w.Begin()
	w.Rollback()
	if w.LastAbortDirty() {
		t.Fatal("write-free rollback should not be dirty")
	}
}

func TestWALNestedBatches(t *testing.T) {
	w, mem, _ := newMemWAL(t)
	id, _ := w.Allocate()
	w.Begin()
	w.Begin() // inner
	if err := w.WritePage(id, pageBytes(128, 'n')); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(nil); err != nil {
		t.Fatal(err) // inner commit: no effect yet
	}
	if got := readPageOrFatal(t, mem, id); got[0] == 'n' {
		t.Fatal("inner commit applied early")
	}
	if err := w.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if got := readPageOrFatal(t, mem, id); got[0] != 'n' {
		t.Fatalf("outer commit did not apply: %q", got[0])
	}
}

func TestWALInnerRollbackPoisonsOuterCommit(t *testing.T) {
	w, mem, _ := newMemWAL(t)
	id, _ := w.Allocate()
	w.Begin()
	if err := w.WritePage(id, pageBytes(128, 'p')); err != nil {
		t.Fatal(err)
	}
	w.Begin()
	if err := w.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(nil); !errors.Is(err, ErrBatchAborted) {
		t.Fatalf("outer commit after inner rollback: %v, want ErrBatchAborted", err)
	}
	if got := readPageOrFatal(t, mem, id); got[0] == 'p' {
		t.Fatal("aborted batch leaked")
	}
}

// TestWALRecoveryRedo simulates a crash after the commit record became
// durable but before the data pages were written: recovery must redo the
// batch from the log.
func TestWALRecoveryRedo(t *testing.T) {
	mem := NewMemPager(128)
	log := NewMemFile()
	fp := NewFaultPager(mem)
	w, _, err := OpenWALPager(fp, log, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := w.Allocate()
	if err := w.WritePage(id, pageBytes(128, 'a')); err != nil {
		t.Fatal(err)
	}
	// Crash at the first data write of the apply phase (Arm resets the
	// counters, so the pre-batch write above is not counted).
	fp.Arm(Fault{Op: FaultWrite, N: 1})
	w.Begin()
	if err := w.WritePage(id, pageBytes(128, 'z')); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit([]byte("m")); !errors.Is(err, ErrInjected) {
		t.Fatalf("commit survived injected apply failure: %v", err)
	}
	if !w.LastAbortDirty() {
		t.Fatal("failed commit must report dirty")
	}

	// Reopen "the disk": same MemPager and MemFile, fresh handles.
	var sunk []byte
	w2, info, err := OpenWALPager(mem, log, func(m []byte) error {
		sunk = append([]byte(nil), m...)
		return nil
	})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if info.Redone != 1 {
		t.Fatalf("Redone = %d, want 1", info.Redone)
	}
	if !info.MetaApplied || !bytes.Equal(sunk, []byte("m")) {
		t.Fatalf("meta not redelivered: applied=%v sunk=%q", info.MetaApplied, sunk)
	}
	if got := readPageOrFatal(t, w2, id); got[0] != 'z' {
		t.Fatalf("redo lost the committed image: %q", got[0])
	}
}

// TestWALRecoveryDiscardsUncommitted simulates a crash before the commit
// record: the log holds a torn batch, the data pager the pre-state.
func TestWALRecoveryDiscardsUncommitted(t *testing.T) {
	mem := NewMemPager(128)
	log := NewMemFile()
	ff := NewFaultFile(log)
	w, _, err := OpenWALPager(mem, ff, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := w.Allocate()
	if err := w.WritePage(id, pageBytes(128, 'a')); err != nil {
		t.Fatal(err)
	}
	// Tear the page frame append (header=1, begin=2, page=3).
	ff.Arm(Fault{Op: FaultWrite, N: 3, Torn: true})
	w.Begin()
	if err := w.WritePage(id, pageBytes(128, 'z')); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("commit survived torn log: %v", err)
	}

	w2, info, err := OpenWALPager(mem, log, nil)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if info.Redone != 0 {
		t.Fatalf("redid a batch that never committed")
	}
	if !info.Discarded {
		t.Fatal("torn tail not reported as discarded")
	}
	if got := readPageOrFatal(t, w2, id); got[0] != 'a' {
		t.Fatalf("pre-state lost: %q", got[0])
	}
}

// TestWALRecoveryEveryLogPrefix replays a crash at every byte length of the
// log produced by one committed batch: any prefix short of the commit
// record must recover to the pre-state, any prefix including it to the
// post-state. This is the torn-log exhaustiveness check.
func TestWALRecoveryEveryLogPrefix(t *testing.T) {
	// First, produce a full pre-truncation log image by crashing just
	// before the apply phase (data write #1).
	build := func() (*MemPager, []byte, int) {
		mem := NewMemPager(128)
		log := NewMemFile()
		fp := NewFaultPager(mem)
		w, _, err := OpenWALPager(fp, log, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := w.Allocate()
		b, _ := w.Allocate()
		w.WritePage(a, pageBytes(128, 'a'))
		w.WritePage(b, pageBytes(128, 'b'))
		fp.Arm(Fault{Op: FaultWrite, N: 1})
		w.Begin()
		w.WritePage(a, pageBytes(128, 'A'))
		w.WritePage(b, pageBytes(128, 'B'))
		if err := w.Commit(nil); !errors.Is(err, ErrInjected) {
			t.Fatalf("commit: %v", err)
		}
		full := log.Bytes()
		// Commit-record boundary: everything except the trailing
		// commit record (17+4 bytes) is "before commit".
		return mem, full, len(full) - (17 + 4)
	}

	_, full, commitStart := build()
	for cut := 0; cut <= len(full); cut++ {
		mem, fullNow, _ := build()
		log := NewMemFile()
		log.SetBytes(fullNow[:cut])
		w, _, err := OpenWALPager(mem, log, nil)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		pa := readPageOrFatal(t, w, 0)[0]
		pb := readPageOrFatal(t, w, 1)[0]
		wantPre := cut < commitStart+17+4
		switch {
		case wantPre && (pa != 'a' || pb != 'b'):
			t.Fatalf("cut %d: want pre-state, got %c%c", cut, pa, pb)
		case !wantPre && (pa != 'A' || pb != 'B'):
			t.Fatalf("cut %d: want post-state, got %c%c", cut, pa, pb)
		}
		if sz, _ := log.Size(); sz != walHeaderSize {
			t.Fatalf("cut %d: log not reset (size %d)", cut, sz)
		}
	}
}

// TestWALRecoveryCorruptedCommitCRC flips a byte inside the commit record:
// the batch must be discarded, not half-applied.
func TestWALRecoveryCorruptedCommitCRC(t *testing.T) {
	mem := NewMemPager(128)
	log := NewMemFile()
	fp := NewFaultPager(mem)
	w, _, err := OpenWALPager(fp, log, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := w.Allocate()
	w.WritePage(id, pageBytes(128, 'a'))
	fp.Arm(Fault{Op: FaultWrite, N: 1})
	w.Begin()
	w.WritePage(id, pageBytes(128, 'z'))
	if err := w.Commit(nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("commit: %v", err)
	}
	img := log.Bytes()
	img[len(img)-6] ^= 0xff // inside the commit record payload/CRC
	log.SetBytes(img)
	w2, info, err := OpenWALPager(mem, log, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Redone != 0 {
		t.Fatal("redid a batch with a corrupt commit record")
	}
	if got := readPageOrFatal(t, w2, id); got[0] != 'a' {
		t.Fatalf("pre-state lost: %q", got[0])
	}
}

// TestWALFilePair runs the commit + recovery protocol over real files.
func TestWALFilePair(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "pages.db")
	walPath := filepath.Join(dir, "wal.log")

	open := func() (*WALPager, *FaultPager) {
		fp, err := OpenFilePager(dataPath, 256)
		if err != nil {
			t.Fatal(err)
		}
		lf, err := OpenOSFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		faults := NewFaultPager(fp)
		w, _, err := OpenWALPager(faults, lf, nil)
		if err != nil {
			t.Fatal(err)
		}
		return w, faults
	}

	w, faults := open()
	id, _ := w.Allocate()
	if err := w.WritePage(id, pageBytes(256, 'a')); err != nil {
		t.Fatal(err)
	}
	w.Begin()
	if err := w.WritePage(id, pageBytes(256, 'b')); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(nil); err != nil {
		t.Fatal(err)
	}
	// The checkpoint truncated the log; the next batch is appended after
	// its header and, crashed at its data write, redone from it.
	faults.Arm(Fault{Op: FaultWrite, N: 1})
	w.Begin()
	if err := w.WritePage(id, pageBytes(256, 'c')); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("commit survived injected apply failure: %v", err)
	}
	w.Close()

	w, _ = open()
	defer w.Close()
	if got := readPageOrFatal(t, w, id); got[0] != 'c' {
		t.Fatalf("reopened page = %q, want c", got[0])
	}
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != walHeaderSize {
		t.Fatalf("wal file size %d, want bare header %d", info.Size(), walHeaderSize)
	}
}

// TestFilePagerShortWriteContext checks that torn-write errors carry the
// page ID and byte offset.
func TestFilePagerShortWriteContext(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenFilePager(filepath.Join(dir, "p.db"), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	err = p.WritePage(7, make([]byte, 512))
	if err == nil {
		t.Fatal("out-of-range write succeeded")
	}
	if want := "write 7 of 1"; !errors.Is(err, ErrPageOutOfRange) || !contains(err.Error(), want) {
		t.Fatalf("error %q lacks context %q", err, want)
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// TestWALMetaDeltaChain seals a group whose batches carry large, mostly-
// identical metadata blobs, crashes the flush after the log sync (the
// group's durability point), and checks that recovery reconstructs every
// batch's exact blob from the delta chain. It also asserts the chain was
// actually used: the journaled group must be far smaller than the sum of
// its blobs, and the log must hold exactly one full meta record.
func TestWALMetaDeltaChain(t *testing.T) {
	mem := NewMemPager(128)
	log := NewMemFile()
	fp := NewFaultPager(mem)
	ff := NewFaultFile(log)
	w, _, err := OpenWALPager(fp, ff, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Allocate(); err != nil {
		t.Fatal(err)
	}

	head := bytes.Repeat([]byte{'h'}, 4096)
	metas := [][]byte{
		append(append([]byte(nil), head...), []byte("-one")...),
		append(append([]byte(nil), head...), []byte("-two-longer")...),
		append(append([]byte(nil), head...), []byte("-3")...), // shrinks
	}
	w.HoldFlushes()
	for i, m := range metas {
		if err := w.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := w.WritePage(0, pageBytes(128, byte('A'+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := w.SealCommit(m); err != nil {
			t.Fatal(err)
		}
		w.ScheduleFlush()
	}
	// Crash at the data sync: the log holds the whole journaled group.
	fp.Arm(Fault{Op: FaultSync, N: 1})
	if err := w.ReleaseFlushes(); !errors.Is(err, ErrInjected) {
		t.Fatalf("ReleaseFlushes = %v, want injected fault", err)
	}

	raw := log.Bytes()
	var total int
	for _, m := range metas {
		total += len(m)
	}
	if len(raw) > total {
		t.Fatalf("log holds %d bytes, delta chain should keep it under the %d bytes of raw metas", len(raw), total)
	}
	full, delta := 0, 0
	for b := raw[walHeaderSize:]; len(b) > 0; {
		rec, rest, ok := nextRecord(b, 128)
		if !ok {
			t.Fatalf("unparseable record at tail of %d bytes", len(b))
		}
		switch rec[0] {
		case walRecMeta:
			full++
		case walRecMetaDelta:
			delta++
		}
		b = rest
	}
	if full != 1 || delta != 2 {
		t.Fatalf("log holds %d full + %d delta meta records, want 1 + 2", full, delta)
	}

	// Recovery must redo all three batches and hand the sink each batch's
	// exact blob, reconstructed through the chain.
	var delivered [][]byte
	sink := func(m []byte) error {
		delivered = append(delivered, append([]byte(nil), m...))
		return nil
	}
	w2, info, err := OpenWALPager(mem, log, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Redone != len(metas) {
		t.Fatalf("Redone = %d, want %d", info.Redone, len(metas))
	}
	if len(delivered) != len(metas) {
		t.Fatalf("sink got %d blobs, want %d", len(delivered), len(metas))
	}
	for i, m := range metas {
		if !bytes.Equal(delivered[i], m) {
			t.Fatalf("batch %d meta reconstructed wrong: %d bytes vs %d", i, len(delivered[i]), len(m))
		}
	}
	if got := readPageOrFatal(t, mem, 0); got[0] != 'C' {
		t.Fatalf("page 0 = %q after redo, want 'C'", got[0])
	}
}

// TestWALMetaDeltaWithoutBase feeds parseWAL a delta record with no meta
// record before it: the record region is malformed and must be treated as a
// torn tail, not reconstructed from garbage.
func TestWALMetaDeltaWithoutBase(t *testing.T) {
	var region []byte
	addRec := func(rec []byte) {
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(rec))
		region = append(region, rec...)
		region = append(region, crc[:]...)
	}
	addRec(encodeBegin(1, 0))
	addRec(encodeMetaDelta(10, []byte("suffix")))
	addRec(encodeCommit(1, 0, 0))
	batches, tail := parseWAL(region, 128)
	if !tail {
		t.Fatal("orphan delta accepted, want torn tail")
	}
	for _, b := range batches {
		if b.committed {
			t.Fatal("batch after orphan delta parsed as committed")
		}
	}
}

// TestWALLazyCheckpointDeferral pins the background flusher's deferred
// checkpoint: lazy flushes leave checkpointed batches in the log and hold
// the sidecar back (amortizing its fsyncs), the meta delta chain continues
// across those flushes, crash recovery redelivers the newest committed
// blob even though no batch needs redo, and both the size threshold and
// Close force the checkpoint eagerly.
func TestWALLazyCheckpointDeferral(t *testing.T) {
	mem := NewMemPager(128)
	log := NewMemFile()
	var delivered [][]byte
	sink := func(m []byte) error {
		delivered = append(delivered, append([]byte(nil), m...))
		return nil
	}
	w, _, err := OpenWALPager(mem, log, sink)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := w.Allocate()
	if err := w.WritePage(id, pageBytes(128, 'a')); err != nil {
		t.Fatal(err)
	}

	head := bytes.Repeat([]byte{'H'}, 64)
	meta := func(tail string) []byte { return append(append([]byte(nil), head...), tail...) }
	lazyCommit := func(marker byte, m []byte) {
		t.Helper()
		if err := w.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := w.WritePage(id, pageBytes(128, marker)); err != nil {
			t.Fatal(err)
		}
		cw, err := w.SealCommit(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.flushGroup(true); err != nil {
			t.Fatal(err)
		}
		if err := cw.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	lazyCommit('b', meta("one"))
	sz1, _ := log.Size()
	if sz1 <= walHeaderSize {
		t.Fatalf("lazy flush truncated the log eagerly (size %d)", sz1)
	}
	if len(delivered) != 0 {
		t.Fatalf("lazy flush delivered the sidecar eagerly: %d blobs", len(delivered))
	}
	if got := readPageOrFatal(t, mem, id); got[0] != 'b' {
		t.Fatalf("lazy flush did not apply: %q", got[0])
	}

	lazyCommit('c', meta("two!"))
	sz2, _ := log.Size()
	if sz2 <= sz1 {
		t.Fatalf("second lazy flush did not append to the retained log (%d -> %d)", sz1, sz2)
	}
	if len(delivered) != 0 {
		t.Fatalf("second lazy flush delivered the sidecar: %d blobs", len(delivered))
	}
	// The second flush's meta must delta-chain against the first flush's
	// record, which is still in the log: exactly one full blob overall.
	raw := log.Bytes()
	fulls, deltas := 0, 0
	for b := raw[walHeaderSize:]; len(b) > 0; {
		rec, rest, ok := nextRecord(b, 128)
		if !ok {
			t.Fatal("log scan hit a bad record")
		}
		switch rec[0] {
		case walRecMeta:
			fulls++
		case walRecMetaDelta:
			deltas++
		}
		b = rest
	}
	if fulls != 1 || deltas != 1 {
		t.Fatalf("meta records across lazy flushes = %d full + %d delta, want 1 + 1", fulls, deltas)
	}

	// Crash (no Close): recovery must redo nothing — both batches are
	// checkpointed — but still deliver the newest blob, whose deferred
	// sidecar write never happened.
	var recovered [][]byte
	w2, info, err := OpenWALPager(mem, log, func(m []byte) error {
		recovered = append(recovered, append([]byte(nil), m...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Redone != 0 {
		t.Fatalf("recovery redid %d checkpointed batches", info.Redone)
	}
	if !info.MetaApplied {
		t.Fatal("recovery did not report the redelivered metadata")
	}
	if len(recovered) != 1 || !bytes.Equal(recovered[0], meta("two!")) {
		t.Fatalf("recovery delivered %d blobs, want exactly the newest", len(recovered))
	}
	if sz, _ := log.Size(); sz != walHeaderSize {
		t.Fatalf("recovery left the log at %d bytes", sz)
	}

	// A lazy flush that pushes the log past walTruncateThreshold must
	// checkpoint inline: sidecar delivered, log reset.
	recovered = recovered[:0]
	big := append(meta("three"), bytes.Repeat([]byte{'x'}, walTruncateThreshold)...)
	if err := w2.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := w2.WritePage(id, pageBytes(128, 'd')); err != nil {
		t.Fatal(err)
	}
	cw, err := w2.SealCommit(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.flushGroup(true); err != nil {
		t.Fatal(err)
	}
	if err := cw.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || !bytes.Equal(recovered[0], big) {
		t.Fatalf("threshold crossing delivered %d blobs", len(recovered))
	}
	if sz, _ := log.Size(); sz != walHeaderSize {
		t.Fatalf("threshold crossing left the log at %d bytes", sz)
	}

	// Close after one more deferred flush forces the final checkpoint.
	lazySecond := func() {
		if err := w2.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := w2.WritePage(id, pageBytes(128, 'e')); err != nil {
			t.Fatal(err)
		}
		cw, err := w2.SealCommit(meta("four"))
		if err != nil {
			t.Fatal(err)
		}
		if err := w2.flushGroup(true); err != nil {
			t.Fatal(err)
		}
		if err := cw.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	lazySecond()
	if len(recovered) != 1 {
		t.Fatalf("deferred flush after threshold delivered early: %d blobs", len(recovered))
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 || !bytes.Equal(recovered[1], meta("four")) {
		t.Fatalf("Close delivered %d blobs, want the deferred one", len(recovered))
	}
	if sz, _ := log.Size(); sz != walHeaderSize {
		t.Fatalf("Close left the log at %d bytes", sz)
	}
}
