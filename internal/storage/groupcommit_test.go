package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// groupFixture builds K sealed single-page batches under a flush hold: page
// i holds 'A'+i after batch i commits, 'a'+i before the run (page images
// are staged by a pre-batch pass so every batch overwrites existing data).
// The WAL sits on fault-wrapped handles so crash points can be enumerated.
func groupFixture(t *testing.T, k int) (*WALPager, *MemPager, *MemFile, *FaultFile, *FaultPager, []*CommitWaiter) {
	t.Helper()
	mem := NewMemPager(128)
	log := NewMemFile()
	fp := NewFaultPager(mem)
	ff := NewFaultFile(log)
	w, _, err := OpenWALPager(fp, ff, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		id, _ := w.Allocate()
		if err := w.WritePage(id, pageBytes(128, byte('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	w.HoldFlushes()
	waiters := make([]*CommitWaiter, k)
	for i := 0; i < k; i++ {
		if err := w.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := w.WritePage(PageID(i), pageBytes(128, byte('A'+i))); err != nil {
			t.Fatal(err)
		}
		cw, err := w.SealCommit(nil)
		if err != nil {
			t.Fatal(err)
		}
		w.ScheduleFlush()
		waiters[i] = cw
	}
	return w, mem, log, ff, fp, waiters
}

// TestGroupCommitCoalesces checks the core bargain: K batches sealed while
// flushing is held share one flush — 2 log syncs + 1 data sync total — and
// every waiter resolves durable.
func TestGroupCommitCoalesces(t *testing.T) {
	const k = 4
	w, mem, log, ff, fp, waiters := groupFixture(t, k)
	if got := w.PendingBatches(); got != k {
		t.Fatalf("PendingBatches = %d, want %d", got, k)
	}
	for _, cw := range waiters {
		select {
		case <-cw.Done():
			t.Fatal("waiter resolved before flush")
		default:
		}
	}
	// Sealed-but-unflushed pages must already be visible through the pager
	// while the data pager still holds the pre-state.
	for i := 0; i < k; i++ {
		if got := readPageOrFatal(t, w, PageID(i))[0]; got != byte('A'+i) {
			t.Fatalf("overlay read page %d = %c, want %c", i, got, 'A'+i)
		}
		var buf [128]byte
		if err := mem.ReadPage(PageID(i), buf[:]); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte('a'+i) {
			t.Fatalf("data pager page %d mutated before flush: %c", i, buf[0])
		}
	}
	ff.Arm(Fault{}) // reset counters, no fault
	fp.Arm(Fault{})
	if err := w.ReleaseFlushes(); err != nil {
		t.Fatal(err)
	}
	for i, cw := range waiters {
		if err := cw.Wait(); err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if got := w.PendingBatches(); got != 0 {
		t.Fatalf("PendingBatches after flush = %d", got)
	}
	// One group flush: log sync (commits) + checkpoint sync; one data sync.
	if _, syncs, _ := ff.Counts(); syncs != 2 {
		t.Fatalf("log syncs = %d, want 2 for the whole group", syncs)
	}
	if _, syncs, _ := fp.Counts(); syncs != 1 {
		t.Fatalf("data syncs = %d, want 1 for the whole group", syncs)
	}
	for i := 0; i < k; i++ {
		var buf [128]byte
		if err := mem.ReadPage(PageID(i), buf[:]); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte('A'+i) {
			t.Fatalf("page %d not applied: %c", i, buf[0])
		}
	}
	if sz, _ := log.Size(); sz != walHeaderSize {
		t.Fatalf("log not truncated after group flush: %d", sz)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitPrefixRecovery enumerates every crash point inside a
// 3-batch group flush — each log append (clean and torn), each log sync,
// each data write, the data sync — and checks the reopened store holds an
// exact prefix of the group: batches 0..j-1 applied, j..2 rolled back, for
// some j. Interior tearing (batch 1 applied without batch 0) must never
// happen.
func TestGroupCommitPrefixRecovery(t *testing.T) {
	const k = 3
	// Clean pass to count the flush's operations.
	w, _, _, ff, fp, _ := groupFixture(t, k)
	ff.Arm(Fault{})
	fp.Arm(Fault{})
	if err := w.ReleaseFlushes(); err != nil {
		t.Fatal(err)
	}
	logAppends, logSyncs, _ := ff.Counts()
	dataWrites, dataSyncs, _ := fp.Counts()
	w.Close()
	// 3 × (begin, page, commit) + checkpoint; commits sync + checkpoint
	// sync; merged apply of 3 pages + one data sync.
	if logAppends != 10 || logSyncs != 2 || dataWrites != 3 || dataSyncs != 1 {
		t.Fatalf("unexpected clean op counts: appends=%d logSyncs=%d writes=%d dataSyncs=%d",
			logAppends, logSyncs, dataWrites, dataSyncs)
	}

	type crash struct {
		name  string
		logF  Fault
		dataF Fault
		// wantPrefix < 0 means "any prefix is legal" (fault after the
		// group's commit records are durable ⇒ recovery redoes all).
		wantPrefix int
		// durable: the fault strikes after the first log sync, so the
		// waiters resolved nil before it — the failure only reaches the
		// flush return (and latches the pager broken).
		durable bool
	}
	var crashes []crash
	for n := 1; n <= logAppends; n++ {
		// Append i belongs to batch (i-1)/3 while i <= 9; append 10 is the
		// checkpoint, after which all three batches are already durable.
		want := (n - 1) / 3
		if n > 9 {
			want = k
		}
		crashes = append(crashes,
			crash{fmt.Sprintf("log-append-%d", n), Fault{Op: FaultWrite, N: n}, Fault{}, want, n > 9},
			crash{fmt.Sprintf("log-append-%d-torn", n), Fault{Op: FaultWrite, N: n, Torn: true}, Fault{}, want, n > 9},
		)
	}
	// Log sync #1 fails after all commit records were appended: the
	// in-memory file retains them, so recovery redoes the whole group.
	crashes = append(crashes,
		crash{"log-sync-1", Fault{Op: FaultSync, N: 1}, Fault{}, k, false},
		crash{"log-sync-2", Fault{Op: FaultSync, N: 2}, Fault{}, k, true},
	)
	for n := 1; n <= dataWrites; n++ {
		crashes = append(crashes,
			crash{fmt.Sprintf("data-write-%d", n), Fault{}, Fault{Op: FaultWrite, N: n}, k, true},
			crash{fmt.Sprintf("data-write-%d-torn", n), Fault{}, Fault{Op: FaultWrite, N: n, Torn: true}, k, true},
		)
	}
	crashes = append(crashes, crash{"data-sync", Fault{}, Fault{Op: FaultSync, N: 1}, k, true})

	for _, c := range crashes {
		t.Run(c.name, func(t *testing.T) {
			w, mem, log, ff, fp, waiters := groupFixture(t, k)
			ff.Arm(c.logF)
			fp.Arm(c.dataF)
			err := w.ReleaseFlushes()
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("flush survived injected fault: %v", err)
			}
			for i, cw := range waiters {
				werr := cw.Wait()
				if c.durable && werr != nil {
					t.Fatalf("waiter %d resolved %v, want nil: the group was durable before the fault", i, werr)
				}
				if !c.durable && !errors.Is(werr, ErrInjected) {
					t.Fatalf("waiter %d resolved %v, want injected failure", i, werr)
				}
			}
			if w.Broken() == nil {
				t.Fatal("pager not broken after flush failure")
			}
			if !w.LastAbortDirty() {
				t.Fatal("failed group flush must report dirty")
			}
			// Further commits must be refused until reopen.
			w.Begin()
			if cerr := w.Commit(nil); cerr == nil || errors.Is(cerr, ErrBatchAborted) {
				t.Fatalf("commit on broken pager: %v", cerr)
			}
			// "Reboot": reopen the surviving disk state with fresh handles.
			logBytes := append([]byte(nil), log.Bytes()...)
			log2 := NewMemFile()
			log2.SetBytes(logBytes)
			w2, _, err := OpenWALPager(mem, log2, nil)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			prefix := -1
			for j := 0; j <= k; j++ {
				match := true
				for i := 0; i < k; i++ {
					want := byte('a' + i)
					if i < j {
						want = byte('A' + i)
					}
					if readPageOrFatal(t, w2, PageID(i))[0] != want {
						match = false
						break
					}
				}
				if match {
					prefix = j
					break
				}
			}
			if prefix < 0 {
				var state []byte
				for i := 0; i < k; i++ {
					state = append(state, readPageOrFatal(t, w2, PageID(i))[0])
				}
				t.Fatalf("recovered state %q is not a prefix of the group", state)
			}
			if c.wantPrefix >= 0 && prefix != c.wantPrefix {
				t.Fatalf("recovered prefix %d, want %d", prefix, c.wantPrefix)
			}
			w2.Close()
		})
	}
}

// TestGroupCommitConcurrentCommitters drives mixed-mode committers from
// many goroutines (batch building serialized, as WALPager.Begin
// requires) and checks every page lands and fsyncs were shared.
func TestGroupCommitConcurrentCommitters(t *testing.T) {
	const committers = 8
	const perCommitter = 16
	mem := NewMemPager(128)
	log := NewMemFile()
	ff := NewFaultFile(log)
	w, _, err := OpenWALPager(mem, ff, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]PageID, committers)
	for i := range ids {
		ids[i], _ = w.Allocate()
	}
	var batchMu sync.Mutex // single-owner batch building
	var wg sync.WaitGroup
	errs := make(chan error, committers*perCommitter)
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < perCommitter; n++ {
				batchMu.Lock()
				w.Begin()
				err := w.WritePage(ids[g], pageBytes(128, byte('0'+n%10)))
				var cw *CommitWaiter
				if err == nil {
					switch n % 3 {
					case 0:
						err = w.Commit(nil)
					default:
						cw, err = w.SealCommit(nil)
					}
				}
				batchMu.Unlock()
				// Sealed batches flush outside the batch lock: inline (as a
				// sync committer does once it released its own lock) or on
				// the background flusher (async).
				if err == nil && cw != nil {
					if n%3 == 1 {
						err = w.Flush()
					} else {
						w.ScheduleFlush()
					}
					if werr := cw.Wait(); err == nil {
						err = werr
					}
				}
				if err != nil {
					errs <- fmt.Errorf("committer %d op %d: %w", g, n, err)
					return
				}
				// Concurrent readers must always see a full page image.
				var buf [128]byte
				if rerr := w.ReadPage(ids[g%committers], buf[:]); rerr != nil {
					errs <- rerr
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := w.FlushBarrier(); err != nil {
		t.Fatal(err)
	}
	want := pageBytes(128, byte('0'+(perCommitter-1)%10))
	for g := 0; g < committers; g++ {
		var buf [128]byte
		if err := mem.ReadPage(ids[g], buf[:]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:], want) {
			t.Fatalf("page %d final image %c, want %c", ids[g], buf[0], want[0])
		}
	}
	// Total log syncs must not exceed the serial cost (2 per commit); with
	// any coalescing at all it is strictly below.
	if _, syncs, _ := ff.Counts(); syncs > 2*committers*perCommitter {
		t.Fatalf("log syncs = %d, exceeds serial cost", syncs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitDirectAccessDrainsQueue checks that pass-through writes,
// allocations and Sync outside a batch flush queued batches first, so the
// queue overlay can never shadow (or be shadowed by) direct page access.
func TestGroupCommitDirectAccessDrainsQueue(t *testing.T) {
	w, mem, _, _, _, waiters := groupFixture(t, 2)
	if err := w.WritePage(0, pageBytes(128, 'Z')); err != nil {
		t.Fatal(err)
	}
	if got := w.PendingBatches(); got != 0 {
		t.Fatalf("direct write left %d batches queued", got)
	}
	for i, cw := range waiters {
		if err := cw.Wait(); err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	var buf [128]byte
	if err := mem.ReadPage(0, buf[:]); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 'Z' {
		t.Fatalf("direct write lost: %c", buf[0])
	}
	if got := readPageOrFatal(t, w, 1)[0]; got != 'B' {
		t.Fatalf("queued batch lost by drain: %c", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitNumPagesIncludesQueue checks allocations of sealed
// batches stay visible to NumPages and later batches before the flush.
func TestGroupCommitNumPagesIncludesQueue(t *testing.T) {
	mem := NewMemPager(128)
	w, _, err := OpenWALPager(mem, NewMemFile(), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.HoldFlushes()
	w.Begin()
	a, _ := w.Allocate()
	w.WritePage(a, pageBytes(128, 'q'))
	cw, err := w.SealCommit(nil)
	if err != nil {
		t.Fatal(err)
	}
	w.ScheduleFlush()
	if got := w.NumPages(); got != 1 {
		t.Fatalf("NumPages = %d, want 1 (queued allocation)", got)
	}
	if mem.NumPages() != 0 {
		t.Fatalf("data pager allocated before flush")
	}
	// A new batch builds on top of the queued allocation.
	w.Begin()
	b, _ := w.Allocate()
	if b != 1 {
		t.Fatalf("allocation after queued batch = %d, want 1", b)
	}
	w.WritePage(b, pageBytes(128, 'r'))
	cw2, err := w.SealCommit(nil)
	if err != nil {
		t.Fatal(err)
	}
	w.ScheduleFlush()
	if err := w.ReleaseFlushes(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := cw2.Wait(); err != nil {
		t.Fatal(err)
	}
	if mem.NumPages() != 2 {
		t.Fatalf("data pager has %d pages, want 2", mem.NumPages())
	}
	if got := readPageOrFatal(t, w, 1)[0]; got != 'r' {
		t.Fatalf("stacked allocation lost: %c", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
