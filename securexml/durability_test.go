package securexml

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// This file covers the durability-mode surface of the group-commit work:
// concurrent committers under every mode while readers query (the CI
// -race job runs these), the async notification contract, and the
// graceful degradation of the async API on memory-backed stores.

// TestDurabilityModesConcurrentCommitters hammers one file-backed store
// per durability mode with three concurrent updaters (each toggling its own
// keyword node an even number of times, so the final state equals the
// initial state) while two readers query the whole time.
// After a durability barrier the answers must be byte-identical to the
// model, no pin and no snapshot version may leak, the log must count one
// commit per update, and a reopen from disk must agree.
func TestDurabilityModesConcurrentCommitters(t *testing.T) {
	ms, _, img := crashStore(t, 5, 800)
	for _, tc := range []struct {
		name string
		mode Durability
	}{
		{"sync", DurabilitySync},
		{"async", DurabilityAsync},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			img.restore(t, ms.dir)
			ms.t, ms.opts.Durability = t, tc.mode
			s, err := Open(ms.dir, ms.opts)
			if err != nil {
				t.Fatal(err)
			}
			ms.s = s
			kws, err := s.QueryCtx(context.Background(), "u0", "read", "//listitem//keyword", QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			const updaters = 3
			if len(kws) < updaters {
				t.Fatalf("fixture shows u0 only %d keywords, need %d", len(kws), updaters)
			}

			const rounds = 6
			var done atomic.Bool
			var updWg, readWg sync.WaitGroup
			errs := make(chan error, updaters+2)

			// Readers query for the whole updater run; every match they see
			// must be a well-formed keyword answer, whatever interleaving of
			// toggles was live when the query pinned its snapshot.
			for r := 0; r < 2; r++ {
				readWg.Add(1)
				go func() {
					defer readWg.Done()
					for !done.Load() {
						got, err := s.QueryCtx(context.Background(), "u0", "read", "//listitem//keyword", QueryOptions{})
						if err == nil && (len(got) > len(kws) || slices.ContainsFunc(got, func(m Match) bool { return m.Tag != "keyword" })) {
							err = fmt.Errorf("a reader saw %d answers, not all of them keywords; the fixture holds %d", len(got), len(kws))
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}()
			}

			// Updaters toggle their own node: revoke then grant, so every
			// even round count restores the initial ACL.
			for g := 0; g < updaters; g++ {
				updWg.Add(1)
				go func(g int) {
					defer updWg.Done()
					node := kws[g].Node
					var pendings []*Commit
					for r := 0; r < rounds; r++ {
						for _, allowed := range []bool{false, true} {
							if tc.mode == DurabilityAsync && r%2 == 0 {
								c, err := s.SetAccessAsync("g0", "read", node, allowed, false)
								if err != nil {
									errs <- fmt.Errorf("updater %d: %w", g, err)
									return
								}
								pendings = append(pendings, c)
								continue
							}
							if err := s.SetAccess("g0", "read", node, allowed, false); err != nil {
								errs <- fmt.Errorf("updater %d: %w", g, err)
								return
							}
						}
					}
					for _, c := range pendings {
						if err := c.Wait(); err != nil {
							errs <- fmt.Errorf("updater %d wait: %w", g, err)
							return
						}
					}
				}(g)
			}

			updWg.Wait()
			done.Store(true)
			readWg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := s.AwaitDurable(); err != nil {
				t.Fatal(err)
			}
			if s.Failed() {
				t.Fatal("store poisoned by concurrent committers")
			}
			ms.check("after even toggle counts")
			snap := s.MetricsSnapshot()
			if pinned := snap.Get("pool_pinned"); pinned != 0 {
				t.Fatalf("%d pages still pinned after the run", pinned)
			}
			if live := snap.Get("snapshot_versions_live"); live != 1 {
				t.Fatalf("%d snapshot versions live after the run, want 1", live)
			}
			wantCommits := int64(updaters * rounds * 2)
			if got := snap.Get("wal_commits"); got != wantCommits {
				t.Fatalf("wal_commits = %d, want %d", got, wantCommits)
			}
			ms.close()
			ms.s = ms.open(ms.dir)
			ms.check("reopened")
			ms.close()
		})
	}
}

// TestSyncCommittersShareAFlush: a DurabilitySync committer waits for
// durability only after it sealed, so committers that seal while flushes
// are held all queue their batches, and the one flush that follows makes
// the three of them durable together.
func TestSyncCommittersShareAFlush(t *testing.T) {
	ms, rng, _ := crashStore(t, 11, 800)
	// Node-only access changes on three distinct nodes commute: the store
	// ends at the same model whatever order the committers seal in.
	post := ms.md
	var ops []xmlmodel.Operation
	touched := map[xmltree.NodeID]bool{}
	for len(ops) < 3 {
		op, next := drawUpdate(rng, post, xmlmodel.SetAccess, false)
		if !touched[op.Node] {
			touched[op.Node] = true
			ops, post = append(ops, op), next
		}
	}
	ms.s = ms.open(ms.dir)
	s := ms.s
	s.wp.HoldFlushes()
	errs := make(chan error, len(ops))
	for _, op := range ops {
		go func() {
			errs <- s.SetAccess(ms.name(post, op.Subject), harnessMode, NodeID(op.Node), op.Allowed, op.Subtree)
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); s.wp.PendingBatches() < len(ops); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			n := s.wp.PendingBatches()
			// Let the committers finish before failing.
			for i := 0; i < len(ops); i++ {
				if err := s.wp.ReleaseFlushes(); err != nil {
					t.Error(err)
				}
				<-errs
			}
			t.Fatalf("%d of %d sync committers sealed while flushes were held: a committer waited for another's flush before sealing", n, len(ops))
		}
	}
	if err := s.wp.ReleaseFlushes(); err != nil {
		t.Fatal(err)
	}
	for range ops {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if h := s.MetricsSnapshot().Histograms["wal_group_size"]; h.Count != 1 || h.Sum != 3 {
		t.Fatalf("wal_group_size recorded %d groups of %d batches in all, want one group of 3", h.Count, h.Sum)
	}
	ms.md = post
	ms.close()
	ms.s = ms.open(ms.dir)
	ms.check("reopened after the shared flush")
	ms.close()
}

// TestSubjectCommitSyncsOnlyTheLog: a commit that changes no page — a new
// user lives in the directory and the codebook, journalled as metadata —
// syncs the log at its commit record and its checkpoint and leaves the page
// file alone: no write, no sync, and none counted. That holds for a reopened
// store and for the first commit on a store sealed onto a page file and
// never saved, whose bulk build Seal has already written out.
func TestSubjectCommitSyncsOnlyTheLog(t *testing.T) {
	dir := t.TempDir()
	sealed := hospitalStore(t, StoreOptions{Path: filepath.Join(dir, pageFile)})
	if err := sealed.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := sealed.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	unsaved := bigStore(t, StoreOptions{Path: filepath.Join(t.TempDir(), pageFile)})
	defer unsaved.Close()
	for name, s := range map[string]*Store{"reopened": reopened, "sealed, unsaved": unsaved} {
		before := s.MetricsSnapshot()
		if err := s.AddUser("erin"); err != nil {
			t.Fatal(err)
		}
		after := s.MetricsSnapshot()
		for metric, want := range map[string]int64{"wal_commits": 1, "wal_fsyncs": 2, "io_syncs": 0, "io_writes": 0} {
			if got := after.Get(metric) - before.Get(metric); got != want {
				t.Errorf("%s: AddUser moved %s by %d, want %d", name, metric, got, want)
			}
		}
	}
}

// TestAsyncCommitNotification pins the notification contract: an async
// commit's effects are visible immediately, its Done channel stays open
// until the group flush covers it, and Wait/Err settle to nil once the
// flush lands. AwaitDurable is a full barrier.
func TestAsyncCommitNotification(t *testing.T) {
	ms, _, _ := crashStore(t, 5, 800)
	ms.s = ms.open(ms.dir)
	defer ms.close()
	s := ms.s
	kws, err := s.QueryCtx(context.Background(), "u0", "read", "//listitem//keyword", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	node := kws[0].Node

	s.wp.HoldFlushes()
	c, err := s.SetAccessAsync("g0", "read", node, false, false)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
		t.Fatal("commit reported durable before any flush ran")
	default:
	}
	if n := s.wp.PendingBatches(); n != 1 {
		t.Fatalf("pending batches = %d, want 1", n)
	}
	// The effect is visible to queries before durability.
	after, err := s.QueryCtx(context.Background(), "u0", "read", "//listitem//keyword", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(kws)-1 {
		t.Fatalf("revoke not visible: %d keywords, want %d", len(after), len(kws)-1)
	}
	if err := s.wp.ReleaseFlushes(); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done still open after the flush resolved the commit")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	// Grant it back asynchronously and use AwaitDurable as the barrier.
	c2, err := s.SetAccessAsync("g0", "read", node, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AwaitDurable(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Err(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("AwaitDurable returned with an unresolved commit outstanding")
	}
	ms.check("after the toggle pair")
}

// TestAsyncDegradesOnMemoryStore: on a store with no WAL there is nothing
// to defer, so the async API must return an already-durable commit rather
// than erroring.
func TestAsyncDegradesOnMemoryStore(t *testing.T) {
	s := hospitalStore(t, StoreOptions{Durability: DurabilityAsync})
	defer s.Close()
	target := firstNode(t, s, "//patient/name")
	c, err := s.SetAccessAsync("doctors", "read", target, false, false)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("memory-backed async commit not immediately resolved")
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.AwaitDurable(); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.UserAccessible("dave", "read", target); err != nil || ok {
		t.Fatalf("revoke not applied (ok=%v err=%v)", ok, err)
	}
}
