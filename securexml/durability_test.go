package securexml

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// This file covers the durability-mode surface of the group-commit work:
// concurrent committers under every mode while readers drain cursors (the
// CI -race job runs these), the async notification contract, and the
// graceful degradation of the async API on memory-backed stores.

// TestDurabilityModesConcurrentCommitters hammers one file-backed store
// per durability mode with three concurrent updaters (each toggling its own
// keyword node an even number of times, so the final state equals the
// initial state) while two readers drain query cursors the whole time.
// After a durability barrier the answers must be byte-identical to the
// pristine fixture, no pin and no snapshot version may leak, the log must
// count one commit per update, and a reopen from disk must agree.
func TestDurabilityModesConcurrentCommitters(t *testing.T) {
	fx := buildRecoveryFixture(t, 800, 512)
	for _, tc := range []struct {
		name string
		mode Durability
	}{
		{"sync", DurabilitySync},
		{"grouped", DurabilityGrouped},
		{"async", DurabilityAsync},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fx.restore(t)
			s, err := Open(fx.dir, StoreOptions{PoolPages: 64, Durability: tc.mode})
			if err != nil {
				t.Fatal(err)
			}
			kws, err := s.Query("u", "read", "//listitem//keyword")
			if err != nil {
				t.Fatal(err)
			}
			const updaters = 3
			if len(kws) < updaters {
				t.Fatalf("fixture shows u only %d keywords, need %d", len(kws), updaters)
			}

			const rounds = 6
			var done atomic.Bool
			var updWg, readWg sync.WaitGroup
			errs := make(chan error, updaters+2)

			// Readers drain cursors for the whole updater run; every match
			// they see must be a well-formed keyword answer, whatever
			// interleaving of toggles was live when the cursor started.
			for r := 0; r < 2; r++ {
				readWg.Add(1)
				go func() {
					defer readWg.Done()
					ctx := context.Background()
					for !done.Load() {
						cur, err := s.QueryCursor(ctx, "u", "read", "//listitem//keyword", QueryOptions{})
						if err != nil {
							errs <- fmt.Errorf("reader open: %w", err)
							return
						}
						n := 0
						for {
							m, ok, err := cur.Next(ctx)
							if err != nil {
								cur.Close()
								errs <- fmt.Errorf("reader next: %w", err)
								return
							}
							if !ok {
								break
							}
							if m.Tag != "keyword" {
								cur.Close()
								errs <- fmt.Errorf("reader saw tag %q", m.Tag)
								return
							}
							n++
						}
						if err := cur.Close(); err != nil {
							errs <- fmt.Errorf("reader close: %w", err)
							return
						}
						if n > len(kws) {
							errs <- fmt.Errorf("reader saw %d keywords, fixture holds %d", n, len(kws))
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
								c, err := s.SetAccessAsync("staff", "read", node, allowed, false)
								if err != nil {
									errs <- fmt.Errorf("updater %d: %w", g, err)
									return
								}
								pendings = append(pendings, c)
								continue
							}
							if err := s.SetAccess("staff", "read", node, allowed, false); err != nil {
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
			if got := answerFingerprint(t, s); got != fx.pre {
				t.Fatal("answers differ from pristine state after even toggle counts")
			}
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
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(fx.dir, StoreOptions{PoolPages: 64})
			if err != nil {
				t.Fatalf("reopen after %s run: %v", tc.name, err)
			}
			if got := answerFingerprint(t, s2); got != fx.pre {
				t.Fatal("reopened store answers differ from pristine state")
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAsyncCommitNotification pins the notification contract: an async
// commit's effects are visible immediately, its Done channel stays open
// until the group flush covers it, and Wait/Err settle to nil once the
// flush lands. AwaitDurable is a full barrier.
func TestAsyncCommitNotification(t *testing.T) {
	fx := buildRecoveryFixture(t, 800, 512)
	fx.restore(t)
	s, err := Open(fx.dir, StoreOptions{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	kws, err := s.Query("u", "read", "//listitem//keyword")
	if err != nil {
		t.Fatal(err)
	}
	node := kws[0].Node

	s.wp.HoldFlushes()
	c, err := s.SetAccessAsync("staff", "read", node, false, false)
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
	after, err := s.Query("u", "read", "//listitem//keyword")
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
	c2, err := s.SetAccessAsync("staff", "read", node, true, false)
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
	if got := answerFingerprint(t, s); got != fx.pre {
		t.Fatal("toggle pair changed answers")
	}
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
