package securexml

import (
	"context"
	"sync"
	"testing"
)

// Interleave property for path-summary routing under MVCC: readers pin
// snapshots while structural writers continuously insert and delete a
// fragment (each commit rebuilding the maintained path summary
// incrementally). For every pinned snapshot, a query with routing enabled
// must be byte-identical to a query of the same snapshot with routing
// disabled — the summary a query compiles against can never mix states.
// Run with -race in CI.
func TestPathRoutingUnderConcurrentWriters(t *testing.T) {
	const q = "//listitem//keyword"
	s := snapStore(t, snapFixtureXML(t, 1600), StoreOptions{PageSize: 512, PoolPages: 256})
	defer s.Close()

	parent := lastVisibleNode(t, s, "//description")
	const frag = "<parlist><listitem><keyword>routeprobe</keyword></listitem></parlist>"
	fragRoot := parent + 1 // InsertXML with after=InvalidNode prepends

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.InsertXML(parent, InvalidNode, frag); err != nil {
				t.Error(err)
				return
			}
			if err := s.Delete(fragRoot); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const readers = 4
	const rounds = 12
	var rg sync.WaitGroup
	for g := 0; g < readers; g++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for r := 0; r < rounds; r++ {
				sp, err := s.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				on, err := answerKey(t, s, q, QueryOptions{Snapshot: sp})
				if err != nil {
					sp.Close()
					t.Error(err)
					return
				}
				off, err := answerKey(t, s, q, QueryOptions{Snapshot: sp, DisablePathSummary: true})
				sp.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if on != off {
					t.Errorf("snapshot drain diverged with path routing:\non:  %s\noff: %s", on, off)
					return
				}
			}
		}()
	}
	rg.Wait()
	close(stop)
	writers.Wait()

	// Settled state: the two arms still agree, and the store's maintained
	// summary still matches a from-scratch rebuild (CheckConsistency runs
	// the oracle at the nok layer).
	on, err := answerKey(t, s, q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := answerKey(t, s, q, QueryOptions{DisablePathSummary: true})
	if err != nil {
		t.Fatal(err)
	}
	if on != off {
		t.Fatalf("settled drain diverged:\non:  %s\noff: %s", on, off)
	}
}

// A structurally unsatisfiable twig — every tag exists, but no root-to-leaf
// label path arranges them — must short-circuit at compile time: zero pages
// pinned and the store's path-empty counter incremented.
func TestUnsatisfiableQueryShortCircuit(t *testing.T) {
	const q = "/site/people/person/parlist"
	s := snapStore(t, snapFixtureXML(t, 1600), StoreOptions{PageSize: 512})
	defer s.Close()
	ctx := context.Background()

	// Both tags must exist for the test to mean anything.
	for _, probe := range []string{"//person", "//parlist"} {
		if ms, err := s.QueryUnrestricted(probe); err != nil || len(ms) == 0 {
			t.Fatalf("fixture lacks %s matches (err %v)", probe, err)
		}
	}

	before := s.MetricsSnapshot().Get("query_path_empty_total")
	tr := NewQueryTrace()
	if ms, err := s.QueryCtx(ctx, "u", "read", q, QueryOptions{Trace: tr}); err != nil || len(ms) != 0 {
		t.Fatalf("unsatisfiable query yielded %v (err %v)", ms, err)
	}
	if got := tr.PageReads(); got != 0 {
		t.Errorf("short-circuited query pinned %d pages, want 0", got)
	}
	if got := s.MetricsSnapshot().Get("query_path_empty_total") - before; got != 1 {
		t.Errorf("query_path_empty_total advanced by %d, want 1", got)
	}

	// Routing off: same (empty) answer, but the evaluator actually runs.
	off, err := s.QueryCtx(ctx, "u", "read", q, QueryOptions{DisablePathSummary: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(off) != 0 {
		t.Fatalf("routing-off arm returned %d answers, want 0", len(off))
	}
}

// The per-snapshot shape cache: repeating a query against an unchanged
// store hits, any commit (even ACL-only, which shadow-pages the block
// directory) forces a recompile, and hits never change answers.
func TestMaskCacheCounters(t *testing.T) {
	const q = "//listitem//keyword"
	s := snapStore(t, snapFixtureXML(t, 1600), StoreOptions{PageSize: 512})
	defer s.Close()

	counter := func(name string) int64 { return s.MetricsSnapshot().Get(name) }
	first, err := answerKey(t, s, q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	misses := counter("skipmask_compile_misses")
	if misses == 0 {
		t.Fatal("first query compiled no shape")
	}
	h0 := counter("skipmask_compile_hits")
	again, err := answerKey(t, s, q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("cached shape changed answers")
	}
	if got := counter("skipmask_compile_hits") - h0; got != 1 {
		t.Errorf("repeat query recorded %d cache hits, want 1", got)
	}
	if got := counter("skipmask_compile_misses") - misses; got != 0 {
		t.Errorf("repeat query recompiled %d times, want 0", got)
	}

	// An ACL-only commit bumps the snapshot sequence: the stale entry must
	// miss even though the indexState (and thus the cache) is shared.
	toggle := firstNode(t, s, q)
	if err := s.SetAccess("staff", "read", toggle, false, false); err != nil {
		t.Fatal(err)
	}
	m0 := counter("skipmask_compile_misses")
	after, err := answerKey(t, s, q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after == first {
		t.Fatal("revoke changed nothing; fixture broken")
	}
	if got := counter("skipmask_compile_misses") - m0; got != 1 {
		t.Errorf("post-commit query recompiled %d times, want 1", got)
	}
}

// A path class whose every occurrence is deleted keeps its uniform code
// claim in the path summary after the codebook released the code; a query
// over the class answers nothing instead of looking the code up.
func TestExtinctClassWithReleasedCode(t *testing.T) {
	s, err := NewBuilder().LoadXMLString(`<r><a><b/></a><c/></r>`).AddUser("u").AddUser("v").
		Grant("u", "read", "/r").Grant("v", "read", "//b").Seal(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	for _, user := range []string{"u", "v"} {
		if ms, err := s.QueryCtx(context.Background(), user, "read", "//a/b", QueryOptions{}); err != nil || len(ms) != 0 {
			t.Fatalf("%s: %v, %v", user, ms, err)
		}
	}
}
