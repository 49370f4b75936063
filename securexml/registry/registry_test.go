package registry

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dolxml/securexml"
)

// buildTenant seals and saves one small store under root/id. Each tenant's
// document carries its marker, so cross-tenant answer mixups are visible in
// result bytes, and each has a secret subtree alice cannot read.
func buildTenant(t testing.TB, root, id string, marker int) {
	t.Helper()
	dir := filepath.Join(root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "<doc tenant=\"%s\">", id)
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&sb, "<item><public>t%d-p%d</public><secret>t%d-s%d</secret></item>", marker, i, marker, i)
	}
	sb.WriteString("</doc>")
	s, err := securexml.NewBuilder().
		LoadXMLString(sb.String()).
		AddUser("alice").
		AddUser("bob").
		Grant("alice", "read", "/doc").
		Revoke("alice", "read", "//secret").
		Grant("bob", "read", "/doc").
		Seal(securexml.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func buildTenants(t testing.TB, n int) (string, []string) {
	t.Helper()
	root := t.TempDir()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("tenant-%02d", i)
		buildTenant(t, root, ids[i], i)
	}
	return root, ids
}

// closeRegistry closes r with a bounded deadline so a failing test with a
// leaked handle reports instead of deadlocking in the deferred close.
func closeRegistry(t testing.TB, r *Registry) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Close(ctx); err != nil {
		t.Errorf("registry close: %v", err)
	}
}

// queryBytes evaluates alice's canonical query through a store and returns
// the JSON-encoded answer — the byte-identity fingerprint used across
// eviction/drain comparisons.
func queryBytes(t testing.TB, s *securexml.Store) string {
	t.Helper()
	ms, err := s.Query("alice", "read", "//public")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestTenantPath(t *testing.T) {
	root := t.TempDir()
	for _, ok := range []string{"a", "tenant-01", "x_y-z9", strings.Repeat("a", 64)} {
		p, err := TenantPath(root, ok)
		if err != nil {
			t.Fatalf("TenantPath(%q) = %v", ok, err)
		}
		if p != filepath.Join(root, ok) {
			t.Fatalf("TenantPath(%q) = %q", ok, p)
		}
	}
	for _, bad := range []string{
		"", "..", "../x", "a/b", "a\\b", ".hidden", "-dash", "_u", "UPPER",
		"has space", "dot.dot", strings.Repeat("a", 65), "a\x00b", "a\nb",
	} {
		if _, err := TenantPath(root, bad); err == nil {
			t.Fatalf("TenantPath(%q) accepted", bad)
		}
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	root, ids := buildTenants(t, 6)
	r, err := New(Options{Root: root, MaxOpen: 3, PoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRegistry(t, r)

	want := make(map[string]string)
	for i, id := range ids {
		h, err := r.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		// An update committed through the handle is part of what the
		// eviction has to carry to the next open.
		first, err := h.Store().QueryUnrestricted("//public")
		if err != nil || len(first) == 0 {
			t.Fatalf("tenant %s: %d public nodes, err %v", id, len(first), err)
		}
		if err := h.Store().SetAccess("alice", "read", first[0].Node, false, false); err != nil {
			t.Fatal(err)
		}
		want[id] = queryBytes(t, h.Store())
		if revoked := fmt.Sprintf("t%d-p0", i); strings.Contains(want[id], revoked) {
			t.Fatalf("tenant %s still shows alice %s after the revoke", id, revoked)
		}
		h.Close()
		if n := r.OpenCount(); n > 3 {
			t.Fatalf("%d stores open with MaxOpen=3", n)
		}
	}
	snap := r.MetricsSnapshot()
	if snap.Get("evictions_total") < 3 {
		t.Fatalf("evictions_total = %d, want >= 3", snap.Get("evictions_total"))
	}
	// Reopened tenants answer as they did before the eviction, update included.
	for _, id := range ids {
		h, err := r.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := queryBytes(t, h.Store()); got != want[id] {
			t.Fatalf("tenant %s answer changed across eviction:\n got %s\nwant %s", id, got, want[id])
		}
		h.Close()
	}
}

// TestRegistryPinBlocksEviction holds a handle on one tenant while churning
// enough others to force evictions: the pinned tenant must never be closed
// under the handle, and once released and evicted its pool pins drop to 0.
func TestRegistryPinBlocksEviction(t *testing.T) {
	root, ids := buildTenants(t, 5)
	r, err := New(Options{Root: root, MaxOpen: 2, PoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRegistry(t, r)

	pinned, err := r.Acquire(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	want := queryBytes(t, pinned.Store())
	for _, id := range ids[1:] {
		h, err := r.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
	}
	// The pinned store is still the same open store and still answers.
	if got := queryBytes(t, pinned.Store()); got != want {
		t.Fatalf("pinned tenant answer changed under eviction pressure:\n got %s\nwant %s", got, want)
	}
	st := pinned.Store()
	if err := pinned.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Evict(ids[0]); err != nil {
		t.Fatal(err)
	}
	if got := st.PoolPinned(); got != 0 {
		t.Fatalf("evicted tenant still pins %d frames", got)
	}
}

// TestRegistryDrainByteIdentical evicts a tenant while a handle is open:
// the handle keeps answering byte-identically (drain), a re-acquire before
// the drain completes revives the same store instead of double-opening the
// directory, and the store only closes at the last release.
func TestRegistryDrainByteIdentical(t *testing.T) {
	root, ids := buildTenants(t, 2)
	r, err := New(Options{Root: root, MaxOpen: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRegistry(t, r)

	h1, err := r.Acquire(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	want := queryBytes(t, h1.Store())
	if err := r.Evict(ids[0]); err != nil {
		t.Fatal(err)
	}
	if got := queryBytes(t, h1.Store()); got != want {
		t.Fatalf("draining store answer drifted:\n got %s\nwant %s", got, want)
	}
	snap := r.MetricsSnapshot()
	if snap.Get("drains_total") != 1 {
		t.Fatalf("drains_total = %d, want 1", snap.Get("drains_total"))
	}

	// Re-acquire mid-drain: must revive the same store, not reopen the dir.
	h2, err := r.Acquire(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if h2.Store() != h1.Store() {
		t.Fatal("re-acquire during drain opened a second store over the same directory")
	}
	snap = r.MetricsSnapshot()
	if snap.Get("revives_total") != 1 {
		t.Fatalf("revives_total = %d, want 1", snap.Get("revives_total"))
	}
	if snap.Get("opens_total") != 1 {
		t.Fatalf("opens_total = %d, want 1 (no double-open)", snap.Get("opens_total"))
	}
	h1.Close()
	h2.Close()

	// Now a clean evict → close; the next acquire is a fresh open.
	if err := r.Evict(ids[0]); err != nil {
		t.Fatal(err)
	}
	h3, err := r.Acquire(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Close()
	if got := queryBytes(t, h3.Store()); got != want {
		t.Fatalf("reopened store answer drifted")
	}
	if got := r.MetricsSnapshot().Get("opens_total"); got != 2 {
		t.Fatalf("opens_total = %d, want 2 (fresh open after clean evict)", got)
	}
}

// TestRegistryBudgetSharing checks the fair-share invariant: however many
// tenants are open, the sum of their pool capacities (in bytes) never
// exceeds the global budget, and every tenant keeps at least MinPoolPages.
func TestRegistryBudgetSharing(t *testing.T) {
	root, ids := buildTenants(t, 6)
	const budget = 512 * 1024
	r, err := New(Options{Root: root, MaxOpen: 6, PoolBytes: budget, MinPoolPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRegistry(t, r)

	var handles []*Handle
	for _, id := range ids {
		h, err := r.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		queryBytes(t, h.Store()) // fault pages in
		if use := r.PoolBytesInUse(); use > budget {
			t.Fatalf("pool bytes in use %d exceeds budget %d with %d tenants", use, budget, len(handles))
		}
	}
	for _, h := range handles {
		h.Close()
	}
}

// TestRegistryRace is the satellite race test: concurrent acquire/query,
// evictions, and metric scrapes over more tenants than MaxOpen, under
// -race. In-flight queries pin stores against eviction, so every query
// must succeed with its own tenant's bytes; the shared budget must hold at
// every sample; and close drains cleanly.
func TestRegistryRace(t *testing.T) {
	const tenants = 8
	root, ids := buildTenants(t, tenants)
	const budget = 1 << 20
	r, err := New(Options{Root: root, MaxOpen: 3, PoolBytes: budget, MinPoolPages: 2})
	if err != nil {
		t.Fatal(err)
	}

	want := make(map[string]string)
	for _, id := range ids {
		h, err := r.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = queryBytes(t, h.Store())
		h.Close()
	}

	iters := 150
	if testing.Short() {
		iters = 30
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				id := ids[rng.Intn(tenants)]
				h, err := r.Acquire(id)
				if err != nil {
					report(fmt.Errorf("acquire %s: %w", id, err))
					return
				}
				ms, err := h.Store().Query("alice", "read", "//public")
				if err != nil {
					report(fmt.Errorf("query %s: %w", id, err))
					h.Close()
					return
				}
				b, _ := json.Marshal(ms)
				if string(b) != want[id] {
					report(fmt.Errorf("tenant %s: answer drifted under concurrency", id))
				}
				h.Close()
			}
		}(w)
	}
	// Evictor: randomly push tenants out while queries are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < iters; i++ {
			if err := r.Evict(ids[rng.Intn(tenants)]); err != nil {
				report(fmt.Errorf("evict: %w", err))
				return
			}
		}
	}()
	// Budget sampler + metrics scraper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if use := r.PoolBytesInUse(); use > budget {
				report(fmt.Errorf("pool bytes in use %d exceeds budget %d", use, budget))
				return
			}
			var sb strings.Builder
			if err := r.WriteMetricsPrometheus(&sb); err != nil {
				report(fmt.Errorf("metrics: %w", err))
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := r.Acquire(ids[0]); err == nil {
		t.Fatal("acquire succeeded on a closed registry")
	}
}

// Every open and eviction re-budgets the decode cache of every other open
// tenant while that tenant's queries decode blocks and offer them to the
// cache: the budget is read and written under the cache's lock. Run under
// -race; tenant B's cache is kept too small for its blocks so that its
// queries keep decoding.
func TestRebalanceRacesBlockDecodes(t *testing.T) {
	root, ids := buildTenants(t, 2)
	big := filepath.Join(root, "big")
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "<item><public>p%d</public></item>", i)
	}
	sb.WriteString("</doc>")
	s, err := securexml.NewBuilder().LoadXMLString(sb.String()).AddUser("alice").Grant("alice", "read", "/doc").
		Seal(securexml.StoreOptions{PageSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(big); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// 300 bytes among two or three tenants: no share holds two blocks.
	r, err := New(Options{Root: root, MaxOpen: 3, DecodeCacheBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRegistry(t, r)
	b, err := r.Acquire("big")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := r.Acquire(ids[0]) // a third tenant's share, held so that it is never the victim
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	decodesBefore := b.Store().DecodeCacheStats().Misses
	opensBefore := r.MetricsSnapshot().Get("opens_total")

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// A descendant predicate keeps the query on the matcher, which
			// reads every item's block; a path alone is answered from the
			// class postings without one.
			if ms, err := b.Store().Query("alice", "read", "//item[//public]"); err != nil || len(ms) != 400 {
				t.Errorf("query on the big tenant: %d answers, %v", len(ms), err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			h, err := r.Acquire(ids[1])
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			h.Close()
			if err := r.Evict(ids[1]); err != nil {
				t.Errorf("evict: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if got := r.MetricsSnapshot().Get("opens_total") - opensBefore; got != rounds {
		t.Fatalf("%d opens in %d rounds", got, rounds)
	}
	if got := b.Store().DecodeCacheStats().Misses - decodesBefore; got < 10*rounds {
		t.Fatalf("the big tenant decoded only %d blocks in %d queries: its cache held them", got, rounds)
	}
}

// TestRegistryCloseWaitsForDrain verifies Close blocks on busy tenants
// until their last handle releases (or the context expires).
func TestRegistryCloseWaitsForDrain(t *testing.T) {
	root, ids := buildTenants(t, 1)
	r, err := New(Options{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire(ids[0])
	if err != nil {
		t.Fatal(err)
	}

	// With a busy tenant and an immediate deadline, Close reports it.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	err = r.Close(ctx)
	cancel()
	if err == nil || !strings.Contains(err.Error(), "still busy") {
		t.Fatalf("close with busy tenant = %v, want busy error", err)
	}
	// The handle still works (drain), and release closes the store.
	if got := queryBytes(t, h.Store()); got == "" {
		t.Fatal("draining store stopped answering")
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(r.Tenants()); n != 0 {
		t.Fatalf("%d tenants left after final release", n)
	}
}
