package registry

import (
	"context"
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

// publicValues is what alice reads of a tenant, its public values in
// document order; wantPublic is what she reads of the tenant built with
// marker.
func publicValues(t testing.TB, s *securexml.Store) string {
	t.Helper()
	ms, err := s.QueryCtx(context.Background(), "alice", "read", "//public", securexml.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var vs []string
	for _, m := range ms {
		vs = append(vs, m.Value)
	}
	return strings.Join(vs, ",")
}

func wantPublic(marker int) string {
	var vs []string
	for i := 0; i < 8; i++ {
		vs = append(vs, fmt.Sprintf("t%d-p%d", marker, i))
	}
	return strings.Join(vs, ",")
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
		publicValues(t, h.Store()) // fault pages in
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
// must succeed with its own tenant's public values; the shared budget must hold at
// every sample; and close drains cleanly.
func TestRegistryRace(t *testing.T) {
	const tenants = 8
	root, ids := buildTenants(t, tenants)
	const budget = 1 << 20
	r, err := New(Options{Root: root, MaxOpen: 3, PoolBytes: budget, MinPoolPages: 2})
	if err != nil {
		t.Fatal(err)
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
				k := rng.Intn(tenants)
				id := ids[k]
				h, err := r.Acquire(id)
				if err != nil {
					report(fmt.Errorf("acquire %s: %w", id, err))
					return
				}
				ms, err := h.Store().QueryCtx(context.Background(), "alice", "read", "//public", securexml.QueryOptions{})
				if err != nil {
					report(fmt.Errorf("query %s: %w", id, err))
					h.Close()
					return
				}
				var vs []string
				for _, m := range ms {
					vs = append(vs, m.Value)
				}
				if got := strings.Join(vs, ","); got != wantPublic(k) {
					report(fmt.Errorf("tenant %s answers %s under concurrency", id, got))
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
	opensBefore := r.MetricsSnapshot().Counters["opens_total"]

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// A descendant predicate keeps the query on the matcher, which
			// reads every item's block; a path alone is answered from the
			// class postings without one.
			if ms, err := b.Store().QueryCtx(context.Background(), "alice", "read", "//item[//public]", securexml.QueryOptions{}); err != nil || len(ms) != 400 {
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
	if got := r.MetricsSnapshot().Counters["opens_total"] - opensBefore; got != rounds {
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
	if got := publicValues(t, h.Store()); got != wantPublic(0) {
		t.Fatal("draining store stopped answering")
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(r.Tenants()); n != 0 {
		t.Fatalf("%d tenants left after final release", n)
	}
}

// close_ns observes every Store.Close the registry makes: an idle tenant's
// at its eviction, a busy one's when its last handle drains it, the rest
// at the registry's Close — its count is opens minus the stores still open.
func TestCloseNsCountsEveryClose(t *testing.T) {
	root, ids := buildTenants(t, 4)
	r, err := New(Options{Root: root, MaxOpen: 2})
	if err != nil {
		t.Fatal(err)
	}
	closes := func() int64 { return r.MetricsSnapshot().Histograms["close_ns"].Count }
	check := func(when string) {
		t.Helper()
		snap := r.MetricsSnapshot()
		open := snap.Gauges["tenants_open"] + snap.Gauges["tenants_draining"]
		if got, want := closes(), snap.Counters["opens_total"]-open; got != want {
			t.Fatalf("%s: close_ns counted %d closes, want %d", when, got, want)
		}
	}
	busy, err := r.Acquire(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		h, err := r.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		publicValues(t, h.Store())
		h.Close()
		check("after " + id)
	}
	if err := r.Evict(ids[0]); err != nil {
		t.Fatal(err)
	}
	check("with the busy tenant draining")
	busy.Close()
	check("after the drain")
	closeRegistry(t, r)
	if c, opens := closes(), r.MetricsSnapshot().Counters["opens_total"]; c != opens || c < 4 {
		t.Fatalf("after Close: %d closes for %d opens", c, opens)
	}
	if h := r.MetricsSnapshot().Histograms["close_ns"]; h.Sum <= 0 {
		t.Fatalf("close_ns summed %d ns", h.Sum)
	}
}
