package securexml_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"dolxml/internal/obs"
	"dolxml/internal/xmlmodel"
	"dolxml/securexml"
	"dolxml/securexml/registry"
)

// The registry's eviction configurations of the facade harness: tenant t,
// served through a registry at MaxOpen 1, takes updates, pins and releases
// through its handle, and every Evict operation, its pins released first,
// pushes it out. Idle, the tenant closes — evicted by the admission of a
// second tenant — and the re-acquire opens it fresh from disk. With the
// handle held, an explicit eviction drains it: the held handle still
// answers the model and takes an update, and a re-acquire revives the same
// store. Under pressure the handle stays held while the second tenant is
// admitted: the registry runs over MaxOpen rather than close the store
// under the handle, and evicts the second tenant once it is released.
type evictMode int

const (
	idle evictMode = iota
	drain
	pressure
)

func evictRun(t *testing.T, mode evictMode) (obs.Snapshot, int64) {
	t.Parallel()
	root := t.TempDir()
	rng := rand.New(rand.NewSource(21))
	ms := securexml.NewTenant(t, rng, 60, filepath.Join(root, "t"))
	securexml.NewTenant(t, rng, 20, filepath.Join(root, "other"))
	r, err := registry.New(registry.Options{Root: root, MaxOpen: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := r.Close(ctx); err != nil {
			t.Errorf("registry close: %v", err)
		}
	}()
	acquire := func(id string) *registry.Handle {
		h, err := r.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	open := func(what string, want string) {
		if got := r.Tenants(); len(got) != 1 || got[0].ID != want {
			t.Fatalf("%s: %+v open, want only %s", what, got, want)
		}
	}
	h, evictions := acquire("t"), int64(0)
	defer func() { h.Close() }()
	ms.Serve(h.Store(), func(what string) *securexml.Store {
		evictions++
		switch mode {
		case idle:
			h.Close()
			acquire("other").Close()
			open(what, "other")
			h = acquire("t")
		case pressure:
			acquire("other").Close()
			open(what, "t")
		case drain:
			if err := r.Evict("t"); err != nil {
				t.Fatal(err)
			}
			ms.Check(what + ", draining")
			ms.Step(rng, what+", draining", xmlmodel.Updates...)
			revived := acquire("t")
			if revived.Store() != h.Store() {
				t.Fatalf("%s: the re-acquire opened a second store over the draining tenant's directory", what)
			}
			h.Close()
			h = revived
		}
		return h.Store()
	})
	ops := append(slices.Clone(xmlmodel.Updates), xmlmodel.SetAccess, xmlmodel.SetAccess, xmlmodel.Pin, xmlmodel.Release, xmlmodel.Evict, xmlmodel.Evict)
	for op := 0; op < 12; op++ {
		ms.Step(rng, fmt.Sprintf("op %d", op), ops...)
	}
	if evictions == 0 {
		t.Fatal("no evictions drawn")
	}
	if mode == pressure {
		// Released and evicted, the store pins no frame.
		st := h.Store()
		h.Close()
		if err := r.Evict("t"); err != nil {
			t.Fatal(err)
		}
		if n := st.PoolPinned(); n != 0 {
			t.Fatalf("the evicted tenant still pins %d frames", n)
		}
	}
	return r.MetricsSnapshot(), evictions
}

// Idle evictions: every one is an LRU admission that closes the tenant,
// and every re-acquire opens it from disk.
func TestRegistryLRUEviction(t *testing.T) {
	snap, n := evictRun(t, idle)
	if got := snap.Counters["evictions_total"]; got != 2*n {
		t.Fatalf("evictions_total = %d, want %d", got, 2*n)
	}
	if got := snap.Counters["opens_total"]; got != 2*n+1 {
		t.Fatalf("opens_total = %d, want %d", got, 2*n+1)
	}
	if got := snap.Counters["drains_total"] + snap.Counters["revives_total"]; got != 0 {
		t.Fatalf("%d drains and revives of idle tenants", got)
	}
}

// Evictions under a held handle: every one drains and is revived; the
// tenant's directory is opened once.
func TestRegistryDrainByteIdentical(t *testing.T) {
	snap, n := evictRun(t, drain)
	for _, name := range []string{"evictions_total", "drains_total", "revives_total"} {
		if got := snap.Counters[name]; got != n {
			t.Fatalf("%s = %d, want %d", name, got, n)
		}
	}
	if got := snap.Counters["opens_total"]; got != 1 {
		t.Fatalf("opens_total = %d, want 1 (no double open)", got)
	}
}

// Evictions pressed by an admission while the handle is held: every one
// runs over MaxOpen and evicts the admitted tenant, never the held one.
func TestRegistryPinBlocksEviction(t *testing.T) {
	snap, n := evictRun(t, pressure)
	for name, want := range map[string]int64{"overage_admissions_total": n, "evictions_total": n + 1, "opens_total": n + 1, "drains_total": 0} {
		if got := snap.Counters[name]; got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
}
