package securexml

import (
	"math/rand"
	"testing"

	"dolxml/internal/xmlmodel"
)

// The registry imports this package, so its eviction configurations of
// the facade harness live in package securexml_test and reach the harness
// through these.

// ModelStore is the facade harness.
type ModelStore = modelStore

// NewTenant seals a harness store of about n nodes and saves it, closed,
// as the tenant directory dir.
func NewTenant(t *testing.T, rng *rand.Rand, n int, dir string) *ModelStore {
	ms := newModelStore(t, rng, n, false, StoreOptions{PageSize: 256})
	if err := ms.s.Save(dir); err != nil {
		t.Fatal(err)
	}
	ms.close()
	return ms
}

// Serve holds s, the tenant's store, to the model from now on; evict
// evicts the tenant and returns the store it answers with afterwards.
func (ms *modelStore) Serve(s *Store, evict func(what string) *Store) { ms.s, ms.evict = s, evict }

// Step draws an operation of the kinds, applies it and holds the store to
// the model.
func (ms *modelStore) Step(rng *rand.Rand, what string, kinds ...xmlmodel.Kind) {
	ms.step(rng, what, kinds...)
}

// Check holds the store to the model.
func (ms *modelStore) Check(what string) { ms.check(what) }
