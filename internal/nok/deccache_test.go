package nok

import (
	"math/rand"
	"testing"

	"dolxml/internal/storage"
	"dolxml/internal/xmlmodel"
)

func TestDecodeCacheLRUEviction(t *testing.T) {
	es := make([]slot, 10)
	cost := decodeCost(es)
	c := newDecodeCache(3 * cost) // room for exactly three blocks
	for pid := storage.PageID(1); pid <= 3; pid++ {
		c.put(pid, es, nil, false)
	}
	// Touch 1 and 2 so 3 becomes the least recently used.
	if _, ok := c.get(1, false); !ok {
		t.Fatal("page 1 should be cached")
	}
	if _, ok := c.get(2, false); !ok {
		t.Fatal("page 2 should be cached")
	}
	c.put(4, es, nil, false)
	if _, ok := c.get(3, false); ok {
		t.Fatal("page 3 should have been evicted as LRU")
	}
	for _, pid := range []storage.PageID{1, 2, 4} {
		if _, ok := c.get(pid, false); !ok {
			t.Fatalf("page %d should have survived eviction", pid)
		}
	}
	st := c.stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes != 3*cost {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

func TestDecodeCacheStatsAndInvalidate(t *testing.T) {
	es := make([]slot, 4)
	c := newDecodeCache(1 << 16)
	if _, ok := c.get(9, false); ok {
		t.Fatal("empty cache served a hit")
	}
	c.put(9, es, nil, false)
	if _, ok := c.get(9, false); !ok {
		t.Fatal("cached page missed")
	}
	c.take(9)
	if _, ok := c.get(9, false); ok {
		t.Fatal("invalidated page still cached")
	}
	st := c.stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDecodeCacheBudgetZeroDisables(t *testing.T) {
	es := make([]slot, 4)
	c := newDecodeCache(0)
	c.put(1, es, nil, false)
	if _, ok := c.get(1, false); ok {
		t.Fatal("zero-budget cache retained an entry")
	}
	// Shrinking the budget to zero drops existing contents.
	c2 := newDecodeCache(1 << 16)
	c2.put(1, es, nil, false)
	c2.setBudget(0)
	if _, ok := c2.get(1, false); ok {
		t.Fatal("setBudget(0) kept an entry")
	}
	if st := c2.stats(); st.Entries != 0 || st.Bytes != 0 || st.Budget != 0 {
		t.Fatalf("stats after disable: %+v", st)
	}
}

// Oversized blocks are passed through uncached rather than evicting the
// whole cache to make room.
func TestDecodeCacheOversizedBlock(t *testing.T) {
	small := make([]slot, 2)
	c := newDecodeCache(decodeCost(small) + 8)
	c.put(1, small, nil, false)
	c.put(2, make([]slot, 1000), nil, false)
	if _, ok := c.get(1, false); !ok {
		t.Fatal("oversized insert displaced a fitting entry")
	}
	if _, ok := c.get(2, false); ok {
		t.Fatal("oversized block should not be cached")
	}
}

// End-to-end: a store's scans populate the cache, rewrites invalidate the
// affected pages, and disabling the budget via the Store API stops caching
// without changing results.
func TestStoreDecodeCacheIntegration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	doc := xmlmodel.Doc(rng, 300, xmlmodel.Deep)
	s := buildStore(t, doc, 96, BuildOptions{})
	walk := func() int {
		count := 0
		if err := s.WalkSubtree(0, func(NodeInfo) bool { count++; return true }); err != nil {
			t.Fatal(err)
		}
		return count
	}
	n1 := walk()
	warm := s.DecodeCacheStats()
	if warm.Entries == 0 || warm.Hits == 0 {
		t.Fatalf("walks should populate and hit the cache: %+v", warm)
	}
	s.SetDecodeCacheBudget(0)
	if st := s.DecodeCacheStats(); st.Entries != 0 {
		t.Fatalf("disabling budget kept %d entries", st.Entries)
	}
	if n2 := walk(); n2 != n1 {
		t.Fatalf("walk results changed without cache: %d vs %d", n2, n1)
	}
	if st := s.DecodeCacheStats(); st.Entries != 0 {
		t.Fatal("disabled cache accepted entries")
	}
}
