package nok

import (
	"sync"
	"sync/atomic"

	"dolxml/internal/obs"
	"dolxml/internal/storage"
)

// DefaultDecodeCacheBudget is the default byte budget of the decoded-block
// cache (≈ 1 MiB of decoded entries, some 35 blocks at the default page
// size).
const DefaultDecodeCacheBudget = 1 << 20

// decEntryOverhead and decEntryCostPerEntry are the in-memory cost of one
// cached block: map bucket + header overhead plus the size of one slot of
// the positional index per decoded entry.
const (
	decEntryOverhead     = 64
	decEntryCostPerEntry = 16
)

// DecodeCacheStats report the decoded-block cache's behavior, the decode
// analogue of storage.PoolStats.
type DecodeCacheStats struct {
	// Hits and Misses count lookups served from / missing the cache.
	Hits, Misses int64
	// Evictions counts entries removed to stay within the byte budget.
	Evictions int64
	// Entries and Bytes describe the current contents; Budget is the
	// configured byte ceiling (0 disables caching).
	Entries int
	Bytes   int64
	Budget  int64
}

// decEntry is one cached decoded block. The slots slice is immutable once
// published; stamp is the last-use clock tick, updated atomically so cache
// hits never take the write lock.
type decEntry struct {
	slots []slot
	cost  int64
	stamp atomic.Int64
}

// decodeCache is a byte-budgeted LRU over decoded blocks. Lookups take the
// read lock only (concurrent queries do not serialize on hits); inserts
// and invalidations take the write lock and evict the least-recently-used
// entries until the budget holds. LRU order comes from per-entry atomic
// clock stamps, so the eviction scan is O(entries) — tens of entries at
// realistic budgets.
type decodeCache struct {
	mu     sync.RWMutex
	m      map[storage.PageID]*decEntry
	bytes  int64
	budget int64

	clock atomic.Int64
	// Registered under decode_cache_* via Store.RegisterMetrics.
	hits, misses, evictions obs.Counter
}

func newDecodeCache(budget int64) *decodeCache {
	if budget < 0 {
		budget = 0
	}
	return &decodeCache{m: make(map[storage.PageID]*decEntry), budget: budget}
}

func decodeCost(blk []slot) int64 {
	return decEntryOverhead + int64(len(blk))*decEntryCostPerEntry
}

// get returns the cached decoding of the page, bumping its LRU stamp.
func (c *decodeCache) get(pid storage.PageID) ([]slot, bool) {
	c.mu.RLock()
	e := c.m[pid]
	c.mu.RUnlock()
	if e == nil {
		c.misses.Inc()
		return nil, false
	}
	e.stamp.Store(c.clock.Add(1))
	c.hits.Inc()
	return e.slots, true
}

// put caches a decoded block. The slice becomes shared and must never be
// mutated. Blocks larger than the whole budget are not cached.
func (c *decodeCache) put(pid storage.PageID, blk []slot) {
	cost := decodeCost(blk)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[pid]; ok || cost > c.budget {
		return
	}
	e := &decEntry{slots: blk, cost: cost}
	e.stamp.Store(c.clock.Add(1))
	c.m[pid] = e
	c.bytes += cost
	c.evictLocked()
}

// evictLocked removes least-recently-used entries until bytes ≤ budget.
// Caller holds the write lock.
func (c *decodeCache) evictLocked() {
	for c.bytes > c.budget && len(c.m) > 0 {
		var victim storage.PageID
		best := int64(1<<63 - 1)
		for pid, e := range c.m {
			if s := e.stamp.Load(); s < best {
				best = s
				victim = pid
			}
		}
		c.bytes -= c.m[victim].cost
		delete(c.m, victim)
		c.evictions.Inc()
	}
}

// invalidate drops a page's cached decoding (after a rewrite).
func (c *decodeCache) invalidate(pid storage.PageID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[pid]; ok {
		c.bytes -= e.cost
		delete(c.m, pid)
	}
}

// setBudget adjusts the byte ceiling, evicting down to it immediately.
// A budget ≤ 0 disables caching and drops the current contents.
func (c *decodeCache) setBudget(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if budget < 0 {
		budget = 0
	}
	c.budget = budget
	c.evictLocked()
}

func (c *decodeCache) stats() DecodeCacheStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return DecodeCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   len(c.m),
		Bytes:     c.bytes,
		Budget:    c.budget,
	}
}

// SetDecodeCacheBudget sets the decoded-block cache's byte budget; ≤ 0
// disables decode caching entirely (pages still flow through the buffer
// pool as usual).
func (s *Store) SetDecodeCacheBudget(budget int64) { s.dec.setBudget(budget) }

// DecodeCacheStats returns the decoded-block cache's counters.
func (s *Store) DecodeCacheStats() DecodeCacheStats { return s.dec.stats() }

// RegisterMetrics registers the decode cache's counters and content gauges
// with reg under prefix (prefix "decode_cache" yields decode_cache_hits,
// decode_cache_bytes, …).
func (s *Store) RegisterMetrics(reg *obs.Registry, prefix string) error {
	c := s.dec
	for _, m := range []struct {
		name, help string
		ctr        *obs.Counter
	}{
		{"hits", "Block decodes served from the cache.", &c.hits},
		{"misses", "Block decodes that had to run.", &c.misses},
		{"evictions", "Decoded blocks evicted under the byte budget.", &c.evictions},
	} {
		if err := reg.RegisterCounter(prefix+"_"+m.name, m.ctr); err != nil {
			return err
		}
		reg.SetHelp(prefix+"_"+m.name, m.help)
	}
	for _, g := range []struct {
		name, help string
		fn         obs.Gauge
	}{
		{"entries", "Decoded blocks resident in the cache.", func() int64 { return int64(c.stats().Entries) }},
		{"bytes", "Bytes held by resident decoded blocks.", func() int64 { return c.stats().Bytes }},
		{"budget_bytes", "Configured decode-cache byte budget.", func() int64 { return c.stats().Budget }},
	} {
		if err := reg.RegisterGauge(prefix+"_"+g.name, g.fn); err != nil {
			return err
		}
		reg.SetHelp(prefix+"_"+g.name, g.help)
	}
	return nil
}
