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
// the positional index per decoded entry. A spliced block's offset marks,
// 2 bytes per markEvery entries, are left to the overhead.
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

// decEntry is one cached decoded block: its positional index and, once a
// splice has taken them, its offset marks. stamp is the last-use clock
// tick, updated atomically so cache hits never take the write lock. shared
// is set the first time a frozen clone reads the entry: from then on the
// slices are immutable, and only a writer that took an unshared entry out
// of the cache (take) may patch them in place.
type decEntry struct {
	slots  []slot
	marks  []uint16
	cost   int64
	stamp  atomic.Int64
	shared atomic.Bool
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

// get returns the cached decoding of the page, bumping its LRU stamp. A
// snapshot's read (share) marks the entry shared under the read lock,
// before it can hold the slice, so a writer that takes the entry later sees
// the mark; the mark is loaded first, so a hit stays write-free after the
// first.
func (c *decodeCache) get(pid storage.PageID, share bool) ([]slot, bool) {
	c.mu.RLock()
	e := c.m[pid]
	if e != nil && share && !e.shared.Load() {
		e.shared.Store(true)
	}
	c.mu.RUnlock()
	if e == nil {
		c.misses.Inc()
		return nil, false
	}
	e.stamp.Store(c.clock.Add(1))
	c.hits.Inc()
	return e.slots, true
}

// put caches a decoded block with its offset marks, or nil; shared says
// whether a snapshot holds the index already. Blocks larger than the whole
// budget are not cached.
func (c *decodeCache) put(pid storage.PageID, slots []slot, marks []uint16, shared bool) {
	cost := decodeCost(slots)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[pid]; ok || cost > c.budget {
		return
	}
	e := &decEntry{slots: slots, marks: marks, cost: cost}
	e.shared.Store(shared)
	e.stamp.Store(c.clock.Add(1))
	c.m[pid] = e
	c.bytes += cost
	c.evictLocked()
}

// take removes a page's cached decoding (after a rewrite) and returns it,
// or nil: no reader can find the entry afterwards, and every reader of a
// frozen clone that found it before has set its shared mark.
func (c *decodeCache) take(pid storage.PageID) *decEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.m[pid]
	if e != nil {
		c.bytes -= e.cost
		delete(c.m, pid)
	}
	return e
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
// decode_cache_bytes, …), and beside them the two code-only update counts,
// recode_splices and recode_relayouts.
func (s *Store) RegisterMetrics(reg *obs.Registry, prefix string) error {
	c := s.dec
	for _, m := range []struct {
		name, help string
		ctr        *obs.Counter
	}{
		{prefix + "_hits", "Block decodes served from the cache.", &c.hits},
		{prefix + "_misses", "Block decodes that had to run.", &c.misses},
		{prefix + "_evictions", "Decoded blocks evicted under the byte budget.", &c.evictions},
		{"recode_splices", "Code-only updates spliced into their block's page.", &s.recodes.splices},
		{"recode_relayouts", "Code-only updates that laid their blocks out again.", &s.recodes.relayouts},
	} {
		if err := reg.RegisterCounter(m.name, m.ctr); err != nil {
			return err
		}
		reg.SetHelp(m.name, m.help)
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
