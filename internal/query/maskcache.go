package query

import (
	"sync"

	"dolxml/internal/obs"
)

// maskCacheCap bounds the number of memoized shapes; past it the cache
// resets wholesale (distinct live patterns per snapshot are few).
const maskCacheCap = 256

type maskEntry struct {
	seq   uint64
	shape *compiledShape
}

// MaskCache memoizes compiled query shapes per snapshot sequence, keyed by
// the pattern's canonical string (PatternNode ids are assigned
// deterministically by the parser, so a shape compiled from one parse
// applies to any reparse). The facade attaches one cache to each published
// index state; queries on the same snapshot then compile each distinct
// pattern once. Entries carry the publishing sequence and hit only on an
// exact match: every commit (structural or ACL-only) bumps the sequence,
// so shapes never outlive the path summary they were computed from.
type MaskCache struct {
	mu      sync.Mutex
	entries map[string]*maskEntry
	hits    *obs.Counter
	misses  *obs.Counter
}

// NewMaskCache returns an empty cache. hits/misses, when non-nil, receive
// one increment per lookup outcome.
func NewMaskCache(hits, misses *obs.Counter) *MaskCache {
	return &MaskCache{entries: make(map[string]*maskEntry), hits: hits, misses: misses}
}

// shapeFor returns the memoized shape for key at sequence seq, building
// and caching it on a miss (a nil cache always builds). build runs under
// the cache lock: it is pure in-memory work (no page I/O), and serializing
// concurrent compilations of the same pattern is the point.
func (mc *MaskCache) shapeFor(key string, seq uint64, build func() *compiledShape) *compiledShape {
	if mc == nil {
		return build()
	}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if e := mc.entries[key]; e != nil && e.seq == seq {
		if mc.hits != nil {
			mc.hits.Inc()
		}
		return e.shape
	}
	if mc.misses != nil {
		mc.misses.Inc()
	}
	sh := build()
	if len(mc.entries) >= maskCacheCap {
		mc.entries = make(map[string]*maskEntry)
	}
	mc.entries[key] = &maskEntry{seq: seq, shape: sh}
	return sh
}
