package query

import (
	"errors"
	"sync"

	"dolxml/internal/obs"
)

// The memo's two bounds. Past either, it resets wholesale: distinct live
// patterns per snapshot are few, and an entry is rebuilt from the indexes
// alone.
const (
	maskCacheCap   = 256
	maskCacheBytes = 16 << 20
)

var errShapeBuildPanicked = errors.New("query: plan build panicked")

// maskEntry is one memoized shape. The map holds the entry from its first
// lookup on; once runs the build, so the goroutines that find the entry
// meanwhile wait for that one build instead of repeating it.
type maskEntry struct {
	seq   uint64
	once  sync.Once
	shape *compiledShape
	err   error
	// size is shape.size once the build has been accounted in the cache's
	// byte total; guarded by the cache's mutex.
	size int64
}

// MaskCache memoizes the view-independent half of query plans
// (compiledShape) per snapshot sequence, keyed by the pattern's canonical
// string, its returning node and the path-summary flag (PatternNode ids are
// assigned deterministically by the parser, so a shape built from one parse
// serves any reparse). The facade attaches one cache to each published
// index state; queries on the same snapshot then plan each distinct pattern
// once. Entries carry the publishing sequence and hit only on an exact
// match: every commit (structural or ACL-only) bumps the sequence, so a
// shape never outlives the path summary, directory and indexes it was
// computed from. A shape holds nothing that depends on a subject view.
type MaskCache struct {
	mu      sync.Mutex
	entries map[string]*maskEntry
	bytes   int64
	hits    *obs.Counter
	misses  *obs.Counter
}

// NewMaskCache returns an empty cache. hits/misses, when non-nil, receive
// one increment per lookup outcome.
func NewMaskCache(hits, misses *obs.Counter) *MaskCache {
	return &MaskCache{entries: make(map[string]*maskEntry), hits: hits, misses: misses}
}

// Bytes reports the memory the memoized shapes hold, as their builders
// sized them.
func (mc *MaskCache) Bytes() int64 {
	if mc == nil {
		return 0
	}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.bytes
}

// shapeFor returns the memoized shape for key at sequence seq, building and
// caching it on a miss (a nil cache always builds). The mutex guards the map
// alone: build runs under the entry's Once, so one pattern is built once
// however many queries ask for it at the same time, and distinct patterns
// build concurrently. A failed build (an error, or a panic, which propagates to
// the query that ran it) is handed to the queries waiting for it and
// forgotten.
func (mc *MaskCache) shapeFor(key string, seq uint64, build func() (*compiledShape, error)) (*compiledShape, error) {
	if mc == nil {
		return build()
	}
	mc.mu.Lock()
	e := mc.entries[key]
	hit := e != nil && e.seq == seq
	if !hit {
		if e != nil {
			mc.bytes -= e.size
		}
		if len(mc.entries) >= maskCacheCap || mc.bytes >= maskCacheBytes {
			mc.entries, mc.bytes = make(map[string]*maskEntry), 0
		}
		e = &maskEntry{seq: seq}
		mc.entries[key] = e
	}
	mc.mu.Unlock()
	ct := mc.misses
	if hit {
		ct = mc.hits
	}
	if ct != nil {
		ct.Inc()
	}
	e.once.Do(func() {
		// A build that panics leaves this error to the queries waiting for
		// it, and like any failed build it is forgotten.
		e.err = errShapeBuildPanicked
		defer func() {
			mc.mu.Lock()
			defer mc.mu.Unlock()
			// An entry replaced or dropped by a reset meanwhile is no longer
			// the cache's to account.
			if mc.entries[key] != e {
				return
			}
			if e.err != nil {
				delete(mc.entries, key)
				return
			}
			e.size = e.shape.size
			mc.bytes += e.size
		}()
		e.shape, e.err = build()
	})
	return e.shape, e.err
}
