package storage

import (
	"sync"
	"sync/atomic"
	"time"
)

// Version is one published, immutable state of a store. A version is born
// when a commit publishes it and stays live while anything holds a
// reference: the table itself keeps one reference on the current version,
// and every pinned reader holds one more. When the last reference drops,
// the version retires and any pages freed *after* it was published become
// eligible for reuse (no snapshot at or before that point can still read
// them).
type Version struct {
	vt   *VersionTable
	seq  uint64
	born time.Time
	refs atomic.Int64
}

// Seq returns the version's sequence number. Sequence numbers start at 1
// and increase by one per publish.
func (v *Version) Seq() uint64 { return v.seq }

// TryPin takes an additional reference on the version. It fails only when
// the version has already retired (its reference count reached zero),
// which can happen if a publish raced the caller's load of the current
// version; the caller should reload and retry.
func (v *Version) TryPin() bool {
	for {
		n := v.refs.Load()
		if n <= 0 {
			return false
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Unpin drops one reference. When the count reaches zero the version
// retires: it leaves the live set and releases any deferred page frees
// that were waiting on it.
func (v *Version) Unpin() {
	if v.refs.Add(-1) == 0 {
		v.vt.retire(v)
	}
}

type pendingFree struct {
	seq  uint64 // version whose publish freed the page
	page PageID
}

// VersionTable tracks the live set of published versions and defers reuse
// of freed pages until no live version can still reference them. It is the
// MVCC backbone for shadow-paged stores: writers only ever write freshly
// allocated (or safely harvested) pages, so a page's content is immutable
// for as long as any pinned version references it, and the table's job
// reduces to deciding when "as long as" is over.
//
// Pages freed while building version N are tagged with N at publish time
// and become reusable once the minimum live sequence number is ≥ N: every
// remaining reader then sees a state in which the page is already free.
type VersionTable struct {
	mu       sync.Mutex
	cur      *Version
	live     map[uint64]*Version
	pending  []pendingFree
	reusable []PageID
}

// NewVersionTable returns a table with an initial current version (seq 1)
// holding the table's own reference.
func NewVersionTable() *VersionTable {
	vt := &VersionTable{live: make(map[uint64]*Version)}
	v := &Version{vt: vt, seq: 1, born: time.Now()}
	v.refs.Store(1)
	vt.cur = v
	vt.live[v.seq] = v
	return vt
}

// Current returns the current version without pinning it. Callers that
// need the version to stay valid pin it with TryPin, reloading Current
// when TryPin fails.
func (vt *VersionTable) Current() *Version {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	return vt.cur
}

// Publish registers the successor of the current version and returns it.
// The pages in freed were released by the commit being published; they
// stay quarantined until every version preceding the new one has retired.
// The new version starts with one reference (the table's), and the table's
// reference on the previous version is dropped — with no readers pinning
// it, the previous version retires immediately.
func (vt *VersionTable) Publish(freed []PageID) *Version {
	vt.mu.Lock()
	prev := vt.cur
	v := &Version{vt: vt, seq: prev.seq + 1, born: time.Now()}
	v.refs.Store(1)
	vt.cur = v
	vt.live[v.seq] = v
	for _, p := range freed {
		vt.pending = append(vt.pending, pendingFree{seq: v.seq, page: p})
	}
	vt.mu.Unlock()
	prev.Unpin()
	return v
}

// retire removes v from the live set and promotes any pending frees whose
// publishing version is now at or below the minimum live sequence.
func (vt *VersionTable) retire(v *Version) {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	delete(vt.live, v.seq)
	minLive := ^uint64(0)
	for seq := range vt.live {
		if seq < minLive {
			minLive = seq
		}
	}
	kept := vt.pending[:0]
	for _, pf := range vt.pending {
		if pf.seq <= minLive {
			vt.reusable = append(vt.reusable, pf.page)
		} else {
			kept = append(kept, pf)
		}
	}
	vt.pending = kept
}

// Harvest returns every page whose quarantine has ended and removes them
// from the table. The caller owns the returned pages and may overwrite
// them.
func (vt *VersionTable) Harvest() []PageID {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	if len(vt.reusable) == 0 {
		return nil
	}
	out := vt.reusable
	vt.reusable = nil
	return out
}

// LiveVersions returns the number of live (unretired) versions, including
// the current one. A quiescent store reports 1; anything higher means a
// reader still pins an older version.
func (vt *VersionTable) LiveVersions() int {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	return len(vt.live)
}

// OldestPinnedAge returns how long the oldest non-current live version has
// been alive, or zero when only the current version is live. It measures
// retirement lag induced by long-running readers.
func (vt *VersionTable) OldestPinnedAge(now time.Time) time.Duration {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	var oldest *Version
	for _, v := range vt.live {
		if v == vt.cur {
			continue
		}
		if oldest == nil || v.seq < oldest.seq {
			oldest = v
		}
	}
	if oldest == nil {
		return 0
	}
	return now.Sub(oldest.born)
}
