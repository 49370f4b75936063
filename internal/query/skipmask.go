package query

import (
	"dolxml/internal/nok"
	"dolxml/internal/obs"
)

// SkipStats count the pages a query's evaluation avoided reading, split by
// the evidence that justified each skip. Counters are per skip event: a
// block passed over by several scans counts once per scan, mirroring the
// reads it would otherwise have cost.
type SkipStats struct {
	// AccessPages counts scan blocks skipped because the subject view's
	// page-deny bitmap proves every node in them inaccessible (§3.3).
	AccessPages int64
	// Candidates counts root candidates rejected by the page-deny bitmap
	// alone, before any page was read for them.
	Candidates int64
	// PathClasses counts path classes whose access verdict the query
	// resolved once from a uniform code instead of per candidate node.
	PathClasses int64
	// PathEmpty is 1 when the path summary (or the view's verdicts over
	// it) proved the query empty before any page was pinned.
	PathEmpty int64
}

// skipMask is one query's §3.3 page-skip state: the subject view's
// page-deny bitmap, with the counters of the skips and rejections it
// justified. Every probe during evaluation is a single uint64-word bitmap
// test; building it touches only in-memory state and performs no page I/O.
type skipMask struct {
	// access is the view's page-deny bitmap, shared read-only with the
	// view's cache.
	access []uint64
	// pages is the store's page directory, for resolving a block index to
	// its storage page when recording trace events.
	pages []nok.PageInfo

	accessCt obs.Counter
	candCt   obs.Counter
}

// stats snapshots the mask's counters.
func (sm *skipMask) stats() SkipStats {
	if sm == nil {
		return SkipStats{}
	}
	return SkipStats{
		AccessPages: sm.accessCt.Load(),
		Candidates:  sm.candCt.Load(),
	}
}

// pageIDOf resolves block index i to its storage page for trace events.
func (sm *skipMask) pageIDOf(i int) int64 {
	if sm == nil || i < 0 || i >= len(sm.pages) {
		return -1
	}
	return int64(sm.pages[i].Page)
}

// pageDenied reports whether the deny bitmap covers page i (meaning every
// node on it is inaccessible to the view).
func (sm *skipMask) pageDenied(i int) bool {
	return sm != nil && hasBit(sm.access, i)
}

// scanSkipFn returns the skip predicate a child scan should pass to the
// store's sibling scans, or nil when nothing can be skipped. The predicate
// counts each skip and records it on tr (the handle of the scan operator
// the scan belongs to; may be nil).
func (sm *skipMask) scanSkipFn(tr *obs.Trace) func(int) bool {
	if sm == nil || sm.access == nil {
		return nil
	}
	return func(i int) bool {
		if !hasBit(sm.access, i) {
			return false
		}
		sm.accessCt.Inc()
		if tr != nil {
			tr.PageSkip(sm.pageIDOf(i))
		}
		return true
	}
}
