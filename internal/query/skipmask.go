package query

import (
	"dolxml/internal/dol"
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
	// StructPages counts scan blocks skipped because the per-page
	// structural summary proves they contain nothing the current pattern
	// step could match.
	StructPages int64
	// Candidates counts root candidates rejected by the page-deny bitmap
	// alone, before any page was read for them.
	Candidates int64
	// PathCandidates counts root candidates rejected because the path
	// summary proves their block holds no class the subtree root can bind.
	PathCandidates int64
	// JoinCandidates counts root candidates, routed in by the path summary,
	// that the structural semi-join on the index postings removed: no
	// posting of a joined subtree lies where they could pair with it.
	JoinCandidates int64
	// PathClasses counts path classes whose access verdict the query
	// resolved once from a uniform code instead of per candidate node.
	PathClasses int64
	// PathEmpty is 1 when the path summary (or the view's verdicts over
	// it) proved the query empty before any page was pinned.
	PathEmpty int64
}

// skipMask is one query's compiled page-skip state: the subject view's
// page-deny bitmap fused, per pattern node, with the pages the path summary
// proves hold no class that node's child scan can bind. Every probe during
// evaluation is a single uint64-word bitmap test; compilation itself
// touches only in-memory state (directory, path summary, deny bitmap) and
// performs no page I/O.
type skipMask struct {
	// access is the view's page-deny bitmap (nil without a view or with
	// access skipping disabled). Shared read-only with the view's cache;
	// used for skip attribution, for candidate rejection, and as the mask
	// of scans that have no structural refinement.
	access []uint64
	// perNode maps a pattern node with child-axis children to the fused
	// mask its child scans consult: access plus the shape's dead pages. A
	// scan of p's children may skip such a page because unmatched siblings
	// are never descended into — the page can only hold unmatchable
	// siblings and their subtrees.
	perNode map[*PatternNode][]uint64
	// pages is the store's page directory, for resolving a block index to
	// its storage page when recording trace events.
	pages []nok.PageInfo

	accessCt obs.Counter
	structCt obs.Counter
	candCt   obs.Counter
}

// stats snapshots the mask's counters.
func (sm *skipMask) stats() SkipStats {
	if sm == nil {
		return SkipStats{}
	}
	return SkipStats{
		AccessPages: sm.accessCt.Load(),
		StructPages: sm.structCt.Load(),
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

// nodeBits returns the fused bitmap a child scan of pattern node p consults
// (read-only), or nil when the mask has nothing for it.
func (sm *skipMask) nodeBits(p *PatternNode) []uint64 {
	if sm == nil {
		return nil
	}
	if bits := sm.perNode[p]; bits != nil {
		return bits
	}
	return sm.access
}

// scanSkipFn returns the skip predicate a child scan of pattern node p
// should pass to the store's sibling scans, or nil when nothing can be
// skipped. The predicate attributes each skip to access control when the
// deny bitmap alone suffices, otherwise to the path summary, and records it
// on tr (the handle of the scan operator p belongs to; may be nil).
func (sm *skipMask) scanSkipFn(p *PatternNode, tr *obs.Trace) func(int) bool {
	bits := sm.nodeBits(p)
	if bits == nil {
		return nil
	}
	access := sm.access
	return func(i int) bool {
		if i < 0 || i>>6 >= len(bits) {
			return false
		}
		b := uint64(1) << (uint(i) & 63)
		if bits[i>>6]&b == 0 {
			return false
		}
		byAccess := access != nil && access[i>>6]&b != 0
		if byAccess {
			sm.accessCt.Inc()
		} else {
			sm.structCt.Inc()
		}
		if tr != nil {
			tr.PageSkip(sm.pageIDOf(i), byAccess)
		}
		return true
	}
}

// fuseMask combines the view's page-deny bitmap (accessSkip, §3.3) with
// the shape's per-node dead pages (structSkip) into the mask evaluation
// consults. With neither it returns nil and scans run unassisted.
// Compilation touches only in-memory state and performs no page I/O.
func fuseMask(st *nok.Store, shape *compiledShape, view *dol.SubjectView, accessSkip, structSkip bool) *skipMask {
	if !accessSkip && !structSkip {
		return nil
	}
	sm := &skipMask{pages: st.Directory()}
	if accessSkip {
		sm.access = view.PageDenyBits()
	}
	if !structSkip {
		return sm
	}
	sm.perNode = make(map[*PatternNode][]uint64)
	for _, p := range shape.t.nodes {
		dead := shape.dead[p.id]
		if dead == nil {
			continue
		}
		bits := make([]uint64, len(dead))
		copy(bits, sm.access) // nil access copies nothing
		for i := range bits {
			bits[i] |= dead[i]
		}
		sm.perNode[p] = bits
	}
	return sm
}
