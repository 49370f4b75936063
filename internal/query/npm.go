package query

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/obs"
	"dolxml/internal/xmltree"
)

// binding records where a pattern node matched and at what depth.
type binding struct {
	node  xmltree.NodeID
	level int
}

// subtreeMatch is one successful NoK-subtree match: a consistent assignment
// of its tracked pattern nodes (the subtree root, link sources and the
// returning node).
type subtreeMatch struct {
	bindings map[*PatternNode]binding
}

// matcher runs ε-NoK pattern matching (Algorithm 1 of the paper) over a
// NoK structure store. Like the paper's recursive NPM it scans each
// matched node's children once with FIRST-CHILD/FOLLOWING-SIBLING and
// checks accessibility as nodes stream off their blocks; unlike the
// paper's pseudo-code, which keeps the first witness per pattern child, it
// enumerates every binding of the *tracked* pattern nodes (the returning
// node and the link sources feeding structural joins), collapsing all
// untracked subtrees existentially — the completion needed for "the nodes
// in the data tree that match [the returning] node" to all be returned.
type matcher struct {
	store  *nok.Store
	values *nok.ValueStore
	// view makes the access decisions; nil means non-secure evaluation.
	view *dol.SubjectView
	// tracked marks the pattern nodes whose bindings must be recorded.
	tracked map[*PatternNode]bool
	// hasTracked caches, per pattern node, whether its NoK subtree
	// fragment contains a tracked node. It is filled by prepare before
	// matching begins; afterwards the matcher is read-only and may be
	// shared by parallel workers.
	hasTracked map[*PatternNode]bool
	// masks is the query's compiled skip mask (nil when both access and
	// structural skipping are disabled).
	masks *skipMask
	// scanSkip holds, per pattern node with child-axis children, the fused
	// skip state its child scans consult. Filled by prepare; read-only
	// afterwards.
	scanSkip map[*PatternNode]*nodeSkip
	// tagCode, indexed by PatternNode.id, is each pattern node's tag
	// constraint resolved against the store's tag table: a tag code,
	// tagAny for "*", tagAbsent for a tag the document does not contain.
	// Filled by prepare.
	tagCode []int32
	// preAllow, indexed by PatternNode.id, marks pattern nodes whose child
	// scans need no per-node access checks: every path class the scan can
	// accept is uniformly allowed to the view. preAllowRoot is the same
	// verdict for subtree-root candidates. Both nil when path routing is
	// off. (A pre-allowed scan may admit off-path nodes; those produce
	// only join-doomed matches, so answers are unchanged.)
	preAllow     []bool
	preAllowRoot []bool
	// trace, when non-nil, receives candidate-reject and merge-chunk
	// events (page pins and skips are recorded elsewhere).
	trace *obs.Trace
}

// Resolved tag constraints that are not tag codes (which are ≥ 0).
const (
	tagAny    int32 = -1
	tagAbsent int32 = -2
)

// nodeSkip pairs one pattern node's fused skip bitmap with its counting
// scan predicate. The bitmap answers "is this page dead to the scan?"
// without touching the skip counters; fn is handed to the store's sibling
// scans, which call it exactly once per block they actually pass over, so
// the counters stay an honest census of avoided reads.
type nodeSkip struct {
	bits []uint64
	fn   func(int) bool
}

// masked is the count-free probe of the fused bitmap.
func (ns *nodeSkip) masked(i int) bool { return hasBit(ns.bits, i) }

// scanPreAllowed reports that p's child scans carry a pre-resolved allow
// verdict for every acceptable path class.
func (m *matcher) scanPreAllowed(p *PatternNode) bool {
	return m.preAllow != nil && p.id < len(m.preAllow) && m.preAllow[p.id]
}

// rootPreAllowed is the candidate-root counterpart of scanPreAllowed.
func (m *matcher) rootPreAllowed(root *PatternNode) bool {
	return m.preAllowRoot != nil && root.id < len(m.preAllowRoot) && m.preAllowRoot[root.id]
}

// prepare precomputes every lazily derived field for the given
// decomposition, leaving the matcher immutable. Required before sharing the
// matcher across goroutines.
func (m *matcher) prepare(subs []NoKSubtree) {
	for i := range subs {
		m.trackedIn(subs[i].Root)
	}
	if m.masks != nil {
		m.scanSkip = make(map[*PatternNode]*nodeSkip)
	}
	var walk func(p *PatternNode)
	walk = func(p *PatternNode) {
		for len(m.tagCode) <= p.id {
			m.tagCode = append(m.tagCode, tagAbsent)
		}
		if p.Tag == "*" {
			m.tagCode[p.id] = tagAny
		} else if code, ok := m.store.LookupTag(p.Tag); ok {
			m.tagCode[p.id] = code
		}
		if m.masks != nil && len(nokChildren(p)) > 0 {
			if fn := m.masks.scanSkipFn(p); fn != nil {
				m.scanSkip[p] = &nodeSkip{bits: m.masks.nodeBits(p), fn: fn}
			}
		}
		for _, c := range p.Children {
			walk(c)
		}
	}
	for i := range subs {
		walk(subs[i].Root)
	}
}

// trackedIn reports whether p's child-axis pattern fragment contains a
// tracked node.
func (m *matcher) trackedIn(p *PatternNode) bool {
	if v, ok := m.hasTracked[p]; ok {
		return v
	}
	v := m.tracked[p]
	for _, c := range nokChildren(p) {
		if m.trackedIn(c) {
			v = true
		}
	}
	if m.hasTracked == nil {
		m.hasTracked = make(map[*PatternNode]bool)
	}
	m.hasTracked[p] = v
	return v
}

// matchesNode checks proot's tag constraint against a node's tag code.
func (m *matcher) matchesNode(proot *PatternNode, tag int32) bool {
	want := m.tagCode[proot.id]
	return want == tag || want == tagAny
}

func (m *matcher) matchesValue(ctx context.Context, proot *PatternNode, u xmltree.NodeID) (bool, error) {
	if proot.Value == "" {
		return true, nil
	}
	if m.values == nil {
		return false, nil
	}
	v, err := m.values.ValueCtx(ctx, u)
	if err != nil {
		return false, err
	}
	return v == proot.Value, nil
}

// combo is one consistent assignment of tracked pattern nodes.
type combo map[*PatternNode]binding

func comboKey(c combo) string {
	type kv struct {
		id int
		n  xmltree.NodeID
	}
	var kvs []kv
	for p, b := range c {
		kvs = append(kvs, kv{p.id, b.node})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].id < kvs[j].id })
	var sb strings.Builder
	for _, e := range kvs {
		fmt.Fprintf(&sb, "%d:%d;", e.id, e.n)
	}
	return sb.String()
}

// emitFn consumes one completed tracked-binding combination; returning
// false stops the enumeration (early termination) and unwinds the whole
// match.
type emitFn func(combo) bool

// npmStream matches proot's NoK fragment at data node u (whose tag, value
// and accessibility the caller has verified), emitting each distinct
// tracked-binding combination the moment its last component is discovered
// instead of materializing a cross product after the child scan. It
// reports whether the fragment matched and whether the consumer stopped
// the enumeration early.
//
// Incremental emission rule: a product (c_1, …, c_k) over the tracked
// children's combos is emitted exactly once, when its last-arriving
// component arrives. The first time every pattern child is matched, the
// full cross product of the combos collected so far goes out; every later
// combo arrival for child i emits only the products that pin child i to
// the new combo. Per-child dedup happens on arrival (comboKey), matching
// the pre-product dedup of a batch cross product, so the emitted multiset
// is exactly the batch product — but the first combination surfaces as
// soon as the first witness of every child has been seen, which is what
// lets Limit-bounded queries stop their page reads mid-scan.
//
// cur is the calling goroutine's block cursor: the scan's navigation, tag
// and access checks of the nodes of one block cost one block visit.
func (m *matcher) npmStream(ctx context.Context, cur *nok.Cursor, proot *PatternNode, u binding, emit emitFn) (bool, bool, error) {
	s := nokChildren(proot)
	if len(s) == 0 {
		c := combo{}
		if m.tracked[proot] {
			c[proot] = u
		}
		return true, !emit(c), nil
	}

	trackedChild := make([]bool, len(s))
	anyTracked := false
	for i, pc := range s {
		trackedChild[i] = m.trackedIn(pc)
		anyTracked = anyTracked || trackedChild[i]
	}

	var (
		matched  = make([]bool, len(s))
		nMatched int
		complete bool // every pattern child matched at least once
		combosOf = make([][]combo, len(s))
		seen     = make([]map[string]bool, len(s))
		acc      = combo{} // scratch assignment for product enumeration
	)

	// product emits the cross product of the collected combos, with child
	// `fixed` (when >= 0) pinned to fixedCombo, adding proot's own binding
	// when tracked. Returns false when the consumer stopped.
	product := func(fixed int, fixedCombo combo) bool {
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == len(s) {
				out := make(combo, len(acc)+1)
				for p, b := range acc {
					out[p] = b
				}
				if m.tracked[proot] {
					out[proot] = u
				}
				return emit(out)
			}
			if !trackedChild[i] {
				return rec(i + 1)
			}
			list := combosOf[i]
			if i == fixed {
				list = []combo{fixedCombo}
			}
			for _, c := range list {
				for p, b := range c {
					acc[p] = b
				}
				ok := rec(i + 1)
				for p := range c {
					delete(acc, p)
				}
				if !ok {
					return false
				}
			}
			return true
		}
		return rec(0)
	}

	// arrive records a combo from tracked child i, emitting the products
	// it completes. Returns false when the consumer stopped.
	arrive := func(i int, c combo) bool {
		if seen[i] == nil {
			seen[i] = make(map[string]bool)
		}
		k := comboKey(c)
		if seen[i][k] {
			return true
		}
		seen[i][k] = true
		combosOf[i] = append(combosOf[i], c)
		if !matched[i] {
			matched[i] = true
			nMatched++
		}
		if nMatched < len(s) {
			return true
		}
		if !complete {
			complete = true
			return product(-1, nil)
		}
		return product(i, c)
	}

	// existMatch records that untracked child i matched. Returns false
	// when the consumer stopped.
	existMatch := func(i int) bool {
		if matched[i] {
			return true
		}
		matched[i] = true
		nMatched++
		if nMatched == len(s) && !complete {
			complete = true
			return product(-1, nil)
		}
		return true
	}

	childLevel := u.level + 1
	// The scan consults proot's fused bitmap, skipping blocks that are
	// wholly inaccessible (§3.3) or that hold no path class proot's pattern
	// children can bind; nil when the query compiled no mask for it.
	ns := m.scanSkip[proot]
	var skip func(int) bool
	if ns != nil {
		skip = ns.fn
	}
	// When path routing proved every class this scan can accept uniformly
	// allowed, the per-node access check is redundant and skipped.
	checkAccess := m.view != nil && !m.scanPreAllowed(proot)
	v, err := cur.FirstChild(ctx, u.node)
	if err != nil {
		return false, false, err
	}
	for v != xmltree.InvalidNode {
		if ns != nil {
			// Block-boundary fast path: when the scan lands on the first
			// node of a block the fused mask excludes, the whole block is
			// known unmatchable — dispose of it (and any further maskable
			// blocks) from the directory without pinning a frame. Only a
			// block-first v qualifies: mid-block, the block also holds the
			// prefix up to v, so its directory depths do not describe the
			// remainder alone.
			if k := cur.BlockOf(v); ns.masked(k) && m.store.PageInfoAt(k).FirstNode == v {
				v, err = cur.NextSiblingFromBlock(ctx, k, childLevel, skip)
				if err != nil {
					return false, false, err
				}
				continue
			}
		}
		info, err := cur.Info(ctx, v)
		if err != nil {
			return false, false, err
		}
		// The access check while the block is at hand (§3.3): the code in
		// force came with the node.
		if !checkAccess || m.view.CodeAllowed(info.Code) {
			allDone := true
			for i, pc := range s {
				if matched[i] && !trackedChild[i] {
					continue // existential child already satisfied
				}
				if !m.matchesNode(pc, info.Entry.Tag) {
					if !matched[i] {
						allDone = false
					}
					continue
				}
				ok, err := m.matchesValue(ctx, pc, v)
				if err != nil {
					return false, false, err
				}
				if !ok {
					if !matched[i] {
						allDone = false
					}
					continue
				}
				i := i
				sub, stopped, err := m.npmStream(ctx, cur, pc, binding{v, info.Level}, func(c combo) bool {
					if !trackedChild[i] {
						// Existential fragment: only the fact that it
						// matched matters, handled below.
						return true
					}
					return arrive(i, c)
				})
				if err != nil {
					return false, false, err
				}
				if stopped {
					return false, true, nil
				}
				if sub && !trackedChild[i] && !existMatch(i) {
					return false, true, nil
				}
				if !matched[i] {
					allDone = false
				}
			}
			// Early exit: everything matched and no tracked child needs
			// further enumeration.
			if allDone && !anyTracked {
				break
			}
		}
		v, err = cur.FollowingSibling(ctx, v, skip)
		if err != nil {
			return false, false, err
		}
	}
	return nMatched == len(s), false, nil
}

// matchCandidate runs ε-NoK matching for one root candidate (normally a
// tag-index posting), streaming each successful match to emit. It reports
// whether emit stopped the enumeration early.
func (m *matcher) matchCandidate(ctx context.Context, cur *nok.Cursor, sub NoKSubtree, c btree.Posting, emit func(subtreeMatch) bool) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	// Pre-condition of Algorithm 1: the data-tree root of the match must
	// itself be accessible. When the deny bitmap covers the candidate's
	// whole page, that settles it from the directory alone — no block read.
	if m.masks != nil {
		if pi := cur.BlockOf(c.Node); m.masks.pageDenied(pi) {
			m.masks.candCt.Inc()
			// Attribute the reject to the operator stamped on ctx (the
			// owning scan) when the pipeline provided one.
			tr := obs.TraceFromContext(ctx)
			if tr == nil {
				tr = m.trace
			}
			tr.CandidateReject(int64(c.Node), m.masks.pageIDOf(pi))
			return false, nil
		}
	}
	info, err := cur.Info(ctx, c.Node)
	if err != nil {
		return false, err
	}
	if m.view != nil && !m.rootPreAllowed(sub.Root) && !m.view.CodeAllowed(info.Code) {
		return false, nil
	}
	if !m.matchesNode(sub.Root, info.Entry.Tag) {
		return false, nil
	}
	ok, err := m.matchesValue(ctx, sub.Root, c.Node)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	rootBind := binding{c.Node, int(c.Level)}
	_, stopped, err := m.npmStream(ctx, cur, sub.Root, rootBind, func(cb combo) bool {
		return emit(subtreeMatch{bindings: cb})
	})
	return stopped, err
}

// matchSubtree collects every match of the given root candidates, in
// candidate order — the materialized form used by the parallel match
// cursor's chunk workers.
func (m *matcher) matchSubtree(ctx context.Context, cur *nok.Cursor, sub NoKSubtree, candidates []btree.Posting) ([]subtreeMatch, error) {
	var out []subtreeMatch
	for _, c := range candidates {
		_, err := m.matchCandidate(ctx, cur, sub, c, func(sm subtreeMatch) bool {
			out = append(out, sm)
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
