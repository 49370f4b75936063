package query

import (
	"context"
	"slices"

	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/obs"
	"dolxml/internal/xmltree"
)

// binding records where a pattern node matched and at what depth. end is the
// last node of the matched node's subtree when the match came with it — a
// subtree root's, from its index posting — and InvalidNode otherwise.
type binding struct {
	node, end xmltree.NodeID
	level     int32
}

// unbound fills the tuple slots no match has written.
var unbound = binding{node: xmltree.InvalidNode, end: xmltree.InvalidNode}

// matcher runs ε-NoK pattern matching (Algorithm 1 of the paper) over a
// NoK structure store. Like the paper's recursive NPM it scans each
// matched node's children once with FIRST-CHILD/FOLLOWING-SIBLING and
// checks accessibility as nodes stream off their blocks; unlike the
// paper's pseudo-code, which keeps the first witness per pattern child, it
// enumerates every binding of the *tracked* pattern nodes (the returning
// node and the link sources feeding structural joins), collapsing all
// untracked subtrees existentially — the completion needed for "the nodes
// in the data tree that match [the returning] node" to all be returned.
//
// A matcher is immutable once prepare has run and is shared by a query's
// scans; what a match writes lives in each scan's matchState.
type matcher struct {
	store  *nok.Store
	values *nok.ValueStore
	// view makes the access decisions; nil means non-secure evaluation.
	view *dol.SubjectView
	// masks is the query's compiled skip mask (nil when both access and
	// structural skipping are disabled).
	masks *skipMask
	// nodes, indexed by PatternNode.id, holds what prepare resolved per
	// pattern node.
	nodes []nodePlan
	// width is the tuple width, depth the deepest child-axis nesting of any
	// NoK subtree (a lone root is 1) and maxKids the widest child list: the
	// dimensions of a matchState.
	width, depth, maxKids int
	// trace, when non-nil, receives candidate-reject events (page pins and
	// skips are recorded elsewhere).
	trace *obs.Trace
}

// nodePlan is one pattern node as the matcher sees it.
type nodePlan struct {
	p *PatternNode
	// tag is the node's tag constraint resolved against the store's tag
	// table: a tag code, tagAny for "*", tagAbsent for a tag the document
	// does not contain.
	tag int32
	// kids are the child-axis children — the children Algorithm 1 matches
	// within one NoK subtree.
	kids []*nodePlan
	// slot is the node's tuple slot, -1 when it is not tracked; frag lists
	// the slots of the tracked nodes in the node's child-axis fragment,
	// itself included. A fragment with none is matched existentially.
	// kidsTracked says that some kid's fragment has one.
	slot        int
	frag        []int
	kidsTracked bool
	// skip is the fused skip state the node's child scans consult, nil when
	// the query compiled no mask for it.
	skip *nodeSkip
	// vals, when non-nil (empty counts), answers the node's value test: the
	// nodes the value index lists under its (tag, value), in document order.
	// below holds the vals of the indexed value tests further down the
	// node's fragment: the fragment matches at a data node only if that
	// node's subtree holds a node of each.
	vals  []xmltree.NodeID
	below [][]xmltree.NodeID
	// checkScan and checkRoot say whether the node's child scans, and the
	// node as a subtree-root candidate, need the per-node access check:
	// false without a view, and when path routing proved every class the
	// scan can accept uniformly allowed. (A pre-allowed scan may admit
	// off-path nodes; those produce only join-doomed matches, so answers
	// are unchanged.)
	checkScan, checkRoot bool
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

// prepare resolves the per-node plans for the compiled query, leaving the
// matcher immutable.
func (m *matcher) prepare(c *compiled) {
	m.nodes = make([]nodePlan, c.t.Len())
	m.width = c.width
	// scanTr is the operator handle of the NoK subtree being walked: a page
	// skipped while scanning for one of its pattern nodes attributes to its
	// scan operator.
	var scanTr *obs.Trace
	var walk func(p *PatternNode, depth int) *nodePlan
	walk = func(p *PatternNode, depth int) *nodePlan {
		np := &m.nodes[p.id]
		*np = nodePlan{p: p, tag: tagAbsent, slot: c.slotOf[p.id], checkScan: m.view != nil, checkRoot: m.view != nil}
		if p.Tag == "*" {
			np.tag = tagAny
		} else if code, ok := m.store.LookupTag(p.Tag); ok {
			np.tag = code
		}
		if c.route != nil {
			np.checkScan = np.checkScan && !c.route.preAllow[p.id]
			np.checkRoot = np.checkRoot && !c.route.preAllowRoot[p.id]
		}
		if np.slot >= 0 {
			np.frag = append(np.frag, np.slot)
		}
		np.vals = c.values[p.id]
		for _, k := range p.Children {
			if k.Axis != AxisChild {
				continue // the root of its own NoK subtree
			}
			kp := walk(k, depth+1)
			np.kids = append(np.kids, kp)
			np.frag = append(np.frag, kp.frag...)
			np.kidsTracked = np.kidsTracked || len(kp.frag) > 0
			if kp.vals != nil {
				np.below = append(np.below, kp.vals)
			}
			np.below = append(np.below, kp.below...)
		}
		m.depth, m.maxKids = max(m.depth, depth), max(m.maxKids, len(np.kids))
		if m.masks != nil && len(np.kids) > 0 {
			if fn := m.masks.scanSkipFn(p, scanTr); fn != nil {
				np.skip = &nodeSkip{bits: m.masks.nodeBits(p), fn: fn}
			}
		}
		return np
	}
	for i, sub := range c.subs {
		scanTr = m.trace.ForOp(opScan(i))
		walk(sub.Root, 1)
	}
}

// matchesValue applies np's value test to data node u: a lookup in the
// value-index postings the plan holds, which reads no page — the index
// covers every stored value, so u is listed exactly when its value equals
// the literal — and a read of u's stored value where the plan has none (a
// "*" tag, an evaluator without a value index).
func (m *matcher) matchesValue(ctx context.Context, np *nodePlan, u xmltree.NodeID) (bool, error) {
	if np.p.Value == "" {
		return true, nil
	}
	if np.vals != nil {
		_, ok := slices.BinarySearch(np.vals, u)
		return ok, nil
	}
	if m.values == nil {
		return false, nil
	}
	v, err := m.values.ValueCtx(ctx, u)
	if err != nil {
		return false, err
	}
	return v == np.p.Value, nil
}

// mayMatchBelow reports whether each indexed value test below np in its
// fragment has a listed node in (u, hi], where hi bounds u's subtree from
// above. When one has none, np's fragment cannot match at u, whatever the
// view: the scan need not descend.
func (np *nodePlan) mayMatchBelow(u, hi xmltree.NodeID) bool {
	for _, vals := range np.below {
		if i, _ := slices.BinarySearch(vals, u+1); i == len(vals) || vals[i] > hi {
			return false
		}
	}
	return true
}

// matchState is one scan's working memory for matching candidates of
// one NoK subtree: after the first few candidates have sized it, matching
// allocates nothing.
type matchState struct {
	m *matcher
	// cur is the scan's block cursor: its navigation, tag and
	// access checks of the nodes of one block cost one block visit.
	cur *nok.Cursor
	// frames holds one frame per pattern depth. At any moment at most one
	// fragment per depth is being matched, so a frame is reused by every
	// data node its depth is tried at.
	frames []frame
	// arena stores the rows pattern children reported to their parent
	// frames, each as the bindings of the child's frag slots; frames refer
	// to them by offset. Reset per candidate.
	arena []binding
	// row is the full-width scratch row the cross products are enumerated
	// in. Sibling fragments own disjoint slots and a frame overlays only the
	// slots of its own fragment, so the one row serves every depth.
	row []binding
	// emit consumes each completed row of the subtree root; it must copy
	// what it keeps. Returning false stops the enumeration and unwinds the
	// whole match, after which stopped is set.
	emit    func(row []binding) bool
	stopped bool
}

// frame is the state of matching one pattern node's fragment at one data
// node.
type frame struct {
	np *nodePlan
	u  binding
	// ci is np's index among its pattern parent's kids.
	ci int
	// matched marks the kids matched at least once; complete is set once
	// all are.
	matched  []bool
	nMatched int
	complete bool
	// rows lists, per tracked kid, the arena offsets of the rows the kid
	// has reported so far, in arrival order.
	rows [][]int32
}

// rowsCap is how many rows per tracked kid a new match state has room for
// before a frame's list grows on its own.
const rowsCap = 16

// newState returns a match state over the given cursor whose completed rows
// go to emit.
func (m *matcher) newState(cur *nok.Cursor, emit func(row []binding) bool) *matchState {
	ms := &matchState{m: m, cur: cur, emit: emit, frames: make([]frame, m.depth), row: make([]binding, m.width)}
	for i := range ms.row {
		ms.row[i] = unbound
	}
	// One backing array per kind, carved by frame and kid.
	n := m.depth * m.maxKids
	matched, rows, offs := make([]bool, n), make([][]int32, n), make([]int32, n*rowsCap)
	for i := range rows {
		rows[i] = offs[i*rowsCap : i*rowsCap : (i+1)*rowsCap]
	}
	for i := range ms.frames {
		ms.frames[i].matched = matched[i*m.maxKids : (i+1)*m.maxKids]
		ms.frames[i].rows = rows[i*m.maxKids : (i+1)*m.maxKids]
	}
	ms.arena = make([]binding, 0, n*rowsCap)
	return ms
}

// npm matches np's NoK fragment at data node u (whose tag, value and
// accessibility the caller has verified, and whose subtree ends at hi or
// before) in frame depth, reporting each distinct row of the fragment's
// tracked bindings the moment its last component is discovered instead of
// materializing a cross product after the child scan. It reports whether the
// fragment matched.
//
// Incremental emission rule: a product (r_1, …, r_k) over the tracked
// kids' rows is reported exactly once, when its last-arriving component
// arrives. The first time every kid is matched, the full cross product of
// the rows collected so far goes out; every later row of kid i reports only
// the products that pin kid i to the new row. So the reported multiset is
// exactly the batch product — but the first row surfaces as soon as the
// first witness of every kid has been seen, which is what lets
// Limit-bounded queries stop their page reads mid-scan.
//
// No row is reported twice, so nothing is deduplicated: rows of one kid
// coming from different data children bind nodes of disjoint subtrees, and
// the rows one data child yields are distinct by induction — products of
// distinct rows that differ in at least one component.
func (ms *matchState) npm(ctx context.Context, depth, ci int, np *nodePlan, u binding, hi xmltree.NodeID) (bool, error) {
	f := &ms.frames[depth]
	f.np, f.u, f.ci = np, u, ci
	kids := np.kids
	if len(kids) == 0 {
		if np.slot >= 0 {
			ms.row[np.slot] = u
			ms.report(depth)
		}
		return true, nil
	}
	f.nMatched, f.complete = 0, false
	for i := range kids {
		f.matched[i], f.rows[i] = false, f.rows[i][:0]
	}

	m, cur := ms.m, ms.cur
	childLevel := int(u.level) + 1
	// The scan consults np's fused bitmap, skipping blocks that are wholly
	// inaccessible (§3.3) or that hold no path class np's pattern children
	// can bind.
	ns := np.skip
	var skip func(int) bool
	if ns != nil {
		skip = ns.fn
	}
	v, err := cur.FirstChild(ctx, u.node)
	if err != nil {
		return false, err
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
					return false, err
				}
				continue
			}
		}
		info, err := cur.Info(ctx, v)
		if err != nil {
			return false, err
		}
		// next is v's following sibling once a kid's value tests have asked
		// for it, to bound v's subtree; the scan then moves on from it.
		next, haveNext := xmltree.InvalidNode, false
		// The access check while the block is at hand (§3.3): the code in
		// force came with the node.
		if !np.checkScan || m.view.CodeAllowed(info.Code) {
			allDone := true
			for i, kp := range kids {
				tracked := len(kp.frag) > 0
				if f.matched[i] && !tracked {
					continue // existential child already satisfied
				}
				if kp.tag == info.Entry.Tag || kp.tag == tagAny {
					ok, err := m.matchesValue(ctx, kp, v)
					if err != nil {
						return false, err
					}
					// v's subtree ends before its following sibling, or
					// where u's does.
					vhi := hi
					if ok && len(kp.below) > 0 {
						if !haveNext {
							if next, err = cur.FollowingSibling(ctx, v, skip); err != nil {
								return false, err
							}
							haveNext = true
						}
						if next != xmltree.InvalidNode {
							vhi = next - 1
						}
						ok = kp.mayMatchBelow(v, vhi)
					}
					if ok {
						// A tracked kid reports its rows into f as it
						// finds them; an existential one only has to match.
						sub, err := ms.npm(ctx, depth+1, i, kp, binding{v, xmltree.InvalidNode, int32(info.Level)}, vhi)
						if err != nil || ms.stopped {
							return false, err
						}
						if sub && !tracked && !ms.kidMatched(depth, i) {
							return false, nil
						}
					}
				}
				if !f.matched[i] {
					allDone = false
				}
			}
			// Early exit: everything matched and no tracked child needs
			// further enumeration.
			if allDone && !np.kidsTracked {
				break
			}
		}
		if !haveNext {
			if next, err = cur.FollowingSibling(ctx, v, skip); err != nil {
				return false, err
			}
		}
		v = next
	}
	return f.nMatched == len(kids), nil
}

// report hands the scratch row, complete for the fragment matched in frame
// depth, to the parent frame — or to the consumer, from the subtree root.
// It returns false when the consumer stopped.
func (ms *matchState) report(depth int) bool {
	if depth > 0 {
		return ms.arrive(depth-1, ms.frames[depth].ci)
	}
	if !ms.emit(ms.row) {
		ms.stopped = true
	}
	return !ms.stopped
}

// arrive stores the row kid i just completed in the scratch row and
// reports the products it completes.
func (ms *matchState) arrive(depth, i int) bool {
	f := &ms.frames[depth]
	off := int32(len(ms.arena))
	for _, s := range f.np.kids[i].frag {
		ms.arena = append(ms.arena, ms.row[s])
	}
	f.rows[i] = append(f.rows[i], off)
	if f.complete {
		return ms.product(depth, 0, i, off)
	}
	return ms.kidMatched(depth, i)
}

// kidMatched records that kid i of frame depth matched; the first time
// every kid has, the cross product of the rows collected so far goes out.
func (ms *matchState) kidMatched(depth, i int) bool {
	f := &ms.frames[depth]
	if f.matched[i] {
		return true
	}
	f.matched[i] = true
	f.nMatched++
	if f.nMatched < len(f.np.kids) {
		return true
	}
	f.complete = true
	return len(f.np.frag) == 0 || ms.product(depth, 0, -1, 0)
}

// product enumerates, from kid i on, the cross product of the rows frame
// depth has collected — kid fixed (when ≥ 0) pinned to the row at fixedOff
// — by overlaying each row on its fragment's slots of the scratch row, and
// reports every completed row.
func (ms *matchState) product(depth, i, fixed int, fixedOff int32) bool {
	f := &ms.frames[depth]
	kids := f.np.kids
	for i < len(kids) && len(kids[i].frag) == 0 {
		i++
	}
	if i == len(kids) {
		if f.np.slot >= 0 {
			ms.row[f.np.slot] = f.u
		}
		return ms.report(depth)
	}
	offs := f.rows[i]
	if i == fixed {
		offs = []int32{fixedOff}
	}
	for _, off := range offs {
		for k, s := range kids[i].frag {
			ms.row[s] = ms.arena[int(off)+k]
		}
		if !ms.product(depth, i+1, fixed, fixedOff) {
			return false
		}
	}
	return true
}

// matchCandidate runs ε-NoK matching for one candidate (normally a tag-index
// posting) of the subtree rooted at pattern node root, streaming each row to
// ms.emit; ms.stopped tells whether emit ended the enumeration early.
func (ms *matchState) matchCandidate(ctx context.Context, root *nodePlan, c btree.Posting) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m, cur := ms.m, ms.cur
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
			return nil
		}
	}
	if !root.mayMatchBelow(c.Node, c.End) {
		return nil
	}
	info, err := cur.Info(ctx, c.Node)
	if err != nil {
		return err
	}
	if root.checkRoot && !m.view.CodeAllowed(info.Code) {
		return nil
	}
	if root.tag != info.Entry.Tag && root.tag != tagAny {
		return nil
	}
	ok, err := m.matchesValue(ctx, root, c.Node)
	if err != nil || !ok {
		return err
	}
	ms.arena = ms.arena[:0]
	_, err = ms.npm(ctx, 0, 0, root, binding{c.Node, c.End, int32(c.Level)}, c.End)
	return err
}
