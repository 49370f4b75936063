package query

import (
	"cmp"
	"slices"
	"strconv"
	"unsafe"

	"dolxml/internal/btree"
	"dolxml/internal/obs"
	"dolxml/internal/xmltree"
)

// compiled is one query's plan: every decision evaluation takes before it
// reads a store page, resolved from the pattern, the options and in-memory
// state (page directory, path summary, the view's deny bitmap, the tag and
// value indexes). The half that depends only on the pattern and the snapshot
// is the embedded shape, memoized per snapshot; the rest is resolved per
// request. Open instantiates cursors from it and Explain renders it, so the
// plan shown is the plan run.
type compiled struct {
	*compiledShape
	opts     Options
	numPages int
	// accessSkip, structSkip and pathOn are what the ablation flags leave
	// on: the view's deny bitmap (§3.3), the path summary's dead pages in
	// scan masks, and path routing as a whole (emptiness proofs, candidate
	// routing, pre-resolved verdicts — and the dead pages, which derive
	// from it).
	accessSkip, structSkip, pathOn bool
	route                          *pathRoute
	mask                           *skipMask
}

// empty reports that compilation proved the query has no answers: the
// pattern does not embed in the path summary, or every class some pattern
// node can bind is uniformly denied to the view.
func (c *compiled) empty() bool {
	return c.emptyStruct || c.route != nil && c.route.emptyAccess
}

// sortLeft says join i's left input has to be sorted by the link first. The
// stream under a join is ordered by the root of the subtree joined just
// before (scan 0's candidates, then join i-1's right roots), which the merge
// can rely on only when that root is the link: //a//b//c merges as it
// arrives, //a[//b]//c and //a[b]/c//d sort.
func (c *compiled) sortLeft(i int) bool { return c.subs[i].Link != c.subs[i-1].Root }

// compile plans the query: the shape from the memo — built on a miss, and
// per call by an evaluator without one — plus the view's route and fused
// mask. It reads the indexes (on a miss) but no
// store page, and records the compile span and each routed-away candidate
// on opts.Trace. The plan evaluates the shape's pattern tree, which equals t
// node for node.
func (ev *Evaluator) compile(t *PatternTree, opts Options) (*compiled, error) {
	c := &compiled{
		opts:     opts,
		numPages: ev.store.NumPages(),
	}
	c.accessSkip = opts.View != nil && !opts.DisablePageSkip
	c.pathOn = !opts.DisablePathSummary && ev.store.Paths() != nil
	c.structSkip = c.pathOn && !opts.DisableSummarySkip

	endCompile := opts.Trace.Span(obs.EvCompile)
	sh, err := ev.masks.shapeFor(shapeKey(t, c.pathOn), ev.seq, func() (*compiledShape, error) {
		return ev.buildShape(t, c.pathOn)
	})
	if err != nil {
		endCompile()
		return nil, err
	}
	c.compiledShape = sh
	c.route = resolvePathAccess(ev.store, sh, opts.View)
	if !c.empty() {
		c.mask = fuseMask(ev.store, sh, opts.View, c.accessSkip, c.structSkip)
	}
	endCompile()
	if c.empty() || opts.Trace == nil {
		return c, nil
	}
	for i := range sh.scans {
		scanTr := opts.Trace.ForOp(opScan(i))
		for _, r := range sh.scans[i].routed {
			scanTr.CandidateReject(r.node, r.page)
		}
	}
	return c, nil
}

// shapeKey is the memo key of a pattern's shape: the canonical render, the
// returning node (the render does not show it: //a[b] and //a/b read alike)
// and the path-summary flag, so that the ablation arms compare routing and
// nothing else.
func shapeKey(t *PatternTree, pathOn bool) string {
	flag := "|nopath"
	if pathOn {
		flag = "|path"
	}
	return t.String() + "|" + strconv.Itoa(t.ReturningNode().id) + flag
}

// buildShape plans the view-independent half of a query over the evaluator's
// snapshot: decomposition and layout, the path-summary embedding (pathOn),
// the value-index postings of the value-constrained nodes, and per subtree
// the candidate postings — routed through the embedding, then reduced by the
// structural semi-join. It reads the tag and value indexes and no store
// page.
func (ev *Evaluator) buildShape(t *PatternTree, pathOn bool) (*compiledShape, error) {
	sh := &compiledShape{t: t, query: t.String(), subs: t.Decompose()}
	sh.tupleLayout = layoutOf(t, sh.subs)
	sh.retTag = AnyTag
	if ret := t.ReturningNode(); ret.Tag != "*" {
		if code, ok := ev.store.LookupTag(ret.Tag); ok {
			sh.retTag = code
		}
	}
	var candKeep [][]uint64
	if pathOn {
		if candKeep = sh.embed(ev.store); sh.emptyStruct {
			return sh, nil
		}
	}

	// One value-index scan per value-constrained node serves both its
	// membership list and, for a subtree root, the candidates.
	sh.values = make([][]xmltree.NodeID, t.Len())
	valued := make([][]btree.Posting, t.Len())
	if ev.vindex != nil {
		for _, p := range t.nodes {
			if p.Value == "" || p.Tag == "*" {
				continue
			}
			if code, ok := ev.store.LookupTag(p.Tag); ok {
				ps, err := ev.vindex.ValuePostings(code, p.Value)
				if err != nil {
					return nil, err
				}
				valued[p.id] = ps
			}
			nodes := make([]xmltree.NodeID, len(valued[p.id])) // none for a tag the document lacks
			for k, ps := range valued[p.id] {
				nodes[k] = ps.Node
			}
			sh.values[p.id] = nodes
			sh.size += int64(len(nodes)) * int64(unsafe.Sizeof(nodes[0]))
		}
	}

	sh.scans = make([]shapeScan, len(sh.subs))
	lists := make([][]btree.Posting, len(sh.subs))
	for i, sub := range sh.subs {
		sc := &sh.scans[i]
		if i == 0 && t.Root.Axis == AxisChild {
			// The document root's subtree is the document.
			sc.source = sourceDocRoot
			lists[i] = []btree.Posting{{Node: 0, End: xmltree.NodeID(ev.store.NumNodes() - 1), Level: 0}}
			continue
		}
		cands, source, err := ev.candidates(sub, valued)
		if err != nil {
			return nil, err
		}
		sc.source = source
		// Route candidates through the path summary: a posting whose block
		// holds no class this subtree root can bind cannot contribute an
		// answer, so it is rejected before any page is read for it. The
		// index's list may be shared (a flat run is handed out as it lies,
		// and //a//a asks for one twice): what is kept goes into a list of
		// the shape's own, which the semi-join may then filter in place.
		var keep []uint64 // nil: every block may hold a match root
		if candKeep != nil {
			keep = candKeep[i]
		}
		kept := make([]btree.Posting, 0, len(cands))
		for _, cand := range cands {
			if keep == nil {
				kept = append(kept, cand)
			} else if pi := ev.store.PageIndexOf(cand.Node); hasBit(keep, pi) {
				kept = append(kept, cand)
			} else {
				sc.routed = append(sc.routed, routedCand{int64(cand.Node), int64(ev.store.PageInfoAt(pi).Page)})
			}
		}
		lists[i] = kept
	}
	for i, n := range semiJoin(sh.subs, lists) {
		sc := &sh.scans[i]
		sc.cands, sc.rejectedJoin = lists[i], n
		sh.size += int64(cap(sc.cands))*int64(unsafe.Sizeof(btree.Posting{})) +
			int64(cap(sc.routed))*int64(unsafe.Sizeof(routedCand{}))
	}
	return sh, nil
}

// semiJoin reduces the candidate lists of a tree of descendant joins
// (lists[i] holds subtree i's root candidates in document order, each
// exclusively owned — never an index's own slice) to the postings that can
// take part in a joined tuple, in place, and returns how many it removed
// from each. One bottom-up pass
// keeps a parent subtree's candidate only if its region holds a candidate of
// each child subtree joined to it; one top-down pass keeps a child's
// candidate only if a surviving candidate of its parent encloses it. A join
// pairs a node bound inside the parent subtree's match — which lies in that
// match root's region — with a descendant of it, so a posting removed here
// pairs with nothing under any view; and since tree regions nest or are
// disjoint, each pass is a linear merge and the two together are the full
// reduction of the tree of joins. Order is kept: the scans see subsequences
// of the lists.
func semiJoin(subs []NoKSubtree, lists [][]btree.Posting) (removed []int) {
	removed = make([]int, len(lists))
	for i, l := range lists {
		removed[i] = len(l)
	}
	for i := len(subs) - 1; i > 0; i-- {
		p := subs[i].Parent
		lists[p] = keepEnclosing(lists[p], lists[i])
	}
	for i := 1; i < len(subs); i++ {
		lists[i] = keepEnclosed(lists[i], lists[subs[i].Parent])
	}
	for i, l := range lists {
		removed[i] -= len(l)
	}
	return removed
}

// keepEnclosing filters outer, in place, to the postings whose region holds
// a posting of inner as a proper descendant. Both are in document order.
func keepEnclosing(outer, inner []btree.Posting) []btree.Posting {
	kept, j := outer[:0], 0
	for _, o := range outer {
		for j < len(inner) && inner[j].Node <= o.Node {
			j++
		}
		if j < len(inner) && inner[j].Node <= o.End {
			kept = append(kept, o)
		}
	}
	return kept
}

// keepEnclosed filters inner, in place, to the postings that are proper
// descendants of a posting of outer. Regions nest or are disjoint, so of the
// outer postings that start before a node the one reaching furthest encloses
// it if any does.
func keepEnclosed(inner, outer []btree.Posting) []btree.Posting {
	kept, j, reach := inner[:0], 0, xmltree.InvalidNode
	for _, n := range inner {
		for ; j < len(outer) && outer[j].Node < n.Node; j++ {
			reach = max(reach, outer[j].End)
		}
		if n.Node <= reach {
			kept = append(kept, n)
		}
	}
	return kept
}

// tupleLayout assigns the pipeline's tuple slots. Only tracked pattern nodes
// get one: a subtree's root, the link sources of the joins hanging off it,
// and the returning node. Each subtree's tracked nodes sit side by side in
// that order, subtrees in decomposition order.
type tupleLayout struct {
	// slots[i] lists subtree i's tracked nodes in slot order (its root
	// first); base[i] is the slot of the first.
	slots [][]*PatternNode
	base  []int
	// width is the number of slots in a tuple.
	width int
	// retSlot holds the returning node's binding, and linkSlot[i] (i > 0)
	// the binding join i takes its ancestors from: subs[i].Link's slot.
	retSlot  int
	linkSlot []int
	// slotOf, indexed by PatternNode.id, is each node's slot, -1 for the
	// untracked nodes — the bindings the matcher need not record.
	slotOf []int
}

func layoutOf(t *PatternTree, subs []NoKSubtree) tupleLayout {
	l := tupleLayout{
		slots:    make([][]*PatternNode, len(subs)),
		base:     make([]int, len(subs)),
		linkSlot: make([]int, len(subs)),
		slotOf:   make([]int, t.Len()),
	}
	for k := range l.slotOf {
		l.slotOf[k] = -1
	}
	track := func(i int, p *PatternNode) {
		if l.slotOf[p.id] < 0 {
			l.slotOf[p.id] = len(l.slots[i]) // within its subtree; rebased below
			l.slots[i] = append(l.slots[i], p)
		}
	}
	for i, sub := range subs {
		track(i, sub.Root)
	}
	// A cut edge's source lies in the subtree the edge hangs off.
	for _, sub := range subs {
		if sub.Link != nil {
			track(sub.Parent, sub.Link)
		}
	}
	ret := t.ReturningNode()
	var holdsRet func(p *PatternNode) bool
	holdsRet = func(p *PatternNode) bool {
		if p == ret {
			return true
		}
		for _, c := range nokChildren(p) {
			if holdsRet(c) {
				return true
			}
		}
		return false
	}
	for i, sub := range subs {
		if holdsRet(sub.Root) {
			track(i, ret)
		}
	}
	for i, row := range l.slots {
		l.base[i] = l.width
		for _, p := range row {
			l.slotOf[p.id] = l.width
			l.width++
		}
	}
	for i, sub := range subs {
		if sub.Link != nil {
			l.linkSlot[i] = l.slotOf[sub.Link.id]
		}
	}
	l.retSlot = l.slotOf[ret.id]
	return l
}

// sourceDocRoot names the anchored top subtree's candidate source.
const sourceDocRoot = "doc-root"

// candidates returns the index postings for a NoK subtree root ("using B+
// trees on the subtree root's value or tag names", §4.1) and names their
// source; the caller copies what it keeps. valued holds, by pattern node id,
// the value-index postings already fetched.
func (ev *Evaluator) candidates(sub NoKSubtree, valued [][]btree.Posting) ([]btree.Posting, string, error) {
	if sub.Root.Tag == "*" {
		// Wildcard root: union of all tags' postings, in document order.
		var all []btree.Posting
		for code := 0; code < ev.store.NumTags(); code++ {
			ps, err := ev.index.Postings(int32(code))
			if err != nil {
				return nil, "", err
			}
			all = append(all, ps...)
		}
		slices.SortFunc(all, func(a, b btree.Posting) int { return cmp.Compare(a.Node, b.Node) })
		return all, "wildcard-union", nil
	}
	if sub.Root.Value != "" && ev.vindex != nil {
		return valued[sub.Root.id], "value-index", nil
	}
	code, ok := ev.store.LookupTag(sub.Root.Tag)
	if !ok {
		return nil, "tag-index", nil
	}
	ps, err := ev.index.Postings(code)
	return ps, "tag-index", err
}
