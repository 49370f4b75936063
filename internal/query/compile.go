package query

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
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
// request. open instantiates cursors from it and Explain renders it, so the
// plan shown is the plan run.
type compiled struct {
	*compiledShape
	opts     Options
	numPages int
	// accessSkip and pathOn are what the ablation flags leave on: the view's
	// deny bitmap (§3.3), and the path summary (emptiness proofs and index
	// plans).
	accessSkip, pathOn bool
	route              *pathRoute
	mask               *skipMask
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
// per call by an evaluator without one — plus the view's route and skip
// mask. It reads the indexes (on a miss) but no store page, and records the
// compile span on opts.Trace. The plan evaluates the shape's pattern tree,
// which equals t node for node.
func (ev *Evaluator) compile(t *PatternTree, opts Options) (*compiled, error) {
	c := &compiled{
		opts:     opts,
		numPages: ev.store.NumPages(),
	}
	c.accessSkip = opts.View != nil && !opts.DisablePageSkip
	c.pathOn = !opts.DisablePathSummary

	defer opts.Trace.Span(obs.EvCompile)()
	sh, err := ev.masks.shapeFor(shapeKey(t, c.pathOn), ev.seq, func() (*compiledShape, error) {
		return ev.buildShape(t, c.pathOn)
	})
	if err != nil {
		return nil, err
	}
	c.compiledShape = sh
	c.route = resolvePathAccess(ev.store, sh, opts.View, opts.Semantics == SemanticsPrunedSubtree)
	if !c.empty() && c.accessSkip {
		c.mask = &skipMask{access: opts.View.PageDenyBits(), pages: ev.store.Directory()}
	}
	return c, nil
}

// shapeKey is the memo key of a pattern's shape: the canonical render, the
// returning node (the render does not show it: //a[b] and //a/b read alike)
// and the path-summary flag, so that the ablation arms compare the two
// engines and nothing else.
func shapeKey(t *PatternTree, pathOn bool) string {
	var sb strings.Builder
	t.writeTo(&sb)
	sb.WriteByte('|')
	sb.WriteString(strconv.Itoa(t.ReturningNode().id))
	if pathOn {
		sb.WriteString("|path")
	} else {
		sb.WriteString("|nopath")
	}
	return sb.String()
}

// buildShape plans the view-independent half of a query over the evaluator's
// snapshot: decomposition and layout, the path-summary embedding (pathOn),
// the value-index postings of the value-constrained nodes, and either — for
// a pattern an index plan covers over an index grouped by path class — the
// index plan, or per subtree the candidate postings of the paper's scans. It
// reads the tag and value indexes and no store page. Class runs numbered
// otherwise than the path summary are an error.
func (ev *Evaluator) buildShape(t *PatternTree, pathOn bool) (*compiledShape, error) {
	sh := &compiledShape{t: t, query: t.String(), subs: t.Decompose()}
	sh.tupleLayout = layoutOf(t, sh.subs)
	sh.retTag = AnyTag
	if ret := t.ReturningNode(); ret.Tag != "*" {
		if code, ok := ev.store.LookupTag(ret.Tag); ok {
			sh.retTag = code
		}
	}
	var runs *btree.Runs
	if pathOn {
		var err error
		if runs, err = ev.classRuns(); err != nil {
			return nil, err
		}
		if sh.embed(ev.store); sh.emptyStruct {
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
	if runs != nil && sh.indexable() {
		sh.index = sh.buildIndexShape(ev.store, runs)
		sh.size += sh.index.size()
		return sh, nil
	}

	sh.scans = make([]shapeScan, len(sh.subs))
	for i, sub := range sh.subs {
		sc := &sh.scans[i]
		if i == 0 && t.Root.Axis == AxisChild {
			// The document root's subtree is the document.
			sc.source = sourceDocRoot
			sc.cands = []btree.Posting{{Node: 0, End: xmltree.NodeID(ev.store.NumNodes() - 1), Level: 0}}
			continue
		}
		cands, source, err := ev.candidates(sub, valued)
		if err != nil {
			return nil, err
		}
		sc.cands, sc.source = cands, source
		sh.size += int64(cap(cands)) * int64(unsafe.Sizeof(btree.Posting{}))
	}
	return sh, nil
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
// source. The list may be the index's own and is read-only. valued holds,
// by pattern node id, the value-index postings already fetched.
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
