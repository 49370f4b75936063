package query

import (
	"cmp"
	"slices"

	"dolxml/internal/btree"
	"dolxml/internal/obs"
)

// compiled is one query's plan: every decision evaluation takes before it
// reads a store page, resolved once from the pattern, the options and
// in-memory state (page directory, path summary, the view's deny bitmap,
// the tag and value indexes). Open instantiates cursors from it and Explain
// renders it, so the plan shown is the plan run.
type compiled struct {
	t    *PatternTree
	subs []NoKSubtree
	opts Options
	tupleLayout
	numPages int
	workers  int
	// accessSkip, structSkip and pathOn are what the ablation flags leave
	// on: the view's deny bitmap (§3.3), the path summary's dead pages in
	// scan masks, and path routing as a whole (emptiness proofs, candidate
	// routing, pre-resolved verdicts — and the dead pages, which derive
	// from it).
	accessSkip, structSkip, pathOn bool
	shape                          *compiledShape
	route                          *pathRoute
	mask                           *skipMask
	// scans holds one entry per NoK subtree; nil when the query was proven
	// empty, which happens before any candidate lookup.
	scans []scanPlan
}

// scanPlan is the plan of one NoK subtree's match producer.
type scanPlan struct {
	// source is sourceDocRoot, "tag-index", "value-index" or
	// "wildcard-union".
	source string
	// cands are the index postings path routing kept. Nil for doc-root:
	// that single candidate carries the document's subtree end, which costs
	// a page read, so Open resolves it.
	cands []btree.Posting
	// n is the candidate count (1 for doc-root); rejected counts the
	// postings routing turned away before any I/O.
	n, rejected int
	// The fan-out decision.
	parallel        bool
	workers, chunks int
}

// empty reports that compilation proved the query has no answers: the
// pattern does not embed in the path summary, or every class some pattern
// node can bind is uniformly denied to the view.
func (c *compiled) empty() bool {
	return c.shape != nil && c.shape.emptyStruct || c.route != nil && c.route.emptyAccess
}

// sortLeft says join i's left input has to be sorted by the link first. The
// stream under a join is ordered by the root of the subtree joined just
// before (scan 0's candidates, then join i-1's right roots), which the merge
// can rely on only when that root is the link: //a//b//c merges as it
// arrives, //a[//b]//c and //a[b]/c//d sort.
func (c *compiled) sortLeft(i int) bool { return c.subs[i].Link != c.subs[i-1].Root }

// compile plans the query. It reads the indexes but no store page, and
// records the compile span and each routed-away candidate on opts.Trace.
func (ev *Evaluator) compile(t *PatternTree, opts Options) (*compiled, error) {
	c := &compiled{
		t:        t,
		subs:     t.Decompose(),
		opts:     opts,
		numPages: ev.store.NumPages(),
		workers:  opts.workers(),
	}
	c.tupleLayout = layoutOf(t, c.subs)

	c.accessSkip = opts.View != nil && !opts.DisablePageSkip
	c.pathOn = !opts.DisablePathSummary && ev.store.Paths() != nil
	c.structSkip = c.pathOn && !opts.DisableSummarySkip
	if c.accessSkip || c.pathOn {
		endCompile := opts.Trace.Span(obs.EvCompile)
		if c.pathOn {
			c.shape = ev.masks.shapeFor(t.String(), ev.seq, func() *compiledShape {
				return compileShape(ev.store, t, c.subs)
			})
		}
		c.route = resolvePathAccess(ev.store, t, c.subs, c.shape, opts.View)
		if !c.empty() {
			c.mask = fuseMask(ev.store, t, c.shape, opts.View, c.accessSkip, c.structSkip)
		}
		endCompile()
	}
	if c.empty() {
		return c, nil
	}

	c.scans = make([]scanPlan, len(c.subs))
	for i, sub := range c.subs {
		sp := &c.scans[i]
		if i == 0 && t.Root.Axis == AxisChild {
			sp.source, sp.n = sourceDocRoot, 1
			continue
		}
		cands, source, err := ev.candidates(sub)
		if err != nil {
			return nil, err
		}
		// Route candidates through the path summary: a posting whose block
		// holds no class this subtree root can bind cannot contribute an
		// answer, so it is rejected before any page is read for it.
		if c.shape != nil && c.shape.candKeep[i] != nil {
			scanTr := opts.Trace.ForOp(opScan(i))
			kept := make([]btree.Posting, 0, len(cands))
			for _, cand := range cands {
				pi := ev.store.PageIndexOf(cand.Node)
				if hasBit(c.shape.candKeep[i], pi) {
					kept = append(kept, cand)
					continue
				}
				sp.rejected++
				scanTr.CandidateReject(int64(cand.Node), int64(ev.store.PageInfoAt(pi).Page))
			}
			cands = kept
		}
		sp.source, sp.cands, sp.n = source, cands, len(cands)
		// A plan with a Limit scans sequentially: its answers are the first
		// in document order, and fanning out would only add run-ahead.
		if c.workers > 1 && sp.n >= minParallelCandidates && opts.Limit == 0 {
			// More chunks than workers evens out candidate skew; clamp both
			// so fewer candidates than workers never spawns idle goroutines.
			sp.parallel = true
			sp.chunks = min(c.workers*4, sp.n)
			sp.workers = min(c.workers, sp.chunks)
		}
	}
	return c, nil
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

// minParallelCandidates is the candidate-list size below which fanning out
// is not worth the goroutine overhead.
const minParallelCandidates = 16

// candidates returns the index postings for a NoK subtree root ("using B+
// trees on the subtree root's value or tag names", §4.1) and names their
// source.
func (ev *Evaluator) candidates(sub NoKSubtree) ([]btree.Posting, string, error) {
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
	code, ok := ev.store.LookupTag(sub.Root.Tag)
	if sub.Root.Value != "" && ev.vindex != nil {
		if !ok {
			return nil, "value-index", nil
		}
		ps, err := ev.vindex.ValuePostings(code, sub.Root.Value)
		return ps, "value-index", err
	}
	if !ok {
		return nil, "tag-index", nil
	}
	ps, err := ev.index.Postings(code)
	return ps, "tag-index", err
}
