package query

import (
	"cmp"
	"context"
	"slices"
	"unsafe"

	"dolxml/internal/btree"
	"dolxml/internal/nok"
	"dolxml/internal/xmltree"
)

// An anchored index plan answers a pattern whose every step is a child step
// from the document root (predicates, "*" steps and value tests allowed)
// from postings grouped by path class, after Arion et al.: the classes the
// path summary embedding matched for a pattern node name exactly the nodes
// that can bind it, so the plan reads their postings instead of navigating
// the document to them. Every binding still gets its access decision as the
// ε-NoK matcher makes it — the class verdict of a uniform class, the view's
// deny bitmap for a wholly denied block, otherwise the code in force read
// from the node's block — and never from the memo.

// classRuns returns the evaluator's tag index when it is a served
// snapshot's runs grouped by path class as its store's path summary numbers
// the classes, else nil.
func (ev *Evaluator) classRuns() *btree.Runs {
	runs, ok := ev.index.(*btree.Runs)
	if !ok {
		return nil
	}
	sum := ev.store.Paths()
	if n, k, ok := runs.ClassNumbering(); !ok || sum == nil || n != sum.Numbering() || k != sum.NumNodes() {
		return nil
	}
	return runs
}

// indexable reports whether an anchored index plan can answer t: every step
// is a child step and every value test has its value-index postings.
func (sh *compiledShape) indexable() bool {
	for _, p := range sh.t.nodes {
		if p.Axis != AxisChild || p.Value != "" && sh.values[p.id] == nil {
			return false
		}
	}
	return true
}

// indexShape is the view-independent half of an anchored index plan.
type indexShape struct {
	// sweep holds, in document order, every posting of a class some pattern
	// node matched that passes the node's value test and takes part in a
	// whole embedding of the pattern, once per pattern node it can bind.
	sweep []sweepPosting
	// ret lists the returning node's postings among them: the answers when
	// no access decision denies anything. classes are the distinct classes
	// of the sweep.
	ret     []btree.Posting
	classes []int32
	// By pattern node id: the pattern parent (-1 for the root), the pattern
	// children, and whether the node only has to be witnessed — a leaf off
	// the returning path, for which one accessible binding per parent binding
	// settles its parent's predicate.
	parent  []int32
	kids    [][]int32
	witness []bool
	retID   int32
}

// sweepPosting is one posting of the sweep with its path class and the
// pattern node it can bind.
type sweepPosting struct {
	btree.Posting
	class, p int32
}

// buildIndexShape gathers, per pattern node, the class runs of the classes
// the embedding matched for it, keeps the postings its value test lists,
// merges them into one document-order sweep and reduces the sweep to the
// postings that take part in a whole embedding.
func (sh *compiledShape) buildIndexShape(index *btree.Runs) *indexShape {
	t := sh.t
	ix := &indexShape{
		parent:  make([]int32, t.Len()),
		kids:    make([][]int32, t.Len()),
		witness: make([]bool, t.Len()),
		retID:   int32(t.ReturningNode().id),
	}
	ix.parent[t.Root.id] = -1
	for _, p := range t.nodes {
		for _, q := range p.Children {
			ix.parent[q.id] = int32(p.id)
			ix.kids[p.id] = append(ix.kids[p.id], int32(q.id))
		}
		ix.witness[p.id] = p != t.Root && len(p.Children) == 0 && int32(p.id) != ix.retID
	}
	// One run per (pattern node, class), in pattern order: each is in
	// document order, so the sweep is their merge, ties going to the
	// earlier pattern node.
	type run struct {
		ps       []btree.Posting
		class, p int32
	}
	var runs []run
	total := 0
	for _, p := range t.nodes {
		forEachSet(sh.matched[p.id], func(class int32) {
			ps := index.ClassPostings(class)
			if p.Value != "" {
				ps = listed(ps, sh.values[p.id])
			}
			if len(ps) > 0 {
				runs = append(runs, run{ps, class, int32(p.id)})
				total += len(ps)
			}
		})
	}
	ix.sweep = make([]sweepPosting, 0, total)
	for {
		best := -1
		for k := range runs {
			if len(runs[k].ps) > 0 && (best < 0 || runs[k].ps[0].Node < runs[best].ps[0].Node) {
				best = k
			}
		}
		if best < 0 {
			break
		}
		r := &runs[best]
		ix.sweep = append(ix.sweep, sweepPosting{r.ps[0], r.class, r.p})
		r.ps = r.ps[1:]
	}
	keep := make([]bool, len(ix.sweep))
	for i := range keep {
		keep[i] = true
	}
	ix.reduce(keep)
	kept := ix.sweep[:0]
	for i, e := range ix.sweep {
		if keep[i] {
			kept = append(kept, e)
			if e.p == ix.retID {
				ix.ret = append(ix.ret, e.Posting)
			}
			ix.classes = append(ix.classes, e.class)
		}
	}
	ix.sweep = slices.Clip(kept)
	slices.Sort(ix.classes)
	ix.classes = slices.Clip(slices.Compact(ix.classes))
	return ix
}

// listed returns, in a list of its own, the postings of ps whose node vals
// lists; both are in document order.
func listed(ps []btree.Posting, vals []xmltree.NodeID) []btree.Posting {
	var out []btree.Posting
	j := 0
	for _, p := range ps {
		for j < len(vals) && vals[j] < p.Node {
			j++
		}
		if j < len(vals) && vals[j] == p.Node {
			out = append(out, p)
		}
	}
	return out
}

// size is what the plan holds in memory.
func (ix *indexShape) size() int64 {
	return int64(cap(ix.sweep))*int64(unsafe.Sizeof(sweepPosting{})) +
		int64(cap(ix.ret))*int64(unsafe.Sizeof(btree.Posting{})) +
		int64(cap(ix.classes))*int64(unsafe.Sizeof(int32(0)))
}

// reduce narrows keep, which marks sweep postings, to the ones that take
// part in a whole embedding of the pattern among the marked: a pass in
// reverse document order drops a posting whose region holds no marked
// posting of one of its pattern children, a forward pass one that no marked
// posting of its pattern parent encloses. Every posting of a pattern node
// lies at that node's depth, so a pattern child's posting inside a parent's
// region is a child of it, and the postings of one pattern node are disjoint
// regions: each pass needs only the nearest marked posting per pattern node.
// The first pass visits descendants before their ancestors and the second
// ancestors first, so together they are the full reduction of the tree of
// semi-joins.
func (ix *indexShape) reduce(keep []bool) {
	var buf [16]xmltree.NodeID
	near := buf[:0]
	if len(ix.parent) > len(buf) {
		near = make([]xmltree.NodeID, 0, len(ix.parent))
	}
	// near[q]: the first marked posting of q after the current one.
	near = near[:len(ix.parent)]
	for q := range near {
		near[q] = xmltree.InvalidNode
	}
	for i := len(ix.sweep) - 1; i >= 0; i-- {
		if !keep[i] {
			continue
		}
		e := &ix.sweep[i]
		for _, q := range ix.kids[e.p] {
			if n := near[q]; n == xmltree.InvalidNode || n > e.End {
				keep[i] = false
				break
			}
		}
		if keep[i] {
			near[e.p] = e.Node
		}
	}
	// near[q]: the end of the last marked posting of q so far.
	for q := range near {
		near[q] = xmltree.InvalidNode
	}
	for i := range ix.sweep {
		if !keep[i] {
			continue
		}
		e := &ix.sweep[i]
		if par := ix.parent[e.p]; par >= 0 && e.Node > near[par] {
			keep[i] = false
			continue
		}
		near[e.p] = e.End
	}
}

// Access decision sources, as the plan counts them.
const (
	decideByClass = iota
	decideByDirectory
	decideOnBlock
)

// decisionSource says where e's access decision comes from under plan c:
// its class's uniform verdict, the deny bitmap over its block, or the block.
func (c *compiled) decisionSource(e *sweepPosting) int {
	if c.route.verdict(e.class) != vMixed {
		return decideByClass
	}
	if c.mask != nil && c.mask.access != nil {
		pages := c.mask.pages
		i, _ := slices.BinarySearchFunc(pages, e.Node+1, func(pi nok.PageInfo, n xmltree.NodeID) int { return cmp.Compare(pi.FirstNode, n) })
		if c.mask.pageDenied(i - 1) {
			return decideByDirectory
		}
	}
	return decideOnBlock
}

// indexCursor runs an anchored index plan: on the first Next it decides the
// bindings' access and reduces the sweep, then hands out one tuple per
// answer, in document order. The answers are distinct by construction.
type indexCursor struct {
	// ctx carries the operator's trace handle to the block reads.
	ctx  context.Context
	c    *compiled
	st   *nok.Store
	done bool
	// answers are the returning node's surviving postings, next the first
	// not handed out, rows the chunk the tuples are carved from.
	answers []btree.Posting
	next    int
	rows    []binding
	matches int
}

func (ic *indexCursor) Next(ctx context.Context) (Tuple, error) {
	if !ic.done {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		if ic.answers, err = ic.run(); err != nil {
			return nil, err
		}
		ic.done = true
		ic.rows = make([]binding, len(ic.answers)*ic.c.width)
		for i := range ic.rows {
			ic.rows[i] = unbound
		}
	}
	if ic.next == len(ic.answers) {
		return nil, nil
	}
	// The rows the matcher would make: the document root with its extent, the
	// returning node bound as a child scan binds it, without its extent.
	c, w := ic.c, ic.c.width
	t := Tuple(ic.rows[ic.next*w : (ic.next+1)*w : (ic.next+1)*w])
	t[c.slotOf[c.t.Root.id]] = binding{0, xmltree.NodeID(ic.st.NumNodes() - 1), 0}
	if a := ic.answers[ic.next]; a.Node != 0 {
		t[c.retSlot] = binding{a.Node, xmltree.InvalidNode, int32(a.Level)}
	}
	ic.next++
	ic.matches++
	return t, nil
}

func (ic *indexCursor) Close() error { return nil }

// run decides, in one forward pass over the sweep, the access of every
// posting whose pattern parent has an accessible binding enclosing it —
// skipping a witness already seen under that binding — and, when a decision
// denied something, reduces what was kept. The pass is in document order, so
// its cursor visits each block once. When every class of the sweep is
// uniformly allowed, each decision is known to allow before the pass.
func (ic *indexCursor) run() ([]btree.Posting, error) {
	c, ix := ic.c, ic.c.index
	if c.opts.View == nil || !slices.ContainsFunc(ix.classes, func(class int32) bool { return c.route.verdict(class) != vAllow }) {
		return ix.ret, nil
	}
	var buf [16]btree.Posting
	last := buf[:0]
	if len(ix.parent) > len(buf) {
		last = make([]btree.Posting, 0, len(ix.parent))
	}
	last = last[:len(ix.parent)] // the last accessible binding per pattern node
	for q := range last {
		last[q] = btree.Posting{Node: xmltree.InvalidNode, End: xmltree.InvalidNode}
	}
	keep := make([]bool, len(ix.sweep))
	denied := false
	cur := ic.st.NewCursor()
	for i := range ix.sweep {
		e := &ix.sweep[i]
		if par := ix.parent[e.p]; par >= 0 {
			if e.Node > last[par].End {
				denied = true // under a binding that was denied
				continue
			}
			if ix.witness[e.p] && last[e.p].Node > last[par].Node {
				continue
			}
		}
		ok, err := ic.allowed(cur, e)
		if err != nil {
			return nil, err
		}
		if !ok {
			denied = true
			continue
		}
		keep[i], last[e.p] = true, e.Posting
	}
	if !denied {
		return ix.ret, nil
	}
	ix.reduce(keep)
	var answers []btree.Posting
	for i, e := range ix.sweep {
		if keep[i] && e.p == ix.retID {
			answers = append(answers, e.Posting)
		}
	}
	return answers, nil
}

// allowed decides e's access as the matcher would: from its class's verdict
// when the class is uniform, from the view's deny bitmap when it covers e's
// block, otherwise from the code in force at e, read from its block.
func (ic *indexCursor) allowed(cur *nok.Cursor, e *sweepPosting) (bool, error) {
	c := ic.c
	switch c.route.verdict(e.class) {
	case vAllow:
		return true, nil
	case vDeny:
		return false, nil
	}
	if c.mask.pageDenied(cur.BlockOf(e.Node)) {
		return false, nil
	}
	info, err := cur.Info(ic.ctx, e.Node)
	if err != nil {
		return false, err
	}
	return c.opts.View.CodeAllowed(info.Code), nil
}
