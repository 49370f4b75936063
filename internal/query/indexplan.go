package query

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"dolxml/internal/btree"
	"dolxml/internal/nok"
	"dolxml/internal/pathsum"
	"dolxml/internal/xmltree"
)

// An index plan answers a pattern from postings grouped by path class, after
// Arion et al.: the classes the path summary embedding matched for a pattern
// node name exactly the nodes that can bind it, so the plan reads their
// postings instead of navigating the document to them. It covers every
// pattern whose descendant steps all lie on its spine — the path from the
// pattern root, which may itself be a "//" step, to the returning node — and
// whose predicates are child steps: Table 1's twigs, anchored or not.
//
// The postings of all pattern nodes go through one stack merge in document
// order. A child step pairs a posting with the open binding of its parent
// class (a class has one depth and one parent class); a descendant step with
// any open binding of its pattern parent, of which the one reaching furthest
// encloses it if any does (under "//" one pattern node's postings nest). Every
// binding still gets its access decision as the ε-NoK matcher makes it — the
// class verdict of a uniform class, the directory for a block of one code,
// otherwise the code in force read from the node's block — and never from
// the memo.

// classRuns returns the evaluator's tag index when it is a served
// snapshot's runs grouped by path class, else nil; runs grouped by another
// class numbering than the store's path summary are an error, never a
// silent fall back to the scans.
func (ev *Evaluator) classRuns() (*btree.Runs, error) {
	runs, ok := ev.index.(*btree.Runs)
	if !ok {
		return nil, nil
	}
	sum := ev.store.Paths()
	if n, k := runs.ClassNumbering(); n != sum.Numbering() || k != sum.NumNodes() {
		return nil, fmt.Errorf("query: the class runs are numbered %d (%d classes), the path summary %d (%d classes)",
			n, k, sum.Numbering(), sum.NumNodes())
	}
	return runs, nil
}

// indexable reports whether an index plan can answer the shape's pattern:
// every descendant step lies on the spine, every value test has its
// value-index postings, and no node has more than 64 children (a binding's
// unmet predicates are a bit mask).
func (sh *compiledShape) indexable() bool {
	parent := patternParents(sh.t)
	spine := spineOf(sh.t, parent)
	for _, p := range sh.t.nodes {
		if p != sh.t.Root && p.Axis == AxisDescendant && !spine[p.id] ||
			p.Value != "" && sh.values[p.id] == nil || len(p.Children) > 64 {
			return false
		}
	}
	return true
}

// patternParents returns each pattern node's parent id, -1 for the root.
func patternParents(t *PatternTree) []int32 {
	parent := make([]int32, t.Len())
	parent[t.Root.id] = -1
	for _, p := range t.nodes {
		for _, q := range p.Children {
			parent[q.id] = int32(p.id)
		}
	}
	return parent
}

// spineOf marks the pattern nodes on the path from the root to the
// returning node.
func spineOf(t *PatternTree, parent []int32) []bool {
	spine := make([]bool, t.Len())
	for p := int32(t.ReturningNode().id); p >= 0; p = parent[p] {
		spine[p] = true
	}
	return spine
}

// indexShape is the view-independent half of an index plan.
type indexShape struct {
	// sweep holds every posting of a class some pattern node matched that
	// passes the node's value test and takes part in a whole embedding of
	// the pattern, once per pattern node it can bind: in document order, and
	// at one node deeper pattern nodes first, so that a posting is merged
	// before any binding of its own node could enclose it.
	sweep []sweepPosting
	// guardClasses are the classes a binding's root path crosses where no
	// pattern node binds it — above a "//" root, between the ends of a "//"
	// step — whose nodes pruned semantics must also find accessible. Their
	// postings that are ancestors of the sweep's, in document order, are the
	// guards. Both are built by the first plan under pruned semantics that
	// asks (buildGuards), and are not in the memo's byte count.
	guardClasses []int32
	guardsOnce   sync.Once
	guards       []sweepPosting
	runs         *btree.Runs
	sum          *pathsum.Summary
	// answers are the returning node's postings with their counts when no
	// access decision denies anything; classes are the distinct classes of the
	// sweep.
	answers []indexAnswer
	classes []int32
	// By pattern node id: the pattern parent (-1 for the root), whether the
	// step from it is "//", whether the node is on the spine, its bit among
	// its parent's requirements (0 on the spine) and the bits of its own: its
	// children off the spine, each of which needs an accessible binding.
	parent []int32
	desc   []bool
	spine  []bool
	bit    []uint64
	need   []uint64
	retID  int32
	// retEnd says the returning node's binding carries its subtree end, as a
	// subtree root's does in the matcher's tuples.
	retEnd bool
	// slots counts the (pattern node, class) pairs under which the merge
	// keeps the open binding a child step pairs with.
	slots int
}

// sweepPosting is one posting of the sweep with its path class and the
// pattern node it can bind (-1 for a guard). own is the slot of (p, class)
// when p has child steps, up the slot of the (pattern parent, parent class)
// a posting of a child step hangs off; -1 otherwise.
type sweepPosting struct {
	btree.Posting
	class, p int32
	own, up  int32
}

// indexAnswer is one answer with the number of tracked-binding combinations
// that end at it: the tuples the matcher and its joins hand dedup for it.
type indexAnswer struct {
	btree.Posting
	count int
}

// buildIndexShape gathers each pattern node's postings — the runs of the
// classes the embedding matched for it, merged, kept where its value test
// lists them — reduces them to the postings that take part in a whole
// embedding and merges them into one sweep; then it counts the answers of a
// view that denies nothing.
func (sh *compiledShape) buildIndexShape(st *nok.Store, index *btree.Runs) *indexShape {
	t, sum := sh.t, st.Paths()
	n := t.Len()
	ix := &indexShape{
		parent: patternParents(t),
		desc:   make([]bool, n),
		bit:    make([]uint64, n),
		need:   make([]uint64, n),
		retID:  int32(t.ReturningNode().id),
		runs:   index,
		sum:    sum,
	}
	ix.spine = spineOf(t, ix.parent)
	ret := t.ReturningNode()
	ix.retEnd = ret == t.Root || ret.Axis == AxisDescendant
	kids := make([][]int32, n)
	for _, p := range t.nodes {
		ix.desc[p.id] = p != t.Root && p.Axis == AxisDescendant
		k := 0
		for _, q := range p.Children {
			kids[p.id] = append(kids[p.id], int32(q.id))
			if !ix.spine[q.id] {
				ix.bit[q.id] = 1 << k
				ix.need[p.id] |= 1 << k
				k++
			}
		}
	}

	// A slot per (p, class) for every pattern node p with a child step
	// below it and every class it matched: slotOf[p][class].
	nc := sum.NumNodes()
	slotOf := make([][]int32, n)
	slotBase, slotCount := make([]int32, n), make([]int, n)
	for _, p := range t.nodes {
		if !slices.ContainsFunc(kids[p.id], func(q int32) bool { return !ix.desc[q] }) {
			continue
		}
		slotBase[p.id] = int32(ix.slots)
		slotOf[p.id] = make([]int32, nc)
		for k := range slotOf[p.id] {
			slotOf[p.id][k] = -1
		}
		forEachSet(sh.matched[p.id], func(class int32) {
			slotOf[p.id][class] = int32(ix.slots)
			ix.slots++
		})
		slotCount[p.id] = ix.slots - int(slotBase[p.id])
	}
	// Each pattern node's postings are its matched classes' runs merged in
	// document order, kept where its value test lists them; one array,
	// sized by those runs, holds them all.
	total, most := 0, 0
	for _, p := range t.nodes {
		forEachSet(sh.matched[p.id], func(class int32) { total += len(index.ClassPostings(class)) })
		most = max(most, popcountSet(sh.matched[p.id]))
	}
	all := make([]sweepPosting, 0, total)
	lists := make([][]sweepPosting, n)
	classes, runs := make([]int32, 0, most), make([][]btree.Posting, 0, most)
	for _, p := range t.nodes {
		q, from := int32(p.id), len(all)
		classes, runs = classes[:0], runs[:0]
		forEachSet(sh.matched[q], func(class int32) {
			classes, runs = append(classes, class), append(runs, index.ClassPostings(class))
		})
		vals, j := sh.values[q], 0
		btree.Merge(runs, func(run []btree.Posting, k int) {
			class := classes[k]
			for _, ps := range run {
				if p.Value != "" {
					for j < len(vals) && vals[j] < ps.Node {
						j++
					}
					if j == len(vals) || vals[j] != ps.Node {
						continue
					}
				}
				e := sweepPosting{Posting: ps, class: class, p: q, own: -1, up: -1}
				if slotOf[q] != nil {
					e.own = slotOf[q][class]
				}
				if par := ix.parent[q]; par >= 0 && !ix.desc[q] {
					if pc := sum.NodeAt(class).Parent; pc >= 0 {
						e.up = slotOf[par][pc]
					}
					if e.up < 0 {
						continue // its parent class binds nothing
					}
				}
				all = append(all, e)
			}
		})
		lists[q] = all[from:len(all):len(all)]
	}
	ix.reduce(lists, kids, slotBase, slotCount)
	ix.sweep = mergeSweep(lists)

	union := make([]uint64, (nc+63)/64)
	for _, e := range ix.sweep {
		union[e.class>>6] |= 1 << (uint(e.class) & 63)
	}
	forEachSet(union, func(class int32) { ix.classes = append(ix.classes, class) })

	if !slices.Contains(ix.desc, true) {
		// Child steps below the root: an answer's bindings are its
		// ancestors, one combination.
		for _, e := range ix.sweep {
			if e.p == ix.retID {
				ix.answers = append(ix.answers, indexAnswer{e.Posting, 1})
			}
		}
		return ix
	}
	pass := indexPass{ix: ix}
	pass.init(nil, nil, false)
	for {
		a, ok, _ := pass.nextAnswer()
		if !ok {
			break
		}
		ix.answers = append(ix.answers, a)
	}
	return ix
}

// mergeSweep merges the pattern nodes' posting lists, each in document
// order, into one: at one node, the deeper pattern node — the later list —
// first. It merges them in from the last, between two buffers.
func mergeSweep(lists [][]sweepPosting) []sweepPosting {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out, buf := make([]sweepPosting, 0, total), make([]sweepPosting, 0, total)
	for q := len(lists) - 1; q >= 0; q-- {
		l, i, j := lists[q], 0, 0
		buf = buf[:0]
		for i < len(out) && j < len(l) {
			if l[j].Node < out[i].Node {
				buf = append(buf, l[j])
				j++
			} else {
				buf = append(buf, out[i])
				i++
			}
		}
		out, buf = append(append(buf, out[i:]...), l[j:]...), out
	}
	return out
}

// reduce narrows each pattern node's postings, in place, to those that
// take part in a whole embedding of the pattern: the full reduction of the
// tree of semi-joins along the pattern's steps — each node by its children,
// children first, then each node by its parent, parents first. Every
// semi-join is one merge of two lists in document order. Along a child step
// the postings are paired by class: a posting of a class whose parent class
// is c lies inside a posting of c exactly when it is a child of it, and the
// postings of one class are disjoint regions, so one position per parent
// slot — the nearest child posting, the last parent posting — settles it.
// Along a "//" step postings of one pattern node may nest: the nearest
// descendant, or the reach — the furthest end — of the ancestors so far.
func (ix *indexShape) reduce(lists [][]sweepPosting, kids [][]int32, slotBase []int32, slotCount []int) {
	at := make([]xmltree.NodeID, ix.slots)
	for p := len(lists) - 1; p >= 0; p-- {
		slots := at[slotBase[p] : int(slotBase[p])+slotCount[p]]
		for _, q := range kids[p] {
			if ix.desc[q] {
				lists[p] = keepAncestors(lists[p], lists[q])
			} else {
				lists[p] = keepParents(lists[p], lists[q], slots, slotBase[p])
			}
		}
	}
	for q := 1; q < len(lists); q++ {
		p := ix.parent[q]
		if ix.desc[q] {
			lists[q] = keepDescendants(lists[q], lists[p])
		} else {
			lists[q] = keepChildren(lists[q], lists[p], at[slotBase[p]:int(slotBase[p])+slotCount[p]], slotBase[p])
		}
	}
}

// keepAncestors filters ps, in place, to the postings whose region holds a
// posting of qs as a proper descendant.
func keepAncestors(ps, qs []sweepPosting) []sweepPosting {
	kept, j := ps[:0], 0
	for _, x := range ps {
		for j < len(qs) && qs[j].Node <= x.Node {
			j++
		}
		if j < len(qs) && qs[j].Node <= x.End {
			kept = append(kept, x)
		}
	}
	return kept
}

// keepDescendants filters qs, in place, to the proper descendants of a
// posting of ps: of the postings of ps that start before a node, the one
// reaching furthest encloses it if any does.
func keepDescendants(qs, ps []sweepPosting) []sweepPosting {
	kept, j, reach := qs[:0], 0, xmltree.InvalidNode
	for _, y := range qs {
		for ; j < len(ps) && ps[j].Node < y.Node; j++ {
			reach = max(reach, ps[j].End)
		}
		if y.Node <= reach {
			kept = append(kept, y)
		}
	}
	return kept
}

// keepParents filters ps, in place, to the postings with a child among qs,
// in reverse document order: near, by parent slot from base, holds the
// nearest posting of qs after the current one.
func keepParents(ps, qs []sweepPosting, near []xmltree.NodeID, base int32) []sweepPosting {
	for k := range near {
		near[k] = math.MaxInt32
	}
	w, j := len(ps), len(qs)-1
	for i := len(ps) - 1; i >= 0; i-- {
		for ; j >= 0 && qs[j].Node > ps[i].Node; j-- {
			near[qs[j].up-base] = qs[j].Node
		}
		if near[ps[i].own-base] <= ps[i].End {
			w--
			ps[w] = ps[i]
		}
	}
	return ps[w:]
}

// keepChildren filters qs, in place, to the children of a posting of ps:
// last, by parent slot from base, holds the end of the last posting of ps
// before the current one.
func keepChildren(qs, ps []sweepPosting, last []xmltree.NodeID, base int32) []sweepPosting {
	for k := range last {
		last[k] = xmltree.InvalidNode
	}
	kept, j := qs[:0], 0
	for _, y := range qs {
		for ; j < len(ps) && ps[j].Node < y.Node; j++ {
			last[ps[j].own-base] = ps[j].End
		}
		if last[y.up-base] >= y.Node {
			kept = append(kept, y)
		}
	}
	return kept
}

// guardSet returns the guard classes and guardPostings the guards: the
// first call of either builds both.
func (ix *indexShape) guardSet() []int32 {
	ix.guardsOnce.Do(ix.buildGuards)
	return ix.guardClasses
}

func (ix *indexShape) guardPostings() []sweepPosting {
	ix.guardsOnce.Do(ix.buildGuards)
	return ix.guards
}

// gapClasses returns the guard classes. A binding's root path is bound by
// pattern nodes along child steps; the classes it crosses unbound are every
// proper ancestor of a "//" root's class and, for a "//" step, those strictly
// below the outermost class its pattern parent kept on the path.
//
// Each kept class is walked up once, stopping at the first class already
// marked. Above it a walk before marked the path up to its own bound, and no
// walk's bound lies above an earlier one's: a kept class has a class its
// pattern parent kept above it, and the walking nodes lie on the spine, in
// pattern order. outer memoizes, by class, the outermost class the pattern
// parent kept on its root path, itself included (-1 for none); a parent
// precedes its child in the summary's numbering, so one pass in class order
// fills it.
func (ix *indexShape) gapClasses() []int32 {
	nc, n := ix.sum.NumNodes(), len(ix.parent)
	cw := (nc + 63) / 64
	bits := make([]uint64, n*cw)
	kept := make([][]uint64, n) // by pattern node the classes of its postings
	for _, e := range ix.sweep {
		if kept[e.p] == nil {
			kept[e.p] = bits[int(e.p)*cw : int(e.p+1)*cw]
		}
		kept[e.p][e.class>>6] |= 1 << (uint(e.class) & 63)
	}
	gap := make([]uint64, cw)
	outer := make([]int32, nc)
	for q, cls := range kept {
		par := ix.parent[q]
		if cls == nil || par >= 0 && !ix.desc[q] {
			continue
		}
		if par >= 0 {
			for a := range outer {
				o := int32(-1)
				if pa := ix.sum.NodeAt(int32(a)).Parent; pa >= 0 {
					o = outer[pa]
				}
				if o < 0 && hasBit(kept[par], a) {
					o = int32(a)
				}
				outer[a] = o
			}
		}
		forEachSet(cls, func(class int32) {
			a, top := ix.sum.NodeAt(class).Parent, int32(-1)
			if par >= 0 && a >= 0 {
				top = outer[a]
			}
			for ; a >= 0 && a != top && !hasBit(gap, int(a)); a = ix.sum.NodeAt(a).Parent {
				gap[a>>6] |= 1 << (uint(a) & 63)
			}
		})
	}
	var classes []int32
	forEachSet(gap, func(class int32) { classes = append(classes, class) })
	return classes
}

// buildGuards names the guard classes and finds the guards: in one pass
// over the sweep, a pointer per guard class into its run finds each
// posting's ancestor of that class, the last posting before it. An ancestor
// new to the pass starts after every posting before, so the guards come out
// in document order.
func (ix *indexShape) buildGuards() {
	if ix.guardClasses = ix.gapClasses(); len(ix.guardClasses) == 0 {
		return
	}
	nc := ix.sum.NumNodes()
	gap := make([]bool, nc)
	for _, a := range ix.guardClasses {
		gap[a] = true
	}
	// up[c] is the innermost guard class strictly above class c, -1 for
	// none: a parent precedes its child in the summary's numbering. at[a] is
	// the position in a's run of the current posting's ancestor, last[a] that
	// of the last guard taken. A guard is taken with every guard above it, so
	// the walk up from a posting stops at the first ancestor taken before,
	// and the new guards go out outermost first.
	up, at, last := make([]int32, nc), make([]int, nc), make([]int, nc)
	for c := range up {
		up[c], last[c] = -1, -1
		if p := ix.sum.NodeAt(int32(c)).Parent; p >= 0 && gap[p] {
			up[c] = p
		} else if p >= 0 {
			up[c] = up[p]
		}
	}
	for _, y := range ix.sweep {
		from := len(ix.guards)
		for a := up[y.class]; a >= 0; a = up[a] {
			run, k := ix.runs.ClassPostings(a), at[a]
			for k+1 < len(run) && run[k+1].Node < y.Node {
				k++
			}
			if at[a] = k; last[a] == k {
				break
			}
			last[a] = k
			ix.guards = append(ix.guards, sweepPosting{Posting: run[k], class: a, p: -1, own: -1, up: -1})
		}
		slices.Reverse(ix.guards[from:])
	}
}

// size is what the plan holds in memory.
func (ix *indexShape) size() int64 {
	return int64(cap(ix.sweep))*int64(unsafe.Sizeof(sweepPosting{})) +
		int64(cap(ix.answers))*int64(unsafe.Sizeof(indexAnswer{})) +
		int64(cap(ix.classes))*int64(unsafe.Sizeof(int32(0)))
}

// Access decision sources, as the plan counts them.
const (
	decideByClass = iota
	decideByDirectory
	decideOnBlock
)

// decisionSource says where e's access decision comes from under plan c:
// its class's uniform verdict, the directory (the deny bitmap, or a block of
// one code), or the block.
func (c *compiled) decisionSource(e *sweepPosting) int {
	if c.route.verdict(e.class) != vMixed {
		return decideByClass
	}
	if c.accessSkip {
		pages := c.mask.pages
		k, _ := slices.BinarySearchFunc(pages, e.Node+1, func(pi nok.PageInfo, n xmltree.NodeID) int { return cmp.Compare(pi.FirstNode, n) })
		if c.mask.pageDenied(k-1) || !pages[k-1].ChangeBit {
			return decideByDirectory
		}
	}
	return decideOnBlock
}

// needsDecisions reports whether some posting's access decision can deny:
// not when the plan has no view, nor when every class of the sweep — and
// under pruned semantics of the guards — is uniformly allowed.
func (c *compiled) needsDecisions() bool {
	if c.opts.View == nil {
		return false
	}
	allowed := func(class int32) bool { return c.route.verdict(class) == vAllow }
	return slices.ContainsFunc(c.index.classes, func(class int32) bool { return !allowed(class) }) ||
		c.opts.Semantics == SemanticsPrunedSubtree && slices.ContainsFunc(c.index.guardSet(), func(class int32) bool { return !allowed(class) })
}

// indexPass is the stack merge of an index plan: one forward pass over the
// sweep that decides each posting's access when a binding of its pattern
// parent is open — the merge visits each block at most once — and hands out
// an answer once no later posting can change it, in document order.
//
// Entries are the bindings taken: accessible, with an open binding of the
// pattern parent. One whose predicates are unmet waits; once met it tells its
// parent, and a spine entry still waiting when it closes is dead. While a
// spine entry waits, the entries after it are not settled: the count of an
// entry of the spine — the tracked-binding combinations ending at it — is its
// parent entry's along a child step, the sum over the open entries of its
// pattern parent along a "//" step, and 0 for a dead one. An answer is a
// settled entry of the returning node with a count.
//
// Under pruned semantics a binding also needs every ancestor accessible. The
// ones no pattern node binds are the guards: those enclosing the position
// wait on a stack and are decided, outermost first, when a posting under
// them is; a denied one, like a denied posting, prunes its region, tracked
// as a reach. A class whose root path crosses a uniformly denied class binds
// nothing.
type indexPass struct {
	ix *indexShape
	// c makes the access decisions, nil when the pass allows everything.
	c      *compiled
	cur    *nok.Cursor
	ctx    context.Context
	pruned bool

	// next is the first sweep posting not merged, guard the first guard.
	next, guard int
	done        bool
	// ents holds the entries, those closed and settled dropped now and then
	// (compact); stack lists the open ones, outermost first. Those from
	// settled on wait to be settled, pending counts the open spine entries
	// with unmet predicates.
	ents    []ixEntry
	stack   []int32
	settled int
	pending int
	// slotEnd and slotEnt are the end and the entry of the last binding per
	// slot, reach the furthest end of a binding per pattern node.
	slotEnd []xmltree.NodeID
	slotEnt []int32
	reach   []xmltree.NodeID
	// guards are the shape's under pruned semantics; prunedTo is the
	// furthest end of a denied node; undecided lists the guards enclosing the
	// position that are not decided, outermost first.
	guards    []sweepPosting
	prunedTo  xmltree.NodeID
	undecided []int32
	// lastCode is the code decided last, lastAllowed the decision.
	decided, lastAllowed bool
	lastCode             uint32
	// out holds the settled answers from outAt on.
	out   []indexAnswer
	outAt int
}

// ixEntry is one binding the merge took: the posting, its pattern node, the
// entry below it on the stack when it opened, its parent entry along a child
// step (else -1), its slot (else -1), its unmet predicates and, once
// settled, its count.
type ixEntry struct {
	btree.Posting
	p, up, par, own int32
	need            uint64
	count           int
}

// init readies the pass.
func (ps *indexPass) init(c *compiled, cur *nok.Cursor, pruned bool) {
	ps.c, ps.cur, ps.pruned = c, cur, pruned
	slots, n := ps.ix.slots, len(ps.ix.parent)
	// The end of a slot's binding is -1 before one, and so is the reach.
	ends, ints := make([]xmltree.NodeID, slots+n), make([]int32, slots+8)
	ps.slotEnt, ps.stack = ints[:slots:slots], ints[slots:slots]
	ps.ents = make([]ixEntry, 0, 8)
	for k := range ends {
		ends[k] = xmltree.InvalidNode
	}
	ps.slotEnd, ps.reach = ends[:slots], ends[slots:]
	ps.prunedTo = xmltree.InvalidNode
	if pruned {
		ps.guards = ps.ix.guardPostings()
	}
}

// nextAnswer advances the merge to the next answer; ok is false at the end.
func (ps *indexPass) nextAnswer() (a indexAnswer, ok bool, err error) {
	sweep := ps.ix.sweep
	for ps.outAt == len(ps.out) {
		ps.out, ps.outAt = ps.out[:0], 0
		if ps.next == len(sweep) {
			if ps.done {
				return indexAnswer{}, false, nil
			}
			ps.done = true
			ps.closeBefore(math.MaxInt32)
			ps.settle()
			continue
		}
		e := &sweep[ps.next]
		ps.closeBefore(e.Node)
		if ps.pending == 0 && ps.settled < len(ps.ents) && ps.settle() > 0 {
			continue // hand them out before deciding e
		}
		ps.next++
		if err := ps.visit(e); err != nil {
			return indexAnswer{}, false, err
		}
	}
	ps.outAt++
	return ps.out[ps.outAt-1], true, nil
}

// visit merges posting e: it takes it as an entry when a binding of its
// pattern parent is open — along a child step the one of its parent class,
// unless a predicate's binding there is already witnessed — and the access
// decisions admit it.
func (ps *indexPass) visit(e *sweepPosting) error {
	ix := ps.ix
	par := int32(-1)
	switch q := ix.parent[e.p]; {
	case q < 0:
	case ix.desc[e.p]:
		if ps.reach[q] < e.Node {
			return nil
		}
	default:
		if ps.slotEnd[e.up] < e.Node {
			return nil
		}
		par = ps.slotEnt[e.up]
		if ps.ents[par].need&ix.bit[e.p] == 0 && !ix.spine[e.p] {
			return nil
		}
	}
	if ps.c != nil {
		if ok, err := ps.admit(e); err != nil || !ok {
			return err
		}
	}
	need := ix.need[e.p]
	switch {
	case need == 0 && !ix.spine[e.p]:
		ps.satisfy(par, ix.bit[e.p]) // a predicate's leaf: nothing refers to it
		return nil
	case need == 0 && e.p == ix.retID && ps.pending == 0:
		// Nothing refers to an answer without predicates either: with no
		// entry waiting, it settles on the spot.
		if ps.settle(); par >= 0 {
			par = ps.slotEnt[e.up] // settling may have moved it
		}
		if n := ps.count(e.p, par, ps.top()); n > 0 {
			ps.out = append(ps.out, indexAnswer{e.Posting, n})
		}
		return nil
	}
	k, up := int32(len(ps.ents)), ps.top()
	ps.ents = append(ps.ents, ixEntry{Posting: e.Posting, p: e.p, up: up, par: par, own: e.own, need: need})
	ps.stack = append(ps.stack, k)
	if e.own >= 0 {
		ps.slotEnd[e.own], ps.slotEnt[e.own] = e.End, k
	}
	ps.reach[e.p] = max(ps.reach[e.p], e.End)
	if need != 0 && ix.spine[e.p] {
		ps.pending++
	}
	return nil
}

// top is the entry on top of the stack, -1 on an empty one.
func (ps *indexPass) top() int32 {
	if len(ps.stack) == 0 {
		return -1
	}
	return ps.stack[len(ps.stack)-1]
}

// admit makes e's access decisions: under pruned semantics, that no denied
// node encloses it and, outermost first, that the guards enclosing it are
// accessible; then e's own.
func (ps *indexPass) admit(e *sweepPosting) (bool, error) {
	if ps.pruned {
		if e.Node <= ps.prunedTo || ps.c.route.pathDenied(e.class) {
			return false, nil
		}
		ps.openGuards(e.Node)
		for _, g := range ps.undecided {
			gp := &ps.guards[g]
			ok, err := ps.allowed(gp)
			if err != nil {
				return false, err
			}
			if !ok {
				ps.prunedTo = max(ps.prunedTo, gp.End)
				break
			}
		}
		ps.undecided = ps.undecided[:0]
		if e.Node <= ps.prunedTo {
			return false, nil
		}
	}
	ok, err := ps.allowed(e)
	if !ok && ps.pruned {
		ps.prunedTo = max(ps.prunedTo, e.End)
	}
	return ok, err
}

// openGuards brings the stack of undecided guards to node n: the guards of
// mixed classes up to n join it, outside a pruned region, and the ones that
// end before n leave.
func (ps *indexPass) openGuards(n xmltree.NodeID) {
	guards := ps.guards
	for ; ps.guard < len(guards) && guards[ps.guard].Node <= n; ps.guard++ {
		g := &guards[ps.guard]
		if g.Node <= ps.prunedTo || ps.c.route.verdict(g.class) != vMixed {
			continue // a uniformly denied class has pruned its classes already
		}
		ps.popGuards(g.Node)
		ps.undecided = append(ps.undecided, int32(ps.guard))
	}
	ps.popGuards(n)
}

func (ps *indexPass) popGuards(n xmltree.NodeID) {
	for k := len(ps.undecided); k > 0 && ps.guards[ps.undecided[k-1]].End < n; k-- {
		ps.undecided = ps.undecided[:k-1]
	}
}

// allowed decides e's access as the matcher would: from its class's verdict
// when the class is uniform, from the directory when the view's deny bitmap
// covers e's block or the block holds one code, otherwise from the code in
// force at e, read from its block.
func (ps *indexPass) allowed(e *sweepPosting) (bool, error) {
	c := ps.c
	switch c.route.verdict(e.class) {
	case vAllow:
		return true, nil
	case vDeny:
		return false, nil
	}
	k := ps.cur.BlockOf(e.Node)
	if c.mask.pageDenied(k) {
		return false, nil
	}
	if c.accessSkip && !c.mask.pages[k].ChangeBit {
		return ps.codeAllowed(c.mask.pages[k].AccessCode), nil
	}
	code, err := ps.cur.Code(ps.ctx, e.Node)
	if err != nil {
		return false, err
	}
	return ps.codeAllowed(code), nil
}

// codeAllowed is the view's decision on a code, asked once for a run of
// postings under one code.
func (ps *indexPass) codeAllowed(code uint32) bool {
	if !ps.decided || code != ps.lastCode {
		ps.decided, ps.lastCode, ps.lastAllowed = true, code, ps.c.opts.View.CodeAllowed(code)
	}
	return ps.lastAllowed
}

// satisfy meets requirement bit of entry k: a predicate witnessed. An entry
// off the spine whose last requirement that was passes it on to its parent.
func (ps *indexPass) satisfy(k int32, bit uint64) {
	for {
		x := &ps.ents[k]
		if x.need&bit == 0 {
			return
		}
		if x.need &^= bit; x.need != 0 {
			return
		}
		if ps.ix.spine[x.p] {
			ps.pending--
			return
		}
		k, bit = x.par, ps.ix.bit[x.p]
	}
}

// closeBefore pops the entries that end before node n; a spine entry with
// unmet predicates dies.
func (ps *indexPass) closeBefore(n xmltree.NodeID) {
	for k := len(ps.stack); k > 0; k-- {
		x := &ps.ents[ps.stack[k-1]]
		if x.End >= n {
			return
		}
		if x.need != 0 && ps.ix.spine[x.p] {
			ps.pending--
		}
		ps.stack = ps.stack[:k-1]
	}
}

// settle counts the entries not settled yet — no spine entry waits — and
// queues the answers among them; it returns how many.
func (ps *indexPass) settle() int {
	ix, queued := ps.ix, len(ps.out)
	for k := ps.settled; k < len(ps.ents); k++ {
		x := &ps.ents[k]
		if !ix.spine[x.p] || x.need != 0 {
			continue
		}
		if x.count = ps.count(x.p, x.par, x.up); x.p == ix.retID && x.count > 0 {
			ps.out = append(ps.out, indexAnswer{x.Posting, x.count})
		}
	}
	ps.compact()
	return len(ps.out) - queued
}

// count is the count of a spine binding of pattern node p with parent entry
// par along a child step, the entry up below it on the stack: 1 at the
// root, par's count along a child step, the sum of the counts of p's pattern
// parent's entries down the stack from up along a "//" step.
func (ps *indexPass) count(p, par, up int32) int {
	switch q := ps.ix.parent[p]; {
	case q < 0:
		return 1
	case !ps.ix.desc[p]:
		return ps.ents[par].count
	}
	n := 0
	for ; up >= 0; up = ps.ents[up].up {
		if ps.ents[up].p == ps.ix.parent[p] {
			n += ps.ents[up].count
		}
	}
	return n
}

// compact drops the settled entries that have closed, once they outnumber
// the open ones: a later entry refers only to open ones, its parent and the
// entry below it on the stack among them.
func (ps *indexPass) compact() {
	ps.settled = len(ps.ents)
	if len(ps.ents) < 2*len(ps.stack)+32 {
		return
	}
	for i, k := range ps.stack {
		x := ps.ents[k]
		x.up = int32(i - 1)
		if x.par >= 0 {
			par, _ := slices.BinarySearch(ps.stack[:i], x.par)
			x.par = int32(par)
		}
		if x.own >= 0 {
			ps.slotEnt[x.own] = int32(i)
		}
		ps.ents[i], ps.stack[i] = x, int32(i)
	}
	ps.ents = ps.ents[:len(ps.stack)]
	ps.settled = len(ps.ents)
}

// indexCursor runs an index plan: it hands out one tuple per answer, in
// document order, binding only the returning node; the answers are distinct
// by construction. Without a decision that can deny, the answers are the
// shape's own. Matches counts each answer's tuples once the next answer is
// asked for, so that under a Limit of k it counts those of the first k−1
// answers and one, as dedup does.
type indexCursor struct {
	indexPass
	// row is the tuple handed out, rewritten by every Next.
	row           Tuple
	retSlot       int
	shaped        bool
	at            int
	matches, owed int
	// ctxDone is the Done channel of ctx, taken once, as answers takes
	// it.
	ctxDone <-chan struct{}
}

func newIndexCursor(ctx context.Context, c *compiled, st *nok.Store) *indexCursor {
	ic := &indexCursor{row: make(Tuple, c.width), retSlot: c.retSlot, shaped: !c.needsDecisions()}
	for i := range ic.row {
		ic.row[i] = unbound
	}
	ic.ix, ic.ctx, ic.ctxDone = c.index, ctx, ctx.Done()
	if !ic.shaped {
		ic.init(c, st.NewCursor(), c.opts.Semantics == SemanticsPrunedSubtree)
	}
	return ic
}

func (ic *indexCursor) Next(ctx context.Context) (Tuple, error) {
	ic.matches, ic.owed = ic.matches+ic.owed, 0
	var a indexAnswer
	if ic.shaped {
		if ic.at == len(ic.ix.answers) {
			return nil, nil
		}
		a = ic.ix.answers[ic.at]
		ic.at++
	} else {
		select {
		case <-ic.ctxDone:
			return nil, ctx.Err()
		default:
		}
		var ok bool
		var err error
		if a, ok, err = ic.nextAnswer(); err != nil || !ok {
			return nil, err
		}
	}
	ic.matches, ic.owed = ic.matches+1, a.count-1
	b := binding{a.Node, xmltree.InvalidNode, int32(a.Level)}
	if ic.ix.retEnd {
		b.end = a.End
	}
	ic.row[ic.retSlot] = b
	return ic.row, nil
}

func (ic *indexCursor) Close() error { return nil }
