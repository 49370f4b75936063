package query

import (
	"cmp"
	"context"
	"slices"
	"testing"

	"dolxml/internal/bitset"
	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/join"
	"dolxml/internal/obs"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
)

// drainedJoin is the join as it ran before it streamed, kept as the
// reference the stack merge's tuple order is held to: the left side whole,
// ordered stably by link binding and grouped by it; the distinct right roots
// joined against the distinct links by the slice-driven STD (SecureSTD when
// view is set); and per right tuple one output for every left tuple of every
// paired link, outermost link first, left tuples in arrival order.
func drainedJoin(t *testing.T, doc *xmltree.Document, view *dol.SubjectView, left, right []Tuple, linkSlot, base, nSlots int) []Tuple {
	t.Helper()
	left = slices.Clone(left)
	slices.SortStableFunc(left, func(a, b Tuple) int { return cmp.Compare(a[linkSlot].node, b[linkSlot].node) })
	var ancs, descs []join.Item
	groups := map[xmltree.NodeID][]Tuple{}
	for _, tp := range left {
		b := tp[linkSlot]
		if groups[b.node] == nil {
			ancs = append(ancs, join.Item{Node: b.node, End: doc.End(b.node), Level: int(b.level)})
		}
		groups[b.node] = append(groups[b.node], tp)
	}
	for i, rt := range right {
		if b := rt[base]; i == 0 || b.node != right[i-1][base].node {
			descs = append(descs, join.Item{Node: b.node, End: b.end, Level: int(b.level)})
		}
	}
	pairs := join.STD(ancs, descs)
	if view != nil {
		eff := bitset.New(view.Store().Codebook().NumSubjects())
		for _, s := range view.Subjects() {
			eff.Set(int(s))
		}
		var err error
		if pairs, err = join.SecureSTD(context.Background(), view.Store(), eff, ancs, descs); err != nil {
			t.Fatal(err)
		}
	}
	paired := map[xmltree.NodeID][]xmltree.NodeID{}
	for _, p := range pairs {
		paired[p.Desc] = append(paired[p.Desc], p.Anc)
	}
	var out []Tuple
	for _, rt := range right {
		for _, anc := range paired[rt[base].node] {
			for _, tp := range groups[anc] {
				ntp := slices.Clone(tp)
				copy(ntp[base:base+nSlots], rt[base:base+nSlots])
				out = append(out, ntp)
			}
		}
	}
	return out
}

func drainCursor(t *testing.T, c Cursor) []Tuple {
	t.Helper()
	ctx := context.Background()
	var out []Tuple
	for {
		tp, err := c.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if tp == nil {
			break
		}
		out = append(out, tp)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceStream evaluates plan c below dedup the old way: every subtree's
// match stream drained by itself (the root-path filter on the top one under
// pruned semantics) and combined by drainedJoin.
func referenceStream(t *testing.T, ev *Evaluator, doc *xmltree.Document, c *compiled) []Tuple {
	t.Helper()
	ctx := context.Background()
	m := ev.newMatcher(c)
	view := c.opts.View
	if c.opts.Semantics != SemanticsPrunedSubtree {
		view = nil
	}
	var cur []Tuple
	for i := range c.subs {
		var mc Cursor = newMatchCursor(ctx, ev.store, m, c, i)
		if i == 0 {
			if view != nil {
				mc = &pathFilterCursor{view: view, in: mc, cur: ev.store.NewCursor()}
			}
			cur = drainCursor(t, mc)
			continue
		}
		cur = drainedJoin(t, doc, view, cur, drainCursor(t, mc), c.linkSlot[i], c.base[i], len(c.slots[i]))
	}
	return cur
}

// opPins folds a trace's page pins by plan operator.
func opPins(tr *obs.Trace) map[string]int64 {
	pins := map[string]int64{}
	for _, e := range tr.Events() {
		if e.Kind == obs.EvPagePin {
			pins[e.Op]++
		}
	}
	return pins
}

// A Limit stops both sides of a descendant join. //listitem//keyword on the
// XMark document, cold pool: the first answer lies under one of the first
// listitems, so Limit 1 must read a fraction of what the full drain reads
// on the left scan and on the right scan — the drained join matched all
// 1,357 listitems before its first probe — and the left stream must have been
// pulled no further than the first answer's root, one link read ahead.
func TestLimitStopsBothJoinSides(t *testing.T) {
	// The index on a pool of its own: every Get counted below is a block
	// visit of the query.
	doc := xmark.Generate(xmark.Scaled(0, 20000))
	e := newExplainEnv(t, doc, allowAll(doc, 1), 1024)
	pt := MustParse(`//listitem//keyword`)
	run := func(limit int) (gets int64, pins map[string]int64, a *answers, first xmltree.NodeID) {
		t.Helper()
		if err := e.pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		ctx := obs.WithTrace(context.Background(), tr)
		g0 := e.pool.Stats().Gets
		a, err := e.ev.open(ctx, pt, Options{View: e.ss.ViewSubject(0), Limit: limit, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		first = xmltree.InvalidNode
		for {
			n, ok, err := a.next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if first == xmltree.InvalidNode {
				first = n
			}
		}
		if err := a.p.Close(); err != nil {
			t.Fatal(err)
		}
		if n := e.pool.Pinned(); n != 0 {
			t.Fatalf("limit %d: %d frames still pinned", limit, n)
		}
		return e.pool.Stats().Gets - g0, opPins(tr), a, first
	}
	fullGets, fullPins, _, _ := run(0)
	limGets, limPins, a, first := run(1)
	t.Logf("full drain: %d Gets %v; Limit 1: %d Gets %v", fullGets, fullPins, limGets, limPins)
	if 2*limGets >= fullGets {
		t.Errorf("Limit 1 performed %d pool Gets, the full drain %d: want fewer than half", limGets, fullGets)
	}
	for _, op := range []string{opScan(0), opScan(1)} {
		if 2*limPins[op] >= fullPins[op] {
			t.Errorf("%s: Limit 1 pinned %d pages, the full drain %d: want fewer than half — this side did not stop", op, limPins[op], fullPins[op])
		}
	}
	// How far the join pulled the left stream: up to the first link past
	// the answer. The scan behind it stopped in the candidate whose row the
	// join pulled last.
	jc := a.p.(*limitCursor).in.(*dedupCursor).in.(*joinCursor)
	cands := a.c.scans[0].cands
	position := func(n xmltree.NodeID) int {
		i, _ := slices.BinarySearchFunc(cands, n, func(p btree.Posting, n xmltree.NodeID) int { return cmp.Compare(p.Node, n) })
		return i
	}
	pulled, answerAt := len(cands), position(first)
	if jc.next != nil {
		pulled = position(jc.next[jc.linkSlot].node) + 1
	}
	if pulled > answerAt+1 {
		t.Errorf("the join pulled %d of %d left tuples; the first answer (node %d) lies after %d candidates", pulled, len(cands), first, answerAt)
	}
	if left := jc.left.(*matchCursor); left.at != pulled-1 || len(left.pending) != 0 {
		t.Errorf("the left scan stands at candidate %d with %d rows waiting; the join pulled the row of candidate %d last", left.at, len(left.pending), pulled-1)
	}
}
