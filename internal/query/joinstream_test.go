package query

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/join"
	"dolxml/internal/nok"
	"dolxml/internal/obs"
	"dolxml/internal/storage"
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
		var err error
		if pairs, err = join.SecureSTD(context.Background(), view.Store(), view.Effective(), ancs, descs); err != nil {
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

// joinTwigs are the join shapes the stack merge has to get right; the
// letters become random tags, so that steps collide and links nest. The
// first three are chains — every link is the root of the subtree joined just
// before, the left stream arrives ordered and the plan has no sort; in the
// others a link is joined twice, is not a subtree root, or comes back after
// another subtree was joined, and the plan sorts.
var joinTwigs = []string{
	`//A//B`,
	`//A//B//C`,
	`/r//A//B`,
	`//A[//B]//C`,
	`//A[B]/C//D`,
	`//A[//B//C]//D`,
	`//A[//B][//C]//D`,
	`//A/B[//C]//D`,
}

// The streaming join against the drained one it replaces, and against the
// document oracle: on random bushy and deep recursive documents, for chains
// and for branches that need the sort operator, without access control and
// under both semantics, at both hand-off granularities, the
// tuple stream below dedup is the reference's, tuple for tuple in the same
// order, and the answers are MatchDocument's on the visible document.
func TestStreamingJoinOracle(t *testing.T) {
	ctx := context.Background()
	var cases, tuples, sorted, chains, nested int
	for seed := int64(0); seed < 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var doc *xmltree.Document
		tags := "abc"
		if seed%2 == 0 {
			doc = idDoc(rng, 100+rng.Intn(200))
		} else {
			doc, tags = randomDoc(rng, 40+rng.Intn(50)), "xyzw" // a few children a node, dozens of levels
		}
		xpath := strings.Map(func(r rune) rune {
			if r >= 'A' && r <= 'Z' {
				return rune(tags[rng.Intn(len(tags))])
			}
			return r
		}, joinTwigs[int(seed/2)%len(joinTwigs)])
		m := acl.NewMatrix(doc.Len(), 1)
		for n := 0; n < doc.Len(); n++ {
			m.Set(xmltree.NodeID(n), 0, n == 0 || rng.Intn(8) > 0)
		}
		pool := storage.NewBufferPool(storage.NewMemPager(64+rng.Intn(200)), 1024)
		ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := btree.BuildFromDocument(pool, doc)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(ss.Store(), idx)
		view := ss.ViewSubject(0)
		pt := MustParse(xpath)
		denied := func(n xmltree.NodeID) bool { return !m.Accessible(n, 0) }
		for _, sem := range []struct {
			opts Options
			doc  *xmltree.Document
		}{
			{Options{}, doc},
			{Options{View: view, Semantics: SemanticsBindings}, hideNodes(doc, denied)},
			{Options{View: view, Semantics: SemanticsPrunedSubtree}, hideNodes(doc, func(n xmltree.NodeID) bool {
				for ; n != xmltree.InvalidNode; n = doc.Parent(n) {
					if denied(n) {
						return true
					}
				}
				return false
			})},
		} {
			what := fmt.Sprintf("seed %d %s (view %v, semantics %d)", seed, xpath, sem.opts.View != nil, sem.opts.Semantics)
			wantNodes := map[xmltree.NodeID]bool{}
			for _, n := range MatchDocument(sem.doc, pt) {
				wantNodes[n] = true
			}
			c, err := ev.compile(pt, sem.opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.empty() {
				if len(wantNodes) != 0 {
					t.Fatalf("%s: proven empty, the oracle has %d answers", what, len(wantNodes))
				}
				continue
			}
			want := referenceStream(t, ev, doc, c)
			cases++
			tuples += len(want)
			chain := true
			for i := 1; i < len(c.subs); i++ {
				chain = chain && !c.sortLeft(i)
			}
			if chain {
				chains++
			} else {
				sorted++
			}
			for i := 1; i < len(want); i++ {
				if a, b := want[i-1], want[i]; a[c.base[1]].node == b[c.base[1]].node && a[c.linkSlot[1]].node != b[c.linkSlot[1]].node {
					nested++ // one right root under two open links
					break
				}
			}

			for _, limit := range []int{0, 1, 10} {
				opts := sem.opts
				opts.Limit = limit
				got := streamBelowDedup(t, ev, pt, opts)
				if len(got) != len(want) {
					t.Fatalf("%s limit=%d: %d tuples, the drained join has %d", what, limit, len(got), len(want))
				}
				for k := range got {
					if !slices.Equal(got[k], want[k]) {
						t.Fatalf("%s limit=%d: tuple %d is %s, the drained join has %s", what, limit, k, tupleKey(got[k]), tupleKey(want[k]))
					}
				}

				res, err := ev.EvaluateCtx(ctx, pt, opts)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if limit == 0 && (res.Matches != len(want) || !sameAnswers(res, wantNodes)) {
					t.Fatalf("%s: Matches %d Nodes %v, want %d tuples, nodes %v", what, res.Matches, res.Nodes, len(want), wantNodes)
				}
				if limit > 0 && len(res.Nodes) != min(limit, len(wantNodes)) {
					t.Fatalf("%s limit=%d: %d answers of the oracle's %d", what, limit, len(res.Nodes), len(wantNodes))
				}
				for _, n := range res.Nodes {
					if !wantNodes[n] {
						t.Fatalf("%s limit=%d: answer %d is not an oracle answer", what, limit, n)
					}
				}
				if n := pool.Pinned(); n != 0 {
					t.Fatalf("%s limit=%d: %d frames still pinned", what, limit, n)
				}
			}
		}
	}
	if cases < 100 || tuples < 5000 || sorted < 40 || chains < 40 || nested < 40 {
		t.Fatalf("only %d cases (%d sorted, %d chains, %d with nested links) and %d tuples were checked", cases, sorted, chains, nested, tuples)
	}
	t.Logf("%d cases (%d sorted, %d chains, %d with nested links), %d reference tuples", cases, sorted, chains, nested, tuples)
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
	run := func(limit int) (gets int64, pins map[string]int64, a *Answers, first xmltree.NodeID) {
		t.Helper()
		if err := e.pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		ctx := obs.WithTrace(context.Background(), tr)
		g0 := e.pool.Stats().Gets
		a, err := e.ev.Open(ctx, pt, Options{View: e.ss.ViewSubject(0), Limit: limit, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		first = xmltree.InvalidNode
		for {
			n, ok, err := a.Next(ctx)
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
		if err := a.Close(); err != nil {
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
