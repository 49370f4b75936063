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
	"dolxml/internal/nok"
	"dolxml/internal/obs"
	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// servedIndex is the tag index a served snapshot keeps for st: flat runs
// grouped by tag and by path class, with value runs over them (nil when st
// stores no values).
func servedIndex(t testing.TB, st *nok.Store) (*btree.Runs, ValueIndex) {
	t.Helper()
	entries := make([]btree.Entry, st.NumNodes())
	classes := make([]int32, st.NumNodes())
	err := st.ForEachClassExtent(func(n, end xmltree.NodeID, level int, tag, class int32) {
		entries[n] = btree.Entry{Tag: tag, Posting: btree.Posting{Node: n, End: end, Level: uint16(level)}}
		classes[n] = class
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := st.Paths()
	runs, err := btree.NewClassRuns(entries, st.NumTags(), btree.Classes{Of: classes, Count: sum.NumNodes(), Numbering: sum.Numbering()})
	if err != nil {
		t.Fatal(err)
	}
	vs := st.Values()
	if vs == nil {
		return runs, nil
	}
	return runs, btree.NewValueRuns(runs, func(nodes []xmltree.NodeID) ([]string, error) {
		return vs.ValuesCtx(context.Background(), nodes)
	})
}

// servedSnapshot is what the facade hands NewEvaluatorAt for the env's
// store: the served index and an empty plan memo.
func (e *env) servedSnapshot(t testing.TB) Snapshot {
	runs, vi := servedIndex(t, e.ss.Store())
	return Snapshot{Store: e.ss.Store(), Index: runs, Values: vi, Masks: NewMaskCache(nil, nil), Seq: 1}
}

// visibleMatches is MatchDocument on the part of doc a subject sees: doc
// without the subtrees of the nodes accessible rejects, answers named by
// their IDs in doc.
func visibleMatches(doc *xmltree.Document, accessible func(xmltree.NodeID) bool, pt *PatternTree) []xmltree.NodeID {
	if !accessible(doc.Root()) {
		return nil
	}
	b := xmltree.NewBuilder()
	var ids []xmltree.NodeID
	var walk func(n xmltree.NodeID)
	walk = func(n xmltree.NodeID) {
		b.Begin(doc.Tag(n))
		b.Text(doc.Value(n))
		ids = append(ids, n)
		for _, c := range doc.Children(n) {
			if accessible(c) {
				walk(c)
			}
		}
		b.End()
	}
	walk(doc.Root())
	var out []xmltree.NodeID
	for _, n := range MatchDocument(b.MustFinish(), pt) {
		out = append(out, ids[n])
	}
	return out
}

// drainAnswers opens the query and returns its answers in the order Next
// hands them out, the tuples below the limit and dedup operators, and
// Matches; it fails the test unless the pool holds no pin after Close.
func drainAnswers(t *testing.T, ev *Evaluator, pt *PatternTree, opts Options, pool *storage.BufferPool) ([]xmltree.NodeID, []Tuple, int) {
	t.Helper()
	ctx := context.Background()
	a, err := ev.Open(ctx, pt, opts)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []xmltree.NodeID
	for {
		n, ok, err := a.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		nodes = append(nodes, n)
	}
	matches := a.Matches()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if n := pool.Pinned(); n != 0 {
		t.Fatalf("%d frames pinned after Close", n)
	}
	var tuples []Tuple
	a, err = ev.Open(ctx, pt, opts)
	if err != nil {
		t.Fatal(err)
	}
	in := a.p
	if lc, ok := in.(*limitCursor); ok {
		in = lc.in
	}
	if dc, ok := in.(*dedupCursor); ok {
		in = dc.in
	}
	for {
		tp, err := in.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if tp == nil {
			break
		}
		tuples = append(tuples, slices.Clone(tp))
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	return nodes, tuples, matches
}

// indexTwigs seed FuzzAnchoredIndexPlan: patterns an index plan answers over
// chainDoc's tags — child paths from the document root with predicates, *
// steps and value tests, then descendant steps on the path to the returning
// node and descendant roots, on which same-tag chains nest.
var indexTwigs = []string{
	`/r/a`,
	`/r/a/b`,
	`/r/a[b]`,
	`/r/a[b]/c`,
	`/r/*/a`,
	`/r/a/*[b]`,
	`/r/a[b][c]/a`,
	`/r/a[b/c]/a[a]`,
	`/r/a[*/b][c]/*/a`,
	`/r/a[b='v1']/c`,
	`/r/b[a='v2'][c]/a[b='v1']`,
	`/r[a/b]/*`,
	`/r`,
	`/*/a/b`,
	`//a//a`,
	`//a//b//a`,
	`/r//a/b`,
	`//a[b]//c[a='v1']`,
	`//a/b//c/a`,
	`//*//a[b/c]`,
	`/r/a//b[c][a]`,
	`//b`,
}

// patternSpec is one pattern node to build, with its children.
type patternSpec struct {
	tag, value      string
	desc, returning bool
	kids            []*patternSpec
}

func (ps *patternSpec) build() *PatternNode {
	p := &PatternNode{Tag: ps.tag, Value: ps.value, Returning: ps.returning}
	if ps.desc {
		p.Axis = AxisDescendant
	}
	for _, k := range ps.kids {
		p.Children = append(p.Children, k.build())
	}
	return p
}

// indexPattern draws a twig an index plan answers that mostly follows doc:
// steps down the path to a random node — from the document root or, now and
// then, a descendant root further down, each a child step or a descendant
// step that skips up to two levels — one to three child predicates branching
// off it one or two steps deep, some steps turned into * or into a tag the
// document may not have there, and value tests — the node's own value or a
// literal — on predicate leaves and on the returning node, whose step is the
// last or, now and then, one above it. The returned func builds a fresh tree
// each call.
func indexPattern(rng *rand.Rand, doc *xmltree.Document) func() *PatternTree {
	step := func(n xmltree.NodeID) *patternSpec {
		ps := &patternSpec{tag: doc.Tag(n)}
		switch rng.Intn(20) {
		case 0, 1, 2:
			ps.tag = "*"
		case 3:
			ps.tag = string(rune('a' + rng.Intn(3)))
		}
		return ps
	}
	valueOf := func(ps *patternSpec, n xmltree.NodeID) {
		if ps.tag == "*" || rng.Intn(4) > 0 {
			return
		}
		if ps.value = doc.Value(n); ps.value == "" || rng.Intn(4) == 0 {
			ps.value = literals[rng.Intn(len(literals))]
		}
	}
	var path []xmltree.NodeID
	for n := xmltree.NodeID(rng.Intn(doc.Len())); n != xmltree.InvalidNode; n = doc.Parent(n) {
		path = append(path, n)
	}
	slices.Reverse(path)
	path = path[:min(len(path), 2+rng.Intn(7))]
	// at lists the path positions the steps bind.
	at, desc := []int{0}, rng.Intn(4) == 0
	if desc {
		at[0] = rng.Intn(len(path))
	}
	specs := []*patternSpec{step(path[at[0]])}
	specs[0].desc = desc
	for len(specs) < 5 {
		next, d := at[len(at)-1]+1, rng.Intn(3) == 0
		if d {
			next += rng.Intn(3)
		}
		if next >= len(path) {
			break
		}
		at = append(at, next)
		specs = append(specs, step(path[next]))
		specs[len(specs)-1].desc = d
		specs[len(specs)-2].kids = append(specs[len(specs)-2].kids, specs[len(specs)-1])
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		i := rng.Intn(len(specs))
		kids := doc.Children(path[at[i]])
		if len(kids) == 0 {
			continue
		}
		c := kids[rng.Intn(len(kids))]
		pred := step(c)
		leaf, n := pred, c
		if gk := doc.Children(c); len(gk) > 0 && rng.Intn(2) == 0 {
			n = gk[rng.Intn(len(gk))]
			leaf = step(n)
			pred.kids = append(pred.kids, leaf)
		}
		valueOf(leaf, n)
		// A predicate goes before the path's next step, as the grammar
		// writes it.
		specs[i].kids = append([]*patternSpec{pred}, specs[i].kids...)
	}
	ret := len(specs) - 1
	if ret > 0 && !specs[ret].desc && rng.Intn(5) == 0 {
		ret-- // the last step becomes a predicate: it must be a child step
	}
	specs[ret].returning = true
	valueOf(specs[ret], path[at[ret]])
	return func() *PatternTree {
		pt, err := NewPatternTree(specs[0].build())
		if err != nil {
			panic(err)
		}
		return pt
	}
}

// indexStats counts what checkIndexPlan exercised: answers of the full runs,
// view-and-semantics cases in which access control removed answers the
// unsecured run had, cases in which bindings and pruned semantics disagreed,
// cases in which the matcher's order was not document order, and plan memo
// misses and hits.
type indexStats struct {
	answers, narrowed, split, reordered int
	misses, hits                        obs.Counter
}

// checkIndexPlan runs the pattern parse builds on the served index and on the
// ε-NoK matcher and its joins (the DisablePathSummary arm of the same
// evaluator) under no view, both semantics for two subjects, every limit and
// a plan memo's miss and hit. Where the arm hands out its answers in document
// order, the two must hand out the same answers in the same order with the
// same Matches; elsewhere the plan hands out the arm's answers in document
// order — under a limit of k the first k of them — with the arm's Matches
// when drained. Its tuples bind the returning node as the arm's do, one per
// answer. The answers must be the reference's — MatchDocument on the visible
// document, under bindings semantics with every bound node accessible — and
// no pin may outlive a query.
func checkIndexPlan(t *testing.T, what string, doc *xmltree.Document, m *acl.Matrix, pageSize int, parse func() *PatternTree, st *indexStats) {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemPager(pageSize), 1024)
	ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{StoreValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{doc: doc, m: m, ss: ss, pool: pool}
	sn := e.servedSnapshot(t)
	xpath := parse().String()
	c, err := NewEvaluatorAt(sn).compile(parse(), Options{})
	if err != nil || c.index == nil && !c.emptyStruct {
		t.Fatalf("%s %s: no index plan (%v)", what, xpath, err)
	}
	// The sweep is the full reduction: per pattern node, the postings of the
	// nodes that bind it in some embedding of the pattern.
	for q := 0; c.index != nil && q < c.t.Len(); q++ {
		var got []xmltree.NodeID
		for _, e := range c.index.sweep {
			if int(e.p) == q {
				got = append(got, e.Node)
			}
		}
		pt := parse()
		for _, p := range pt.nodes {
			p.Returning = p.id == q
		}
		if want := MatchDocument(doc, pt); !slices.Equal(got, want) {
			t.Fatalf("%s %s: the sweep binds pattern node %d at %v, the document at %v", what, xpath, q, got, want)
		}
	}
	all := func(xmltree.NodeID) bool { return true }
	unsecured := len(visibleMatches(doc, all, parse()))
	var bound []xmltree.NodeID // the bindings semantics' answers of the subject
	for _, sem := range []struct {
		name string
		opts Options
		s    acl.SubjectID
	}{
		{"none", Options{}, -1},
		{"bindings", Options{View: ss.ViewSubject(0)}, 0},
		{"pruned", Options{View: ss.ViewSubject(0), Semantics: SemanticsPrunedSubtree}, 0},
		{"bindings/1", Options{View: ss.ViewSubject(1)}, 1},
		{"pruned/1", Options{View: ss.ViewSubject(1), Semantics: SemanticsPrunedSubtree}, 1},
	} {
		accessible := func(n xmltree.NodeID) bool { return m.Accessible(n, sem.s) }
		var want []xmltree.NodeID
		switch {
		case sem.s < 0:
			want = visibleMatches(doc, all, parse())
		case sem.opts.Semantics == SemanticsPrunedSubtree:
			want = visibleMatches(doc, accessible, parse())
			if !slices.Equal(want, bound) {
				st.split++
			}
		default:
			want = matchDocument(doc, parse(), accessible)
			bound = want
		}
		st.answers += len(want)
		if len(want) < unsecured {
			st.narrowed++
		}
		var full []xmltree.NodeID // the arm's answers, drained
		inOrder := true
		for _, limit := range []int{0, 1, 10} {
			name := fmt.Sprintf("%s %s %s limit %d", what, xpath, sem.name, limit)
			opts := sem.opts
			opts.Limit = limit
			sn.Masks = NewMaskCache(&st.hits, &st.misses)
			ev := NewEvaluatorAt(sn)
			off := opts
			off.DisablePathSummary = true
			wantNodes, armTuples, wantMatches := drainAnswers(t, ev, parse(), off, pool)
			if limit == 0 {
				full, inOrder = wantNodes, slices.IsSorted(wantNodes)
				if !inOrder {
					st.reordered++
					full = slices.Sorted(slices.Values(full))
				}
			}
			if !inOrder {
				wantNodes = full
				if limit > 0 {
					wantNodes = full[:min(limit, len(full))]
				}
			}
			// The arm's tuples bind each answer alike: the plan's bind it once.
			var wantTuples []binding
			seen := map[xmltree.NodeID]bool{}
			for _, tp := range armTuples {
				if b := tp[c.retSlot]; !seen[b.node] {
					seen[b.node] = true
					wantTuples = append(wantTuples, b)
				}
			}
			slices.SortFunc(wantTuples, func(a, b binding) int { return cmp.Compare(a.node, b.node) })
			for _, memo := range []string{"miss", "hit"} {
				nodes, tuples, matches := drainAnswers(t, ev, parse(), opts, pool)
				if !slices.Equal(nodes, wantNodes) || (inOrder || limit == 0) && matches != wantMatches {
					t.Fatalf("%s (memo %s): answers %v (%d matches), the matcher's %v (%d)", name, memo, nodes, matches, wantNodes, wantMatches)
				}
				if len(tuples) != len(wantTuples) {
					t.Fatalf("%s (memo %s): %d tuples, the matcher's %d answers", name, memo, len(tuples), len(wantTuples))
				}
				for k := range tuples {
					if tuples[k][c.retSlot] != wantTuples[k] {
						t.Fatalf("%s (memo %s): tuple %d binds %v, the matcher's %v", name, memo, k, tuples[k][c.retSlot], wantTuples[k])
					}
				}
			}
			res, err := ev.Evaluate(parse(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(res.Nodes); n != len(want) && (limit == 0 || n != min(limit, len(want))) || !slices.Equal(res.Nodes, want[:n]) {
				t.Fatalf("%s: answers %v, the reference's %v", name, res.Nodes, want)
			}
		}
	}
}

// The index plan against the matcher and its joins and against the
// reference: random recursive documents with repeated same-tag siblings and
// nested same-tag chains, deep denied chains beside shallow denied siblings,
// pages of a few dozen nodes, and twigs with child and descendant steps on
// the path to the returning node, descendant roots, one to three
// predicates, * steps and value tests on predicate and returning nodes.
func TestIndexPlanOracle(t *testing.T) {
	var st indexStats
	valueTests, descendant := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := chainDoc(rng, 150+rng.Intn(300))
		m := chainACL(rng, doc)
		var denied []xmltree.NodeID
		for n := 1; n < doc.Len(); n++ {
			if !m.Accessible(xmltree.NodeID(n), 0) {
				denied = append(denied, xmltree.NodeID(n))
			}
		}
		doc = withValue(doc, denied[rng.Intn(len(denied))], secretLiteral)
		parse := indexPattern(rng, doc)
		for _, p := range parse().nodes {
			if p.Value != "" {
				valueTests++
			}
		}
		if strings.Contains(parse().String(), "//") {
			descendant++
		}
		checkIndexPlan(t, fmt.Sprintf("seed %d", seed), doc, m, 64+rng.Intn(200), parse, &st)
	}
	t.Logf("%d answers, %d cases narrowed by access control, %d split by the semantics, %d reordered by the matcher, %d value tests, %d descendant twigs, %d memo misses, %d hits",
		st.answers, st.narrowed, st.split, st.reordered, valueTests, descendant, st.misses.Load(), st.hits.Load())
	if st.answers == 0 || st.narrowed == 0 || st.split == 0 || st.reordered == 0 || valueTests == 0 || descendant == 0 || st.misses.Load() == 0 || st.hits.Load() == 0 {
		t.Error("the cases exercised no answer, no access narrowing, no semantics split, no reordering, no value test, no descendant step or no memo hit")
	}
}

// FuzzAnchoredIndexPlan runs checkIndexPlan on the pattern string against a
// fixed recursive document and ACL.
func FuzzAnchoredIndexPlan(f *testing.F) {
	for _, tw := range indexTwigs {
		f.Add(tw)
	}
	rng := rand.New(rand.NewSource(5))
	doc := chainDoc(rng, 240)
	m := chainACL(rng, doc)
	f.Fuzz(func(t *testing.T, xpath string) {
		pt, err := Parse(xpath)
		if err != nil || pt.Len() > 12 {
			return
		}
		spine := spineOf(pt, patternParents(pt))
		for _, p := range pt.nodes {
			if p != pt.Root && p.Axis == AxisDescendant && !spine[p.id] || p.Value != "" && p.Tag == "*" {
				return // not an index plan
			}
		}
		var st indexStats
		checkIndexPlan(t, "fuzz", doc, m, 160, func() *PatternTree { return MustParse(xpath) }, &st)
	})
}

// Class runs numbered otherwise than the store's path summary — here a
// summary rebuilt since they were grouped — are never read: the plan falls
// back to the matcher, and the answers stay.
func TestClassRunsOfAnotherNumberingFallBack(t *testing.T) {
	doc := miniXMark(t)
	e := newEnv(t, doc, allowAll(doc, 1), 256)
	sn := e.servedSnapshot(t)
	pt := MustParse(table1[0].xpath)
	opts := Options{View: e.ss.ViewSubject(0)}
	ev := NewEvaluatorAt(sn)
	if c, err := ev.compile(pt, opts); err != nil || c.index == nil {
		t.Fatalf("no index plan over the runs' own numbering (%v)", err)
	}
	want, err := ev.Evaluate(pt, opts)
	if err != nil || len(want.Nodes) == 0 {
		t.Fatalf("%d answers, %v", len(want.Nodes), err)
	}
	if err := e.ss.Store().RebuildPathSummary(); err != nil {
		t.Fatal(err)
	}
	sn.Masks = NewMaskCache(nil, nil)
	ev = NewEvaluatorAt(sn)
	if c, err := ev.compile(pt, opts); err != nil || c.index != nil {
		t.Fatalf("an index plan over another numbering's class runs (%v)", err)
	}
	got, err := ev.Evaluate(pt, opts)
	if err != nil || !slices.Equal(got.Nodes, want.Nodes) {
		t.Fatalf("answers %v after the rebuild, %v before (%v)", got.Nodes, want.Nodes, err)
	}
}

// On a served snapshot Table 1's twigs, Q5 under a limit and a descendant
// root with a predicate explain as one index operator (under a limit), with
// its guards under pruned semantics; a descendant predicate, and every plan
// of the DisablePathSummary arm, keep the scans and joins.
func TestServedPlansExplainAsIndex(t *testing.T) {
	e := burstEnv(t)
	ev := NewEvaluatorAt(e.servedSnapshot(t))
	ctx := context.Background()
	for _, q := range []struct {
		xpath string
		limit int
		index bool
	}{
		{table1[3].xpath, 0, true},
		{table1[4].xpath, 0, true},
		{table1[4].xpath, 10, true},
		{table1[5].xpath, 0, true},
		{"//item[location]", 0, true},
		{"//parlist[//listitem]//keyword", 0, false},
	} {
		for _, sem := range []Semantics{SemanticsBindings, SemanticsPrunedSubtree} {
			for _, off := range []bool{false, true} {
				opts := Options{View: e.ss.ViewSubject(0), Semantics: sem, Limit: q.limit, DisablePathSummary: off}
				plan, err := ev.Explain(ctx, MustParse(q.xpath), opts)
				if err != nil {
					t.Fatal(err)
				}
				var kinds []string
				for _, op := range plan.Operators {
					kinds = append(kinds, op.Kind)
				}
				isIndex := slices.Contains(kinds, "index")
				if isIndex != (q.index && !off) || !isIndex && !slices.Contains(kinds, "scan") {
					t.Fatalf("%s (semantics %d, no path summary %v): operators %v", q.xpath, sem, off, kinds)
				}
				if isIndex && (plan.Operators[0].Guards > 0) != (sem == SemanticsPrunedSubtree && q.xpath != "//item[location]") {
					t.Errorf("%s (semantics %d): %d guards", q.xpath, sem, plan.Operators[0].Guards)
				}
				if isIndex && q.limit > 0 && kinds[len(kinds)-1] != "limit" {
					t.Errorf("%s: operators %v end without the limit", q.xpath, kinds)
				}
			}
		}
	}
}
