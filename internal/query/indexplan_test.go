package query

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
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

// anchoredTwigs seed FuzzAnchoredIndexPlan: child-only patterns from the
// document root over chainDoc's tags, with predicates, * steps and value
// tests.
var anchoredTwigs = []string{
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
}

// patternSpec is one pattern node to build, with its children.
type patternSpec struct {
	tag, value string
	returning  bool
	kids       []*patternSpec
}

func (ps *patternSpec) build() *PatternNode {
	p := &PatternNode{Tag: ps.tag, Value: ps.value, Returning: ps.returning}
	for _, k := range ps.kids {
		p.Children = append(p.Children, k.build())
	}
	return p
}

// anchoredPattern draws a child-only twig from the document root that
// mostly follows doc: the path down to a random node, one to three
// predicates branching off it one or two steps deep, some steps turned into
// * or into a tag the document may not have there, and value tests — the
// node's own value or a literal — on predicate leaves and on the returning
// node, whose step is the path's last or, now and then, one above it. The
// returned func builds a fresh tree each call.
func anchoredPattern(rng *rand.Rand, doc *xmltree.Document) func() *PatternTree {
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
	path = path[:min(len(path), 2+rng.Intn(4))]
	specs := make([]*patternSpec, len(path))
	for i, n := range path {
		specs[i] = step(n)
		if i > 0 {
			specs[i-1].kids = append(specs[i-1].kids, specs[i])
		}
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		i := rng.Intn(len(path))
		kids := doc.Children(path[i])
		if len(kids) == 0 {
			continue
		}
		c := kids[rng.Intn(len(kids))]
		pred := step(c)
		leaf, at := pred, c
		if gk := doc.Children(c); len(gk) > 0 && rng.Intn(2) == 0 {
			at = gk[rng.Intn(len(gk))]
			leaf = step(at)
			pred.kids = append(pred.kids, leaf)
		}
		valueOf(leaf, at)
		// A predicate goes before the path's next step, as the grammar
		// writes it.
		specs[i].kids = append([]*patternSpec{pred}, specs[i].kids...)
	}
	ret := len(specs) - 1
	if ret > 0 && rng.Intn(5) == 0 {
		ret--
	}
	specs[ret].returning = true
	valueOf(specs[ret], path[ret])
	return func() *PatternTree {
		pt, err := NewPatternTree(specs[0].build())
		if err != nil {
			panic(err)
		}
		return pt
	}
}

// anchoredStats counts what checkAnchored exercised: answers of the full
// runs, view-and-semantics cases in which access control removed answers the
// unsecured run had, and plan memo misses and hits.
type anchoredStats struct {
	answers, narrowed int
	misses, hits      obs.Counter
}

// checkAnchored runs the pattern parse builds on the served index and on the
// ε-NoK matcher (the DisablePathSummary arm of the same evaluator) under no
// view, both semantics for two subjects, every limit and a plan memo's miss
// and hit. The two must hand out the same answers in the same order with the
// same Matches and tuples, the answers must be MatchDocument's on the
// visible document, and no pin may outlive a query.
func checkAnchored(t *testing.T, what string, doc *xmltree.Document, m *acl.Matrix, pageSize int, parse func() *PatternTree, st *anchoredStats) {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemPager(pageSize), 1024)
	ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{StoreValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{doc: doc, m: m, ss: ss, pool: pool}
	sn := e.servedSnapshot(t)
	xpath := parse().String()
	if c, err := NewEvaluatorAt(sn).compile(parse(), Options{}); err != nil || c.index == nil && !c.emptyStruct {
		t.Fatalf("%s %s: no index plan (%v)", what, xpath, err)
	}
	unsecured := len(visibleMatches(doc, func(xmltree.NodeID) bool { return true }, parse()))
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
		want := visibleMatches(doc, func(n xmltree.NodeID) bool { return sem.s < 0 || m.Accessible(n, sem.s) }, parse())
		st.answers += len(want)
		if len(want) < unsecured {
			st.narrowed++
		}
		for _, limit := range []int{0, 1, 10} {
			name := fmt.Sprintf("%s %s %s limit %d", what, xpath, sem.name, limit)
			opts := sem.opts
			opts.Limit = limit
			sn.Masks = NewMaskCache(&st.hits, &st.misses)
			ev := NewEvaluatorAt(sn)
			off := opts
			off.DisablePathSummary = true
			wantNodes, wantTuples, wantMatches := drainAnswers(t, ev, parse(), off, pool)
			for _, memo := range []string{"miss", "hit"} {
				nodes, tuples, matches := drainAnswers(t, ev, parse(), opts, pool)
				if !slices.Equal(nodes, wantNodes) || matches != wantMatches {
					t.Fatalf("%s (memo %s): answers %v (%d matches), the matcher's %v (%d)", name, memo, nodes, matches, wantNodes, wantMatches)
				}
				if len(tuples) != len(wantTuples) {
					t.Fatalf("%s (memo %s): %d tuples, the matcher's %d", name, memo, len(tuples), len(wantTuples))
				}
				for k := range tuples {
					if !slices.Equal(tuples[k], wantTuples[k]) {
						t.Fatalf("%s (memo %s): tuple %d is %s, the matcher's %s", name, memo, k, tupleKey(tuples[k]), tupleKey(wantTuples[k]))
					}
				}
			}
			res, err := ev.Evaluate(parse(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(res.Nodes); n != len(want) && (limit == 0 || n != min(limit, len(want))) || !slices.Equal(res.Nodes, want[:n]) {
				t.Fatalf("%s: answers %v, the visible document's %v", name, res.Nodes, want)
			}
		}
	}
}

// The anchored index plan against the matcher and the naive model: random
// recursive documents with repeated same-tag siblings, deep denied chains
// beside shallow denied siblings, pages of a few dozen nodes, and child-only
// twigs with one to three predicates, * steps and value tests on predicate
// and returning nodes.
func TestAnchoredIndexPlanOracle(t *testing.T) {
	var st anchoredStats
	valueTests := 0
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
		parse := anchoredPattern(rng, doc)
		for _, p := range parse().nodes {
			if p.Value != "" {
				valueTests++
			}
		}
		checkAnchored(t, fmt.Sprintf("seed %d", seed), doc, m, 64+rng.Intn(200), parse, &st)
	}
	t.Logf("%d answers, %d cases narrowed by access control, %d value tests, %d memo misses, %d hits",
		st.answers, st.narrowed, valueTests, st.misses.Load(), st.hits.Load())
	if st.answers == 0 || st.narrowed == 0 || valueTests == 0 || st.misses.Load() == 0 || st.hits.Load() == 0 {
		t.Error("the cases exercised no answer, no access narrowing, no value test or no memo hit")
	}
}

// FuzzAnchoredIndexPlan runs checkAnchored on the pattern string against a
// fixed recursive document and ACL.
func FuzzAnchoredIndexPlan(f *testing.F) {
	for _, tw := range anchoredTwigs {
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
		for _, p := range pt.nodes {
			if p.Axis != AxisChild || p.Value != "" && p.Tag == "*" {
				return // not an anchored index plan
			}
		}
		var st anchoredStats
		checkAnchored(t, "fuzz", doc, m, 160, func() *PatternTree { return MustParse(xpath) }, &st)
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
