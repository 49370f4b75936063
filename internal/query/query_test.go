package query

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/storage"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// --- XPath parsing ---

func TestParseSimplePath(t *testing.T) {
	pt := MustParse("/site/regions/africa/item")
	if pt.Root.Tag != "site" || pt.Root.Axis != AxisChild {
		t.Fatalf("root = %+v", pt.Root)
	}
	n := pt.Root
	for _, tag := range []string{"regions", "africa", "item"} {
		if len(n.Children) != 1 {
			t.Fatalf("expected single chain at %s", n.Tag)
		}
		n = n.Children[0]
		if n.Tag != tag || n.Axis != AxisChild {
			t.Fatalf("step = %+v, want %s", n, tag)
		}
	}
	if !n.Returning {
		t.Fatal("last step should be returning")
	}
}

func TestParsePredicates(t *testing.T) {
	// Q1 from Table 1.
	pt := MustParse("/site/regions/africa/item[location][name][quantity]")
	item := pt.Root.Children[0].Children[0].Children[0]
	if item.Tag != "item" || !item.Returning {
		t.Fatalf("item = %+v", item)
	}
	if len(item.Children) != 3 {
		t.Fatalf("item has %d predicates", len(item.Children))
	}
	for i, tag := range []string{"location", "name", "quantity"} {
		if item.Children[i].Tag != tag || item.Children[i].Axis != AxisChild {
			t.Fatalf("predicate %d = %+v", i, item.Children[i])
		}
		if item.Children[i].Returning {
			t.Fatal("predicates must not be returning")
		}
	}
}

func TestParseNestedPredicatePath(t *testing.T) {
	// Q3: /site/categories/category/name[description/text/bold]
	pt := MustParse("/site/categories/category/name[description/text/bold]")
	name := pt.Root.Children[0].Children[0].Children[0]
	if name.Tag != "name" || !name.Returning {
		t.Fatalf("name = %+v", name)
	}
	d := name.Children[0]
	if d.Tag != "description" || d.Children[0].Tag != "text" || d.Children[0].Children[0].Tag != "bold" {
		t.Fatal("nested predicate path wrong")
	}
}

func TestParseDescendantAxis(t *testing.T) {
	pt := MustParse("//parlist//parlist")
	if pt.Root.Axis != AxisDescendant || pt.Root.Tag != "parlist" {
		t.Fatalf("root = %+v", pt.Root)
	}
	c := pt.Root.Children[0]
	if c.Axis != AxisDescendant || c.Tag != "parlist" || !c.Returning {
		t.Fatalf("child = %+v", c)
	}
}

func TestParseValuePredicateAndWildcard(t *testing.T) {
	pt := MustParse(`/site/*[name='socks']`)
	star := pt.Root.Children[0]
	if star.Tag != "*" || !star.Returning {
		t.Fatalf("star = %+v", star)
	}
	if star.Children[0].Tag != "name" || star.Children[0].Value != "socks" {
		t.Fatalf("value predicate = %+v", star.Children[0])
	}
}

func TestParseDescendantInsidePredicate(t *testing.T) {
	pt := MustParse(`/a[//b]/c`)
	if pt.Root.Children[0].Tag != "b" || pt.Root.Children[0].Axis != AxisDescendant {
		t.Fatalf("predicate = %+v", pt.Root.Children[0])
	}
	if pt.Root.Children[1].Tag != "c" || !pt.Root.Children[1].Returning {
		t.Fatal("main path continuation wrong")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "site", "/", "//", "/site[", "/site[name", "/site]x",
		"/site/item[name=socks]", "/site/item[name='socks]", "/si te/x$",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestPatternTreeValidation(t *testing.T) {
	a := &PatternNode{Tag: "a", Returning: true}
	b := &PatternNode{Tag: "b", Returning: true}
	a.Children = []*PatternNode{b}
	if _, err := NewPatternTree(a); err == nil {
		t.Fatal("two returning nodes should fail")
	}
	if _, err := NewPatternTree(nil); err == nil {
		t.Fatal("nil root should fail")
	}
	if _, err := NewPatternTree(&PatternNode{}); err == nil {
		t.Fatal("empty tag should fail")
	}
}

func TestDecompose(t *testing.T) {
	pt := MustParse("/a/b[c]//d[e]//f")
	subs := pt.Decompose()
	if len(subs) != 3 {
		t.Fatalf("got %d subtrees", len(subs))
	}
	if subs[0].Root.Tag != "a" || subs[0].Parent != -1 {
		t.Fatalf("top = %+v", subs[0])
	}
	if subs[1].Root.Tag != "d" || subs[1].Link.Tag != "b" || subs[1].Parent != 0 {
		t.Fatalf("sub1 = root %s link %s parent %d", subs[1].Root.Tag, subs[1].Link.Tag, subs[1].Parent)
	}
	if subs[2].Root.Tag != "f" || subs[2].Link.Tag != "d" || subs[2].Parent != 1 {
		t.Fatalf("sub2 = root %s link %s parent %d", subs[2].Root.Tag, subs[2].Link.Tag, subs[2].Parent)
	}
}

// --- Evaluation ---

// env bundles a document with its stores for evaluation tests.
type env struct {
	doc  *xmltree.Document
	m    *acl.Matrix
	ss   *dol.SecureStore
	ev   *Evaluator
	pool *storage.BufferPool
}

func newEnv(t testing.TB, doc *xmltree.Document, m *acl.Matrix, pageSize int) *env {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemPager(pageSize), 1024)
	ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{StoreValues: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := btree.BuildFromDocument(pool, doc)
	if err != nil {
		t.Fatal(err)
	}
	return &env{doc: doc, m: m, ss: ss, ev: NewEvaluator(ss.Store(), idx), pool: pool}
}

// oracleAnswers enumerates all pattern embeddings by brute force and
// returns the distinct returning-node bindings.
//
// mode: 0 = non-secure, 1 = bindings semantics, 2 = pruned-subtree.
func oracleAnswers(doc *xmltree.Document, m *acl.Matrix, eff *bitset.Bitset, pt *PatternTree, mode int) map[xmltree.NodeID]bool {
	ret := pt.ReturningNode()
	validNode := func(n xmltree.NodeID) bool {
		switch mode {
		case 0:
			return true
		case 1:
			return m.AccessibleAny(n, eff)
		default:
			for v := n; v != xmltree.InvalidNode; v = doc.Parent(v) {
				if !m.AccessibleAny(v, eff) {
					return false
				}
			}
			return true
		}
	}
	matchesTag := func(p *PatternNode, n xmltree.NodeID) bool {
		if p.Tag != "*" && doc.Tag(n) != p.Tag {
			return false
		}
		if p.Value != "" && doc.Value(n) != p.Value {
			return false
		}
		return true
	}
	// eo returns whether p's pattern subtree embeds at u and, when the
	// subtree contains ret, the achievable ret bindings.
	containsRet := map[*PatternNode]bool{}
	var mark func(p *PatternNode) bool
	mark = func(p *PatternNode) bool {
		v := p == ret
		for _, c := range p.Children {
			if mark(c) {
				v = true
			}
		}
		containsRet[p] = v
		return v
	}
	mark(pt.Root)

	var eo func(p *PatternNode, u xmltree.NodeID) (bool, map[xmltree.NodeID]bool)
	eo = func(p *PatternNode, u xmltree.NodeID) (bool, map[xmltree.NodeID]bool) {
		if !matchesTag(p, u) || !validNode(u) {
			return false, nil
		}
		rets := map[xmltree.NodeID]bool{}
		if p == ret {
			rets[u] = true
		}
		for _, c := range p.Children {
			var vs []xmltree.NodeID
			if c.Axis == AxisChild {
				vs = doc.Children(u)
			} else {
				for v := u + 1; v <= doc.End(u); v++ {
					vs = append(vs, v)
				}
			}
			okAny := false
			sub := map[xmltree.NodeID]bool{}
			for _, v := range vs {
				ok, r := eo(c, v)
				if ok {
					okAny = true
					for k := range r {
						sub[k] = true
					}
				}
			}
			if !okAny {
				return false, nil
			}
			if containsRet[c] {
				rets = sub
			}
		}
		return true, rets
	}

	answers := map[xmltree.NodeID]bool{}
	var roots []xmltree.NodeID
	if pt.Root.Axis == AxisChild {
		roots = []xmltree.NodeID{0}
	} else {
		for n := 0; n < doc.Len(); n++ {
			roots = append(roots, xmltree.NodeID(n))
		}
	}
	for _, r := range roots {
		ok, rets := eo(pt.Root, r)
		if ok {
			for k := range rets {
				answers[k] = true
			}
		}
	}
	return answers
}

func checkAnswers(t *testing.T, got *Result, want map[xmltree.NodeID]bool, label string) {
	t.Helper()
	if len(got.Nodes) != len(want) {
		t.Fatalf("%s: got %v, want %v", label, got.Nodes, keys(want))
	}
	for _, n := range got.Nodes {
		if !want[n] {
			t.Fatalf("%s: unexpected answer %d (want %v)", label, n, keys(want))
		}
	}
}

func keys(m map[xmltree.NodeID]bool) []xmltree.NodeID {
	var out []xmltree.NodeID
	for k := range m {
		out = append(out, k)
	}
	return out
}

func miniXMark(t testing.TB) *xmltree.Document {
	t.Helper()
	return xmltree.MustParseString(`<site>
	  <regions>
	    <africa>
	      <item><location>Ghana</location><name>mask</name><quantity>2</quantity></item>
	      <item><location>Kenya</location><name>drum</name></item>
	      <item><location>Mali</location><name>cloth</name><quantity>1</quantity></item>
	    </africa>
	  </regions>
	  <categories>
	    <category><name>art</name><description><text><bold>bold art</bold></text></description></category>
	    <category><name>music</name><description><text>plain</text></description></category>
	  </categories>
	  <parlist><listitem><parlist><listitem><keyword>deep</keyword></listitem></parlist></listitem></parlist>
	</site>`)
}

func allowAll(doc *xmltree.Document, subjects int) *acl.Matrix {
	m := acl.NewMatrix(doc.Len(), subjects)
	for n := 0; n < doc.Len(); n++ {
		for s := 0; s < subjects; s++ {
			m.Set(xmltree.NodeID(n), acl.SubjectID(s), true)
		}
	}
	return m
}

func TestEvaluateNonSecureBasics(t *testing.T) {
	doc := miniXMark(t)
	e := newEnv(t, doc, allowAll(doc, 1), 4096)
	cases := []struct {
		expr string
		want int
	}{
		{"/site/regions/africa/item[location][name][quantity]", 2},
		{"/site/categories/category[name]/description/text/bold", 1},
		{"/site/categories/category/name[description/text/bold]", 0}, // name has no description child
		{"//parlist//parlist", 1},
		{"//listitem//keyword", 1},
		{"//item", 3},
		{"/site/*", 3},
		{"/nosuch", 0},
		{"//nosuchtag", 0},
	}
	for _, tc := range cases {
		res, err := e.ev.EvaluateCtx(context.Background(), MustParse(tc.expr), Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		if len(res.Nodes) != tc.want {
			t.Errorf("%s: got %d answers (%v), want %d", tc.expr, len(res.Nodes), res.Nodes, tc.want)
		}
		// Cross-check against the oracle.
		want := oracleAnswers(doc, e.m, nil, MustParse(tc.expr), 0)
		checkAnswers(t, res, want, tc.expr)
	}
}

func TestEvaluateValuePredicate(t *testing.T) {
	doc := miniXMark(t)
	e := newEnv(t, doc, allowAll(doc, 1), 4096)
	res, err := e.ev.EvaluateCtx(context.Background(), MustParse(`//item[location='Kenya']`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 1 {
		t.Fatalf("answers = %v", res.Nodes)
	}
	if doc.Value(res.Nodes[0]+1) != "Kenya" {
		t.Fatal("wrong item matched")
	}
}

func TestEvaluateSecureBindings(t *testing.T) {
	doc := miniXMark(t)
	m := allowAll(doc, 2)
	// Deny subject 1 the second africa item subtree.
	items := doc.NodesWithTag("item")
	for n := items[1]; n <= doc.End(items[1]); n++ {
		m.Set(n, 1, false)
	}
	e := newEnv(t, doc, m, 4096)
	q := MustParse("//item[name]")

	res0, err := e.ev.EvaluateCtx(context.Background(), q, Options{View: e.ss.ViewSubject(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res0.Nodes) != 3 {
		t.Fatalf("subject 0 answers = %v", res0.Nodes)
	}
	res1, err := e.ev.EvaluateCtx(context.Background(), q, Options{View: e.ss.ViewSubject(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Nodes) != 2 {
		t.Fatalf("subject 1 answers = %v", res1.Nodes)
	}
}

func TestEvaluateJoinSemanticsPruned(t *testing.T) {
	// //a//c with an inaccessible b between: the bindings semantics keeps
	// the pair, the pruned semantics drops it.
	doc := xmltree.MustParseString(`<a><b><c/></b><c/></a>`)
	m := allowAll(doc, 1)
	m.Set(1, 0, false) // b
	e := newEnv(t, doc, m, 4096)
	q := MustParse("//a//c")
	view := e.ss.ViewSubject(0)

	cho, _ := e.ev.EvaluateCtx(context.Background(), q, Options{View: view, Semantics: SemanticsBindings})
	if len(cho.Nodes) != 2 {
		t.Fatalf("bindings semantics = %v", cho.Nodes)
	}
	gb, _ := e.ev.EvaluateCtx(context.Background(), q, Options{View: view, Semantics: SemanticsPrunedSubtree})
	if len(gb.Nodes) != 1 || doc.Tag(gb.Nodes[0]) != "c" || gb.Nodes[0] != 3 {
		t.Fatalf("pruned semantics = %v", gb.Nodes)
	}
}

func sameAnswers(res *Result, want map[xmltree.NodeID]bool) bool {
	if len(res.Nodes) != len(want) {
		return false
	}
	for _, n := range res.Nodes {
		if !want[n] {
			return false
		}
	}
	return true
}

// snapshot bundles the env's store with its tag index, a value index and an
// empty plan memo — what the facade hands NewEvaluatorAt.
func (e *env) snapshot(t testing.TB) Snapshot {
	t.Helper()
	vt, err := btree.BuildValueIndex(e.pool, e.doc)
	if err != nil {
		t.Fatal(err)
	}
	return Snapshot{Store: e.ss.Store(), Index: e.ev.index, Values: vt, Masks: NewMaskCache(nil, nil), Seq: 1}
}

// BenchmarkEvaluateTwig evaluates each Table 1 twig, the harness's other
// two shapes and two with a descendant step in a predicate (Qitemkw,
// Qparlist) on the benchmark's document under the harness's ACL burst,
// sequentially, through an evaluator built as the facade builds it: a
// snapshot with a value index and a plan memo, which the first evaluation
// fills. Two views: "open", a subject the burst left everything, and
// "burst", a group that lost its share of the burst's subtrees. The matcher
// arm's tag index is a *btree.Tree, so every shape runs on the ε-NoK matcher
// and its joins; the served arm's is the flat runs grouped by path class a
// served snapshot keeps, so every shape but the last two runs as an index
// plan; those two run on the matcher in both arms. The cold runs
// start every evaluation on an empty memo, so their distance to the warm ones
// is what a memo miss costs. gets/op counts buffer-pool Gets per query. Run
// with -benchmem for the allocations per query.
func BenchmarkEvaluateTwig(b *testing.B) {
	e := burstEnv(b)
	// The harness's other two shapes: Q5 under a Limit, and a value
	// predicate that one person satisfies.
	email := ""
	for c := e.doc.FirstChild(e.doc.NodesWithTag("person")[0]); c != xmltree.InvalidNode; c = e.doc.NextSibling(c) {
		if e.doc.Tag(c) == "emailaddress" {
			email = e.doc.Value(c)
		}
	}
	type twig struct {
		name, xpath string
		limit       int
	}
	twigs := []twig{{"Q5lim", "//listitem//keyword", 10}, {"Qval", fmt.Sprintf("/site/people/person[emailaddress='%s']/name", email), 0}}
	for _, q := range table1 {
		twigs = append(twigs, twig{q.name, q.xpath, 0})
	}
	twigs = append(twigs, twig{"Qitemkw", "//item[//keyword]", 0}, twig{"Qparlist", "//parlist[//listitem]//keyword", 0})
	run := func(b *testing.B, sn Snapshot, view Options, cold bool) {
		for _, q := range twigs {
			pt := MustParse(q.xpath)
			opts := view
			opts.Limit = q.limit
			b.Run(q.name, func(b *testing.B) {
				b.ReportAllocs()
				sn := sn
				gets := e.pool.Stats().Gets
				for i := 0; i < b.N; i++ {
					if cold {
						sn.Masks = NewMaskCache(nil, nil)
					}
					if _, err := NewEvaluatorAt(sn).EvaluateCtx(context.Background(), pt, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(e.pool.Stats().Gets-gets)/float64(b.N), "gets/op")
			})
		}
	}
	for _, view := range []struct {
		name string
		opts Options
	}{{"open", Options{View: e.ss.ViewSubject(burstGroups)}}, {"burst", Options{View: e.ss.ViewSubject(0)}}} {
		b.Run(view.name, func(b *testing.B) {
			for _, arm := range []struct {
				name string
				sn   Snapshot
			}{{"matcher", e.snapshot(b)}, {"served", e.servedSnapshot(b)}} {
				b.Run(arm.name, func(b *testing.B) {
					run(b, arm.sn, view.opts, false)
					b.Run("cold", func(b *testing.B) { run(b, arm.sn, view.opts, true) })
				})
			}
		})
	}
}

// The harnesses' answer step held to its spec: matchDocument, on random
// documents and every kind of twig Twig draws, finds exactly the returning
// bindings of the brute-force enumeration oracleAnswers — unsecured, and
// binding only the nodes a subject may access or may access along with
// every ancestor.
func TestMatchDocumentMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := xmlmodel.Doc(rng, 2+rng.Intn(100), xmlmodel.Shape(seed%2))
		c := drawCase(rng, doc, xmlmodel.Twig(rng, doc), true)
		eff, md := bitset.FromIndices(2, 0), xmlmodel.New(c.doc, c.m)
		for mode, bindable := range [][]bool{nil, md.Bindable(0, false), md.Bindable(0, true)} {
			var admit func(xmltree.NodeID) bool
			if bindable != nil {
				admit = func(n xmltree.NodeID) bool { return bindable[n] }
			}
			got := matchDocument(c.doc, c.parse(), admit)
			if want := oracleAnswers(c.doc, c.m, eff, c.parse(), mode); len(got) != len(want) || !sameAnswers(&Result{Nodes: got}, want) {
				t.Fatalf("seed %d %s mode %d: %v, the brute force %v", seed, c.parse(), mode, got, keys(want))
			}
		}
	}
}

// The value index must not change results, only shrink candidate lists.
func TestValueIndexConsistency(t *testing.T) {
	doc := miniXMark(t)
	e := newEnv(t, doc, allowAll(doc, 1), 4096)
	vt, err := btree.BuildValueIndex(e.pool, doc)
	if err != nil {
		t.Fatal(err)
	}
	evWith := NewEvaluator(e.ss.Store(), nil).WithValueIndex(vt)
	// Pattern whose ROOT carries the value constraint so the value index
	// supplies the candidates; the tag index is deliberately nil to prove
	// it is not consulted.
	root := &PatternNode{Tag: "location", Value: "Kenya", Axis: AxisDescendant, Returning: true}
	pt, err := NewPatternTree(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := evWith.EvaluateCtx(context.Background(), pt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.ev.EvaluateCtx(context.Background(), pt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != 1 || len(want.Nodes) != 1 || got.Nodes[0] != want.Nodes[0] {
		t.Fatalf("value-indexed answers %v, tag-indexed %v", got.Nodes, want.Nodes)
	}
}
