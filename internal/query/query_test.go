package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/storage"
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

// The compiled tuple layout of Table 1 (and three twigs with interior link
// sources) is what the per-tuple slot helpers it replaced derived; the
// expected values were read off those helpers before they were deleted.
func TestTupleLayout(t *testing.T) {
	for _, tc := range []struct {
		name, xpath string
		slots       [][]string // tag#id per slot, per subtree
		base        []int
		width       int
		retSlot     int
		linkSlot    []int
	}{
		{"Q1", "/site/regions/africa/item[location][name][quantity]",
			[][]string{{"site#0", "item#3"}}, []int{0}, 2, 1, []int{0}},
		{"Q2", "/site/categories/category[name]/description/text/bold",
			[][]string{{"site#0", "bold#6"}}, []int{0}, 2, 1, []int{0}},
		{"Q3", "/site/categories/category/description/text/bold",
			[][]string{{"site#0", "bold#5"}}, []int{0}, 2, 1, []int{0}},
		{"Q4", "//parlist//parlist",
			[][]string{{"parlist#0"}, {"parlist#1"}}, []int{0, 1}, 2, 1, []int{0, 0}},
		{"Q5", "//listitem//keyword",
			[][]string{{"listitem#0"}, {"keyword#1"}}, []int{0, 1}, 2, 1, []int{0, 0}},
		{"Q6", "//item//emph",
			[][]string{{"item#0"}, {"emph#1"}}, []int{0, 1}, 2, 1, []int{0, 0}},
		{"shared link", "/site/regions[//item/name]//parlist/listitem",
			[][]string{{"site#0", "regions#1"}, {"item#2"}, {"parlist#4", "listitem#5"}}, []int{0, 2, 3}, 5, 4, []int{0, 1, 1}},
		{"link is returning", "//a/b[//c/d]/e[//f]",
			[][]string{{"a#0", "b#1", "e#4"}, {"c#2"}, {"f#5"}}, []int{0, 3, 4}, 5, 2, []int{0, 1, 2}},
		{"chain", "/a/b[c]//d[e]//f",
			[][]string{{"a#0", "b#1"}, {"d#3"}, {"f#5"}}, []int{0, 2, 3}, 4, 3, []int{0, 1, 2}},
	} {
		pt := MustParse(tc.xpath)
		l := layoutOf(pt, pt.Decompose())
		slots := make([][]string, len(l.slots))
		tracked := 0
		for i, ns := range l.slots {
			for _, n := range ns {
				slots[i] = append(slots[i], fmt.Sprintf("%s#%d", n.Tag, n.id))
				if l.slotOf[n.id] != tracked {
					t.Errorf("%s: slot node %s#%d has slot %d, want %d", tc.name, n.Tag, n.id, l.slotOf[n.id], tracked)
				}
				tracked++
			}
		}
		for _, s := range l.slotOf {
			if s < 0 {
				tracked++
			}
		}
		if !reflect.DeepEqual(slots, tc.slots) || !reflect.DeepEqual(l.base, tc.base) ||
			l.width != tc.width || l.retSlot != tc.retSlot || !reflect.DeepEqual(l.linkSlot, tc.linkSlot) ||
			tracked != pt.Len() {
			t.Errorf("%s: layout slots %v base %v width %d ret %d link %v slotOf %v,\nwant slots %v base %v width %d ret %d link %v",
				tc.name, slots, l.base, l.width, l.retSlot, l.linkSlot, l.slotOf,
				tc.slots, tc.base, tc.width, tc.retSlot, tc.linkSlot)
		}
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
		res, err := e.ev.Evaluate(MustParse(tc.expr), Options{})
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
	res, err := e.ev.Evaluate(MustParse(`//item[location='Kenya']`), Options{})
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

	res0, err := e.ev.Evaluate(q, Options{View: e.ss.ViewSubject(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res0.Nodes) != 3 {
		t.Fatalf("subject 0 answers = %v", res0.Nodes)
	}
	res1, err := e.ev.Evaluate(q, Options{View: e.ss.ViewSubject(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Nodes) != 2 {
		t.Fatalf("subject 1 answers = %v", res1.Nodes)
	}
}

func TestEvaluateSemanticsDiffer(t *testing.T) {
	// Paper §4.2 example: an accessible node under an inaccessible one is
	// an answer under Cho semantics but not under Gabillon–Bruno.
	doc := xmltree.MustParseString(`<a><e><h><k/></h></e></a>`)
	m := allowAll(doc, 1)
	m.Set(1, 0, false) // e inaccessible
	e := newEnv(t, doc, m, 4096)
	q := MustParse("//k")
	view := e.ss.ViewSubject(0)

	cho, err := e.ev.Evaluate(q, Options{View: view, Semantics: SemanticsBindings})
	if err != nil {
		t.Fatal(err)
	}
	if len(cho.Nodes) != 1 {
		t.Fatalf("bindings semantics answers = %v", cho.Nodes)
	}
	gb, err := e.ev.Evaluate(q, Options{View: view, Semantics: SemanticsPrunedSubtree})
	if err != nil {
		t.Fatal(err)
	}
	if len(gb.Nodes) != 0 {
		t.Fatalf("pruned-subtree semantics answers = %v", gb.Nodes)
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

	cho, _ := e.ev.Evaluate(q, Options{View: view, Semantics: SemanticsBindings})
	if len(cho.Nodes) != 2 {
		t.Fatalf("bindings semantics = %v", cho.Nodes)
	}
	gb, _ := e.ev.Evaluate(q, Options{View: view, Semantics: SemanticsPrunedSubtree})
	if len(gb.Nodes) != 1 || doc.Tag(gb.Nodes[0]) != "c" || gb.Nodes[0] != 3 {
		t.Fatalf("pruned semantics = %v", gb.Nodes)
	}
}

func randomDoc(rng *rand.Rand, n int) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Begin("r")
	open := 1
	for i := 1; i < n; i++ {
		for open > 1 && rng.Intn(3) == 0 {
			b.End()
			open--
		}
		b.Begin([]string{"x", "y", "z", "w"}[rng.Intn(4)])
		open++
	}
	for ; open > 0; open-- {
		b.End()
	}
	return b.MustFinish()
}

// randomPattern builds a small random pattern tree.
func randomPattern(rng *rand.Rand) *PatternTree {
	tags := []string{"x", "y", "z", "w", "r", "*"}
	var build func(depth int, axis Axis) *PatternNode
	var all []*PatternNode
	build = func(depth int, axis Axis) *PatternNode {
		p := &PatternNode{Tag: tags[rng.Intn(len(tags))], Axis: axis}
		all = append(all, p)
		if depth < 3 {
			for k := 0; k < rng.Intn(3); k++ {
				p.Children = append(p.Children, build(depth+1, Axis(rng.Intn(2))))
			}
		}
		return p
	}
	root := build(0, Axis(rng.Intn(2)))
	all[rng.Intn(len(all))].Returning = true
	pt, err := NewPatternTree(root)
	if err != nil {
		panic(err)
	}
	return pt
}

// Property: the evaluator agrees with the brute-force oracle in all three
// modes, across page sizes, random documents, patterns and ACLs.
func TestEvaluateMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 2+rng.Intn(80))
		numSubjects := 1 + rng.Intn(2)
		m := acl.NewMatrix(doc.Len(), numSubjects)
		for n := 0; n < doc.Len(); n++ {
			for s := 0; s < numSubjects; s++ {
				if rng.Intn(4) > 0 {
					m.Set(xmltree.NodeID(n), acl.SubjectID(s), true)
				}
			}
		}
		pageSize := 64 + rng.Intn(200)
		pool := storage.NewBufferPool(storage.NewMemPager(pageSize), 1024)
		ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{})
		if err != nil {
			return false
		}
		idx, err := btree.BuildFromDocument(pool, doc)
		if err != nil {
			return false
		}
		ev := NewEvaluator(ss.Store(), idx)
		pt := randomPattern(rng)
		subj := acl.SubjectID(rng.Intn(numSubjects))
		eff := bitset.FromIndices(numSubjects, int(subj))

		// Non-secure.
		res, err := ev.Evaluate(pt, Options{})
		if err != nil {
			return false
		}
		if !sameAnswers(res, oracleAnswers(doc, m, nil, pt, 0)) {
			return false
		}
		// Secure, bindings semantics.
		res, err = ev.Evaluate(pt, Options{View: ss.ViewSubject(subj)})
		if err != nil {
			return false
		}
		if !sameAnswers(res, oracleAnswers(doc, m, eff, pt, 1)) {
			return false
		}
		// Secure, bindings semantics, page skip disabled (ablation must
		// not change results).
		res2, err := ev.Evaluate(pt, Options{View: ss.ViewSubject(subj), DisablePageSkip: true})
		if err != nil {
			return false
		}
		if !sameAnswers(res2, oracleAnswers(doc, m, eff, pt, 1)) {
			return false
		}
		// Secure, pruned-subtree semantics.
		res, err = ev.Evaluate(pt, Options{View: ss.ViewSubject(subj), Semantics: SemanticsPrunedSubtree})
		if err != nil {
			return false
		}
		return sameAnswers(res, oracleAnswers(doc, m, eff, pt, 2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
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

// BenchmarkEvaluateTwig evaluates each Table 1 twig and the harness's other
// two shapes on the benchmark's document, sequentially, as one subject,
// through an evaluator built as the facade builds it: a snapshot with a
// value index and a plan memo, which the first evaluation fills. The cold
// runs start every evaluation on an empty memo, so their distance to the
// warm ones is what a memo miss costs. Run with -benchmem for the
// allocations per query.
func BenchmarkEvaluateTwig(b *testing.B) {
	e := xmarkEnv(b)
	sn := e.snapshot(b)
	opts := Options{View: e.ss.ViewSubject(0)}
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
	run := func(b *testing.B, cold bool) {
		for _, q := range twigs {
			pt := MustParse(q.xpath)
			opts := opts
			opts.Limit = q.limit
			b.Run(q.name, func(b *testing.B) {
				b.ReportAllocs()
				sn := sn
				for i := 0; i < b.N; i++ {
					if cold {
						sn.Masks = NewMaskCache(nil, nil)
					}
					if res, err := NewEvaluatorAt(sn).Evaluate(pt, opts); err != nil || len(res.Nodes) == 0 {
						b.Fatal(len(res.Nodes), err)
					}
				}
			})
		}
	}
	run(b, false)
	b.Run("cold", func(b *testing.B) { run(b, true) })
}

// Property: MatchDocument agrees with the brute-force oracle (non-secure).
func TestMatchDocumentMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 2+rng.Intn(100))
		pt := randomPattern(rng)
		got := MatchDocument(doc, pt)
		want := oracleAnswers(doc, acl.NewMatrix(doc.Len(), 1), nil, pt, 0)
		if len(got) != len(want) {
			return false
		}
		for _, n := range got {
			if !want[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
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
	got, err := evWith.Evaluate(pt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.ev.Evaluate(pt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != 1 || len(want.Nodes) != 1 || got.Nodes[0] != want.Nodes[0] {
		t.Fatalf("value-indexed answers %v, tag-indexed %v", got.Nodes, want.Nodes)
	}
}

// Property: evaluation with a value index equals evaluation without, for
// random value-constrained patterns.
func TestValueIndexProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := xmltree.NewBuilder()
		b.Begin("r")
		for i := 0; i < 2+rng.Intn(60); i++ {
			b.Begin([]string{"x", "y"}[rng.Intn(2)])
			if rng.Intn(2) == 0 {
				b.Text([]string{"v1", "v2", "v3"}[rng.Intn(3)])
			}
			if rng.Intn(3) == 0 {
				b.Element([]string{"x", "y"}[rng.Intn(2)], [4]string{"", "v1", "v2", "v3"}[rng.Intn(4)])
			}
			b.End()
		}
		b.End()
		doc := b.MustFinish()
		e := newEnv(t, doc, allowAll(doc, 1), 128)
		vt, err := btree.BuildValueIndex(e.pool, doc)
		if err != nil {
			return false
		}
		evWith := NewEvaluator(e.ss.Store(), nil).WithValueIndex(vt)
		root := &PatternNode{
			Tag:       []string{"x", "y"}[rng.Intn(2)],
			Value:     []string{"v1", "v2", "v3"}[rng.Intn(3)],
			Axis:      AxisDescendant,
			Returning: true,
		}
		pt, err := NewPatternTree(root)
		if err != nil {
			return false
		}
		got, err := evWith.Evaluate(pt, Options{})
		if err != nil {
			return false
		}
		want, err := e.ev.Evaluate(pt, Options{})
		if err != nil {
			return false
		}
		if len(got.Nodes) != len(want.Nodes) {
			return false
		}
		for i := range want.Nodes {
			if got.Nodes[i] != want.Nodes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
