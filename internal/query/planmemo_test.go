package query

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/obs"
	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// prunedTwigs are the shapes the index prunings act on: one to three
// descendant joins, links that are subtree roots and links that are not,
// anchored and floating tops, value predicates one and two steps below the
// node they hang off. The letters are replaced by random tags, so siblings
// collide and the joins nest on themselves (//a//a), and each V by one of the
// literals.
var prunedTwigs = []string{
	`//A//B`,
	`//A/B//C`,
	`//A[B//C]/D`,
	`//A//B//C`,
	`//A[//B]//C`,
	`//A[B//X][C//Y]/D`,
	`//A//B//C//A`,
	`//A[B//X]//Y//B`,
	`/r/A//B`,
	`/r//A[B]//C/A`,
	`//A[B]/C`,
	`//A[B='V']/C`,
	`//A[B/C='V']//D`,
	`/r/A[B='V'][C='V']`,
	`//A[B='V']//C[A='V']`,
}

// literals are the values a predicate may ask for: two the generator hands
// out many times, one no node carries, and secretLiteral, which each
// document gives to exactly one node — one the first subject may not read.
var literals = []string{"v1", "v2", "absent", secretLiteral}

const secretLiteral = "secret"

// chainDoc returns a random document of about n nodes over tags a–c under a
// root r that is bushy in places and deep in others: a node has one child
// (continuing a chain, half the time under its own tag, so same-tag chains
// nest) about as often as it has several. Half of the nodes carry one of two
// literals.
func chainDoc(rng *rand.Rand, n int) *xmltree.Document {
	b := xmltree.NewBuilder()
	left := n
	var emit func(tag string, depth int)
	emit = func(tag string, depth int) {
		b.Begin(tag)
		left--
		if rng.Intn(2) == 0 {
			b.Text(literals[rng.Intn(2)])
		}
		kids := 0
		switch r := rng.Intn(10); {
		case depth == 0:
			kids = 3 + rng.Intn(3)
		case depth > 40 || r < 2:
		case r < 6:
			kids = 1
		default:
			kids = 2 + rng.Intn(4)
		}
		for ; kids > 0 && left > 0; kids-- {
			next := string(rune('a' + rng.Intn(3)))
			if rng.Intn(2) == 0 && depth > 0 {
				next = tag
			}
			emit(next, depth+1)
		}
		b.End()
	}
	emit("r", 0)
	return b.MustFinish()
}

// withValue returns doc with node n's value replaced.
func withValue(doc *xmltree.Document, n xmltree.NodeID, v string) *xmltree.Document {
	b := xmltree.NewBuilder()
	var walk func(u xmltree.NodeID)
	walk = func(u xmltree.NodeID) {
		b.Begin(doc.Tag(u))
		if u == n {
			b.Text(v)
		} else {
			b.Text(doc.Value(u))
		}
		for _, c := range doc.Children(u) {
			walk(c)
		}
		b.End()
	}
	walk(doc.Root())
	return b.MustFinish()
}

// chainACL denies each of two subjects a scattering of single nodes and a
// few whole subtrees — deep denied chains beside shallow denied siblings —
// and never the root.
func chainACL(rng *rand.Rand, doc *xmltree.Document) *acl.Matrix {
	m := allowAll(doc, 2)
	for s := acl.SubjectID(0); s < 2; s++ {
		for n := 1; n < doc.Len(); n++ {
			if rng.Intn(8) == 0 {
				m.Set(xmltree.NodeID(n), s, false)
			}
		}
		for k := 0; k < 3; k++ {
			top := xmltree.NodeID(1 + rng.Intn(doc.Len()-1))
			for n := top; n <= doc.End(top); n++ {
				m.Set(n, s, false)
			}
		}
	}
	return m
}

// streamBelowDedup opens the query and drains the tuple stream under dedup
// (and limit) whole; nil for a query proven empty.
func streamBelowDedup(t *testing.T, ev *Evaluator, pt *PatternTree, opts Options) []Tuple {
	t.Helper()
	ctx := context.Background()
	a, err := ev.Open(ctx, pt, opts)
	if err != nil {
		t.Fatal(err)
	}
	in := a.p
	if lc, ok := in.(*limitCursor); ok {
		in = lc.in
	}
	var out []Tuple
	if dc, ok := in.(*dedupCursor); ok {
		for {
			tp, err := dc.in.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if tp == nil {
				break
			}
			out = append(out, tp)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// The memoized, index-pruned plan against the naive model: on random bushy,
// deep and recursive documents at pages of a few dozen nodes, for twigs
// with one to three joins and value predicates on root and non-root nodes
// (literals that occur often, never, and once on a node the subject may not
// read), an evaluator with a plan memo and a value index returns exactly
// MatchDocument ∩ accessible — under no view, both semantics and two
// subjects that share the memo and every limit, on the
// memo's miss and on its hits — and hands dedup the very tuple stream an
// evaluator with neither memo nor value index does.
func TestIndexPrunedPlanOracle(t *testing.T) {
	ctx := context.Background()
	cases, answers, joinRejects, valueTests := 0, 0, 0, 0
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := chainDoc(rng, 120+rng.Intn(200))
		m := chainACL(rng, doc)
		var denied []xmltree.NodeID
		for n := 1; n < doc.Len(); n++ {
			if !m.Accessible(xmltree.NodeID(n), 0) {
				denied = append(denied, xmltree.NodeID(n))
			}
		}
		doc = withValue(doc, denied[rng.Intn(len(denied))], secretLiteral)

		pool := storage.NewBufferPool(storage.NewMemPager(64+rng.Intn(200)), 1024)
		ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{StoreValues: true})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := btree.BuildFromDocument(pool, doc)
		if err != nil {
			t.Fatal(err)
		}
		vt, err := btree.BuildValueIndex(pool, doc)
		if err != nil {
			t.Fatal(err)
		}
		var hits, misses obs.Counter
		memo := NewEvaluatorAt(Snapshot{Store: ss.Store(), Index: idx, Values: vt, Masks: NewMaskCache(&hits, &misses), Seq: 7})
		plain := NewEvaluator(ss.Store(), idx)

		xpath := strings.Map(func(r rune) rune {
			if r >= 'A' && r <= 'Z' && r != 'V' {
				return rune('a' + rng.Intn(3))
			}
			return r
		}, prunedTwigs[rng.Intn(len(prunedTwigs))])
		for strings.Contains(xpath, "V") {
			// Mostly a literal that occurs.
			xpath = strings.Replace(xpath, "V", literals[rng.Intn(6)%len(literals)], 1)
		}
		// parse hands every evaluation its own tree, as the facade does,
		// with the same value predicates on up to two nodes.
		valued := map[int]string{}
		for k := rng.Intn(3); k > 0; k-- {
			valued[rng.Intn(MustParse(xpath).Len())] = literals[rng.Intn(len(literals))]
		}
		parse := func() *PatternTree {
			pt := MustParse(xpath)
			for id, v := range valued {
				pt.nodes[id].Value = v
			}
			return pt
		}
		pt := parse()
		for _, p := range pt.nodes {
			if p.Value != "" {
				valueTests++
			}
		}

		hiddenFor := func(s acl.SubjectID, pruned bool) *xmltree.Document {
			return hideNodes(doc, func(n xmltree.NodeID) bool {
				for ; n != xmltree.InvalidNode; n = doc.Parent(n) {
					if !m.Accessible(n, s) {
						return true
					}
					if !pruned {
						break
					}
				}
				return false
			})
		}
		sems := []struct {
			opts Options
			doc  *xmltree.Document
		}{
			{Options{}, doc},
			{Options{View: ss.ViewSubject(0)}, hiddenFor(0, false)},
			{Options{View: ss.ViewSubject(0), Semantics: SemanticsPrunedSubtree}, hiddenFor(0, true)},
			{Options{View: ss.ViewSubject(1)}, hiddenFor(1, false)},
			{Options{View: ss.ViewSubject(1), Semantics: SemanticsPrunedSubtree}, hiddenFor(1, true)},
		}
		// Which options meet the empty memo varies with the seed.
		sems = append(sems[seed%5:], sems[:seed%5]...)
		for _, sem := range sems {
			what := fmt.Sprintf("seed %d %s (view %v, semantics %d)", seed, pt, sem.opts.View != nil, sem.opts.Semantics)
			want := map[xmltree.NodeID]bool{}
			for _, n := range MatchDocument(sem.doc, pt) {
				want[n] = true
			}
			wantStream := streamBelowDedup(t, plain, parse(), sem.opts)
			cases++
			answers += len(want)
			for _, limit := range []int{0, 1, 10} {
				opts := sem.opts
				opts.Limit = limit
				got := streamBelowDedup(t, memo, parse(), opts)
				if len(got) != len(wantStream) {
					t.Fatalf("%s limit=%d: %d tuples, the memo-less evaluator hands over %d", what, limit, len(got), len(wantStream))
				}
				for k := range got {
					if !slices.Equal(got[k], wantStream[k]) {
						t.Fatalf("%s limit=%d: tuple %d is %s, the memo-less evaluator's %s", what, limit, k, tupleKey(got[k]), tupleKey(wantStream[k]))
					}
				}
				res, err := memo.EvaluateCtx(ctx, parse(), opts)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				joinRejects += int(res.Skips.JoinCandidates)
				wantLen := len(want)
				if limit > 0 {
					wantLen = min(limit, wantLen)
				}
				if len(res.Nodes) != wantLen {
					t.Fatalf("%s limit=%d: answers %v, the model's %v", what, limit, res.Nodes, want)
				}
				for _, n := range res.Nodes {
					if !want[n] {
						t.Fatalf("%s limit=%d: answer %d is not one of the model's", what, limit, n)
					}
				}
			}
		}
		if misses.Load() != 1 || hits.Load() == 0 {
			t.Fatalf("seed %d %s: %d memo misses and %d hits, want one miss", seed, pt, misses.Load(), hits.Load())
		}
	}
	t.Logf("%d cases, %d answers, %d value predicates, %d candidates removed by the semi-join", cases, answers, valueTests, joinRejects)
	if answers == 0 || joinRejects == 0 || valueTests == 0 {
		t.Error("the cases exercised no answer, no semi-join reject or no value predicate")
	}
}

// //a[b] and //a/b render alike and differ in the returning node: the memo
// must tell them apart.
func TestMemoKeyTellsReturningNodesApart(t *testing.T) {
	doc := miniXMark(t)
	e := newEnv(t, doc, allowAll(doc, 1), 256)
	ev := NewEvaluatorAt(e.snapshot(t))
	for _, q := range []struct {
		xpath string
		tag   string
	}{{`//item[name]`, "item"}, {`//item/name`, "name"}, {`//item[name]`, "item"}} {
		res, err := ev.Evaluate(MustParse(q.xpath), Options{})
		if err != nil || len(res.Nodes) == 0 {
			t.Fatalf("%s: result %v, err %v", q.xpath, res, err)
		}
		for _, n := range res.Nodes {
			if e.doc.Tag(n) != q.tag {
				t.Fatalf("%s returned a %s", q.xpath, e.doc.Tag(n))
			}
		}
	}
}

// semiJoin against the fixpoint it is the shortcut to: remove a posting that
// holds no posting of some child list or lies in no posting of its parent
// list, until nothing changes.
func TestSemiJoinAgainstQuadraticReference(t *testing.T) {
	reference := func(subs []NoKSubtree, lists [][]btree.Posting) [][]btree.Posting {
		inside := func(in, out btree.Posting) bool { return out.Node < in.Node && in.Node <= out.End }
		for changed := true; changed; {
			changed = false
			for i := 1; i < len(subs); i++ {
				p := subs[i].Parent
				keepP := slices.DeleteFunc(slices.Clone(lists[p]), func(o btree.Posting) bool {
					return !slices.ContainsFunc(lists[i], func(in btree.Posting) bool { return inside(in, o) })
				})
				keepC := slices.DeleteFunc(slices.Clone(lists[i]), func(in btree.Posting) bool {
					return !slices.ContainsFunc(lists[p], func(o btree.Posting) bool { return inside(in, o) })
				})
				changed = changed || len(keepP) != len(lists[p]) || len(keepC) != len(lists[i])
				lists[p], lists[i] = keepP, keepC
			}
		}
		return lists
	}
	check := func(what string, subs []NoKSubtree, lists [][]btree.Posting) {
		t.Helper()
		want := reference(subs, slices.Clone(lists))
		before := make([]int, len(lists))
		for i, l := range lists {
			before[i] = len(l)
			lists[i] = slices.Clone(l)
		}
		removed := semiJoin(subs, lists)
		for i := range lists {
			if !slices.Equal(lists[i], want[i]) {
				t.Fatalf("%s: list %d reduced to %v, want %v", what, i, lists[i], want[i])
			}
			if removed[i] != before[i]-len(lists[i]) {
				t.Fatalf("%s: list %d reported %d removed, lost %d", what, i, removed[i], before[i]-len(lists[i]))
			}
		}
	}

	post := func(n, end int) btree.Posting {
		return btree.Posting{Node: xmltree.NodeID(n), End: xmltree.NodeID(end)}
	}
	pair := []NoKSubtree{{Parent: -1}, {Parent: 0}}
	nested := []btree.Posting{post(1, 10), post(2, 9), post(3, 3), post(5, 8), post(6, 6), post(12, 12)}
	check("nested regions joined with themselves", pair, [][]btree.Posting{nested, nested})
	check("adjacent regions", pair, [][]btree.Posting{
		{post(1, 3), post(4, 6), post(7, 9)},
		{post(1, 1), post(4, 4), post(6, 6), post(10, 10)},
	})
	check("a descendant that starts where its ancestor does is none", pair, [][]btree.Posting{{post(4, 6)}, {post(4, 4)}})
	check("empty inner side", pair, [][]btree.Posting{nested, nil})
	check("empty outer side", pair, [][]btree.Posting{nil, nested})
	check("a child emptied below empties the chain", []NoKSubtree{{Parent: -1}, {Parent: 0}, {Parent: 1}},
		[][]btree.Posting{{post(0, 20)}, {post(2, 9), post(11, 15)}, {post(16, 16)}})

	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := chainDoc(rng, 30+rng.Intn(120))
		subs := []NoKSubtree{{Parent: -1}}
		for i := 1; i < 2+rng.Intn(3); i++ {
			subs = append(subs, NoKSubtree{Parent: rng.Intn(i)})
		}
		lists := make([][]btree.Posting, len(subs))
		for i := range lists {
			keep := 1 + rng.Intn(4)
			for n := 0; n < doc.Len(); n++ {
				if rng.Intn(keep) == 0 {
					lists[i] = append(lists[i], post(n, int(doc.End(xmltree.NodeID(n)))))
				}
			}
		}
		check(fmt.Sprintf("seed %d", seed), subs, lists)
	}
}

// Qval reads no value page before its answer is materialized: the value
// predicate is answered from the value-index postings in the plan, and the
// scan does not descend into the persons whose subtrees hold none. On a cold
// pool every page the evaluation pins is a structure page; an evaluator
// without a value index, the contrast, fetches values.
func TestValuePredicatePinsNoValuePage(t *testing.T) {
	e := xmarkEnv(t)
	persons := e.doc.NodesWithTag("person")
	email := ""
	for _, c := range e.doc.Children(persons[len(persons)/2]) {
		if e.doc.Tag(c) == "emailaddress" {
			email = e.doc.Value(c)
		}
	}
	xpath := fmt.Sprintf("/site/people/person[emailaddress='%s']/name", email)
	structure := map[int64]bool{}
	for _, pi := range e.ss.Store().Directory() {
		structure[int64(pi.Page)] = true
	}
	valuePins := func(ev *Evaluator) (pins, onValues int) {
		if err := e.pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		opts := Options{View: e.ss.ViewSubject(0), Trace: tr}
		res, err := ev.EvaluateCtx(obs.WithTrace(context.Background(), tr), MustParse(xpath), opts)
		if err != nil || len(res.Nodes) != 1 {
			t.Fatalf("%s: %v, err %v", xpath, res, err)
		}
		for _, ev := range tr.Events() {
			if ev.Kind == obs.EvPagePin {
				pins++
				if !structure[ev.Page] {
					onValues++
				}
			}
		}
		return pins, onValues
	}
	fetchPins, fetched := valuePins(e.ev)
	pins, onValues := valuePins(NewEvaluatorAt(e.snapshot(t)))
	t.Logf("%d persons: %d pins (%d on value pages) fetching values, %d pins (%d) with the value index", len(persons), fetchPins, fetched, pins, onValues)
	if fetched == 0 {
		t.Fatal("the evaluator without a value index fetched no value: the contrast is lost")
	}
	if onValues != 0 {
		t.Errorf("the evaluation pinned %d value pages", onValues)
	}
	if 4*pins > fetchPins {
		t.Errorf("%d pins with the value index, %d without: want at most a quarter", pins, fetchPins)
	}
}

// The bound the scan puts on a data node's subtree — the node before its
// following sibling, or the bound of its parent — is tight: a value test is
// still found on the last node of a subtree, of the last sibling, and of the
// document.
func TestValuePruningKeepsSubtreeEnds(t *testing.T) {
	for _, c := range []struct {
		xml, xpath string
		want       int
	}{
		{`<r><a><b><c>v</c></b><b><c>w</c></b></a></r>`, `//a[b/c='v']`, 1},
		{`<r><a><b><c>w</c></b><b><c>v</c></b></a><a/></r>`, `//a[b/c='v']`, 1},
		{`<r><a><b><c>w</c></b><b><d/><c>v</c></b></a></r>`, `/r/a[b/c='v']`, 1},
		{`<r><a><b><c>w</c></b></a><a><c>v</c></a></r>`, `//a[b/c='v']`, 0},
	} {
		doc, err := xmltree.ParseString(c.xml)
		if err != nil {
			t.Fatal(err)
		}
		e := newEnv(t, doc, allowAll(doc, 1), 64)
		res, err := NewEvaluatorAt(e.snapshot(t)).Evaluate(MustParse(c.xpath), Options{View: e.ss.ViewSubject(0)})
		if err != nil || len(res.Nodes) != c.want {
			t.Errorf("%s on %s: %v, err %v; want %d answers", c.xpath, c.xml, res, err, c.want)
		}
	}
}

// Explain shows both prunings: a scan's candidates, its rejected-by-path and
// its rejected-by-join add up to the index postings of its root, in text and
// in JSON, and a value test answered from the plan's postings is marked
// value-index on its pattern node.
func TestExplainShowsIndexPruning(t *testing.T) {
	e := xmarkEnv(t)
	ev := NewEvaluatorAt(e.snapshot(t))
	ctx := context.Background()
	opts := Options{View: e.ss.ViewSubject(0)}

	plan, err := ev.Explain(ctx, MustParse("//listitem//keyword"), opts)
	if err != nil {
		t.Fatal(err)
	}
	joinRejects := 0
	for _, op := range plan.Operators {
		if op.Kind != "scan" {
			continue
		}
		tag := strings.TrimPrefix(op.Root, "//")
		if got, want := op.Candidates+op.RejectedByPath+op.RejectedByJoin, len(e.doc.NodesWithTag(tag)); got != want {
			t.Errorf("%s: %d candidates + %d rejected by path + %d by join, the document has %d %s nodes",
				op.Op, op.Candidates, op.RejectedByPath, op.RejectedByJoin, want, tag)
		}
		joinRejects += op.RejectedByJoin
	}
	var text, js strings.Builder
	if err := plan.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := plan.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if joinRejects == 0 || !strings.Contains(text.String(), "(rejected-by-join=") || !strings.Contains(js.String(), `"rejected_by_join"`) {
		t.Errorf("%d join rejects; the plan renders as\n%s", joinRejects, text.String())
	}
	res, err := ev.EvaluateCtx(ctx, MustParse("//listitem//keyword"), opts)
	if err != nil || res.Skips.JoinCandidates != int64(joinRejects) {
		t.Errorf("SkipStats.JoinCandidates = %d, the plan shows %d (err %v)", res.Skips.JoinCandidates, joinRejects, err)
	}

	plan, err = ev.Explain(ctx, MustParse("/site/people/person[emailaddress='x']/name"), opts)
	if err != nil {
		t.Fatal(err)
	}
	text.Reset()
	if err := plan.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, n := range plan.Nodes {
		if want := strings.Contains(n.Step, "emailaddress"); n.ValueIndex != want {
			t.Errorf("node %s: value-index %v, want %v", n.Step, n.ValueIndex, want)
		}
	}
	if !strings.Contains(text.String(), " value-index]") {
		t.Errorf("the text plan marks no value-index node:\n%s", text.String())
	}
}

// One pattern asked for by many goroutines at once is built once; two
// patterns whose builds each wait for the other to have started both
// finish, which they could not under a cache-wide lock; a failed build is
// not kept.
func TestMaskCacheBuildsOutsideTheLock(t *testing.T) {
	var hits, misses obs.Counter
	mc := NewMaskCache(&hits, &misses)
	builds := 0
	var wg sync.WaitGroup
	const n = 32
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh, err := mc.shapeFor("k", 1, func() (*compiledShape, error) {
				builds++ // the Once orders the builds, if there were two
				return &compiledShape{size: 100}, nil
			})
			if err != nil || sh == nil {
				t.Error(sh, err)
			}
		}()
	}
	wg.Wait()
	if builds != 1 || misses.Load() != 1 || hits.Load() != n-1 {
		t.Fatalf("%d builds, %d misses, %d hits for %d lookups of one key", builds, misses.Load(), hits.Load(), n)
	}
	if mc.Bytes() != 100 {
		t.Fatalf("memo holds %d bytes, want 100", mc.Bytes())
	}

	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mc.shapeFor(fmt.Sprint("pair", g), 1, func() (*compiledShape, error) {
				close(started[g])
				<-started[1-g]
				return &compiledShape{}, nil
			})
		}()
	}
	wg.Wait()

	boom := fmt.Errorf("boom")
	if _, err := mc.shapeFor("bad", 1, func() (*compiledShape, error) { return nil, boom }); err != boom {
		t.Fatalf("failed build returned %v", err)
	}
	if sh, err := mc.shapeFor("bad", 1, func() (*compiledShape, error) { return &compiledShape{}, nil }); err != nil || sh == nil {
		t.Fatalf("the lookup after a failed build got %v, %v: the failure was kept", sh, err)
	}
	// A build that panics takes its own query down and is not kept either.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the build's panic did not reach its caller")
			}
		}()
		mc.shapeFor("bad", 3, func() (*compiledShape, error) { panic("boom") })
	}()
	if sh, err := mc.shapeFor("bad", 3, func() (*compiledShape, error) { return &compiledShape{}, nil }); err != nil || sh == nil {
		t.Fatalf("the lookup after a panicked build got %v, %v", sh, err)
	}
	// A newer sequence replaces the entry and its bytes; past the byte bound
	// the memo starts over.
	mc.shapeFor("k", 2, func() (*compiledShape, error) { return &compiledShape{size: 40}, nil })
	if mc.Bytes() != 40 {
		t.Fatalf("memo holds %d bytes after the entry was replaced, want 40", mc.Bytes())
	}
	mc.shapeFor("big", 2, func() (*compiledShape, error) { return &compiledShape{size: maskCacheBytes}, nil })
	mc.shapeFor("next", 2, func() (*compiledShape, error) { return &compiledShape{size: 1}, nil })
	if mc.Bytes() != 1 {
		t.Fatalf("memo holds %d bytes after passing its bound, want 1", mc.Bytes())
	}
}
