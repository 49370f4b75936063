package query

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dolxml/internal/obs"
	"dolxml/internal/xmltree"
)

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
		res, err := ev.EvaluateCtx(context.Background(), MustParse(q.xpath), Options{})
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
		res, err := NewEvaluatorAt(e.snapshot(t)).EvaluateCtx(context.Background(), MustParse(c.xpath), Options{View: e.ss.ViewSubject(0)})
		if err != nil || len(res.Nodes) != c.want {
			t.Errorf("%s on %s: %v, err %v; want %d answers", c.xpath, c.xml, res, err, c.want)
		}
	}
}

// Explain shows what the plan holds: a scan of the paper's engine matches
// every index posting of its root, in text and in JSON, and a value test
// answered from the plan's postings is marked value-index on its pattern
// node.
func TestExplainShowsIndexPruning(t *testing.T) {
	e := xmarkEnv(t)
	ev := NewEvaluatorAt(e.snapshot(t))
	ctx := context.Background()
	opts := Options{View: e.ss.ViewSubject(0)}

	plan, err := ev.Explain(ctx, MustParse("//listitem//keyword"), opts)
	if err != nil {
		t.Fatal(err)
	}
	var text, js strings.Builder
	if err := plan.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := plan.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	scans := 0
	for _, op := range plan.Operators {
		if op.Kind != "scan" {
			continue
		}
		scans++
		tag := strings.TrimPrefix(op.Root, "//")
		want := len(e.doc.NodesWithTag(tag))
		if op.Candidates != want || op.CandidateSrc != "tag-index" {
			t.Errorf("%s: %d candidates via %s, the document has %d %s nodes", op.Op, op.Candidates, op.CandidateSrc, want, tag)
		}
		if !strings.Contains(text.String(), fmt.Sprintf("candidates=%d via tag-index", want)) ||
			!strings.Contains(js.String(), fmt.Sprintf(`"candidates": %d`, want)) {
			t.Errorf("%s: the plan does not render its %d candidates:\n%s", op.Op, want, text.String())
		}
	}
	if scans != 2 {
		t.Errorf("%d scans; the plan renders as\n%s", scans, text.String())
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
