package securexml

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"dolxml/internal/btree"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
)

// The flat runs are handed to every plan as they lie — //parlist//parlist
// gets one run for both sides of its join — and no plan may write to them.
// After the Table 1 workload, a value test, value-tested and same-tag
// subtree roots and a wildcard root, under every semantics and both
// ablation arms, each tag's run, each class's run and each (tag, value)
// lookup equals a fresh build's.
func TestIndexRunsSurviveQueries(t *testing.T) {
	dir, qval := churnTenant(t, 2, 31, 3600, 512)
	s, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	queries := []string{qval, "//listitem//listitem", "//*//keyword", "//person[//emailaddress]//name",
		"//person[//emailaddress='" + qval[len("/site/people/person[emailaddress='"):len(qval)-len("']/name")] + "']/name"}
	for _, q := range table1 {
		queries = append(queries, q.expr)
	}
	answers := 0
	for _, q := range queries {
		for _, opts := range []QueryOptions{{}, {Pruned: true}, {Unrestricted: true}, {DisablePathSummary: true}, {Limit: 3}} {
			for rep := 0; rep < 2; rep++ { // a memo miss, then a hit
				ms, err := s.QueryCtx(context.Background(), "u03", "read", q, opts)
				if err != nil {
					t.Fatalf("%s %+v: %v", q, opts, err)
				}
				answers += len(ms)
			}
		}
	}
	if answers == 0 {
		t.Fatal("no query answered anything")
	}

	sn := s.cur.Load()
	fresh := newIndexState(nil)
	if err := fresh.ensure(sn.st, nil); err != nil {
		t.Fatal(err)
	}
	all := make([]xmltree.NodeID, sn.st.NumNodes())
	for n := range all {
		all[n] = xmltree.NodeID(n)
	}
	values, err := sn.st.Values().ValuesCtx(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []btree.Posting) {
		t.Helper()
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: the served run holds %d postings, a fresh build %d (or they differ)", what, len(got), len(want))
		}
	}
	seen := 0
	for code := int32(0); int(code) < sn.st.NumTags(); code++ {
		got, _ := sn.idx.index.Postings(code)
		want, _ := fresh.index.Postings(code)
		same(sn.st.TagName(code), got, want)
		seen += len(got)
		for _, p := range want {
			if v := values[p.Node]; v != "" {
				got, err := sn.idx.vindex.ValuePostings(code, v)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := fresh.vindex.ValuePostings(code, v)
				same(sn.st.TagName(code)+"="+v, got, want)
			}
		}
	}
	if seen != sn.st.NumNodes() {
		t.Fatalf("the runs hold %d postings for %d nodes", seen, sn.st.NumNodes())
	}
	seen = 0
	for class := int32(0); int(class) < sn.st.Paths().NumNodes(); class++ {
		got, want := sn.idx.index.ClassPostings(class), fresh.index.ClassPostings(class)
		same(fmt.Sprintf("class %d", class), got, want)
		seen += len(got)
	}
	if seen != sn.st.NumNodes() {
		t.Fatalf("the class runs hold %d postings for %d nodes", seen, sn.st.NumNodes())
	}
}

// Class ids never go stale: every ACL-only snapshot shares its predecessor's
// index state, and an ACL-only commit whose path-summary replay fails
// rebuilds the summary, numbering its classes afresh. Here a structural
// commit first adds a class early in document order (the maintained summary
// appends it; a rebuild numbers it before every class of /site/categories),
// then the fallback is forced on an ACL-only commit. Q1–Q3 and a descendant
// twig over Q3's returning class on the snapshots before and after must
// answer as the ε-NoK matcher does, the one after from a fresh index state
// of its own, served by index plans.
func TestClassRunsFollowSummaryNumbering(t *testing.T) {
	doc := xmark.Generate(xmark.Scaled(1, 6000))
	s, err := NewBuilder().LoadXMLString(xmarkXML(doc)).
		AddUser("u").
		Grant("u", "read", "/site").
		Revoke("u", "read", "//mailbox").
		Seal(StoreOptions{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	items, err := s.QueryUnrestricted("/site/regions/africa/item")
	if err != nil || len(items) == 0 {
		t.Fatalf("%d items, %v", len(items), err)
	}
	if err := s.InsertXML(items[0].Node, InvalidNode, "<zz/>"); err != nil {
		t.Fatal(err)
	}
	before, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()

	// The fallback RewriteRegion takes when a replay cannot line up, forced
	// on the live store inside the ACL-only commit that follows.
	s.mu.Lock()
	err = s.ss.Store().RebuildPathSummary()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	bolds, err := s.QueryUnrestricted(table1[2].expr)
	if err != nil || len(bolds) == 0 {
		t.Fatalf("%d bolds, %v", len(bolds), err)
	}
	if err := s.SetAccess("u", "read", bolds[0].Node, false, false); err != nil {
		t.Fatal(err)
	}
	after, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()

	old, cur := before.base.sn, after.base.sn
	classOf := func(sn *snapshot, path ...string) int32 {
		class := int32(-1)
		for _, tag := range path {
			code, _ := sn.st.LookupTag(tag)
			class, _ = sn.st.Paths().ChildOf(class, code)
		}
		return class
	}
	bold := []string{"site", "categories", "category", "description", "text", "bold"}
	if classOf(old, bold...) == classOf(cur, bold...) {
		t.Fatal("the rebuild numbered Q3's returning class as before: the test proves nothing")
	}
	if old.idx == cur.idx {
		t.Fatal("the snapshot after the renumbering shares the index state built for the numbering before it")
	}
	for _, sp := range []*Snapshot{before, after} {
		for _, q := range []string{table1[0].expr, table1[1].expr, table1[2].expr, "//category//bold"} {
			for _, pruned := range []bool{false, true} {
				opts := QueryOptions{Snapshot: sp, Pruned: pruned}
				got, err := s.QueryCtx(ctx, "u", "read", q, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.DisablePathSummary = true
				want, err := s.QueryCtx(ctx, "u", "read", q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || len(want) == 0 {
					t.Fatalf("seq %d %s (pruned %v): %d answers, the matcher's %d", sp.Seq(), q, pruned, len(got), len(want))
				}
				plan, err := s.Explain(ctx, "u", "read", q, QueryOptions{Snapshot: sp, Pruned: pruned})
				if err != nil {
					t.Fatal(err)
				}
				if kind := plan.p.Operators[0].Kind; kind != "index" {
					t.Fatalf("seq %d %s: the plan's first operator is a %s, not the index", sp.Seq(), q, kind)
				}
			}
		}
	}
	gotBefore, _ := s.QueryCtx(ctx, "u", "read", table1[2].expr, QueryOptions{Snapshot: before})
	gotAfter, _ := s.QueryCtx(ctx, "u", "read", table1[2].expr, QueryOptions{Snapshot: after})
	if len(gotAfter) != len(gotBefore)-1 {
		t.Fatalf("Q3 has %d answers before the revoke and %d after", len(gotBefore), len(gotAfter))
	}
}

// The served index holds a 12-byte posting per node and offsets per tag
// and class: at most 13 bytes a node on a 20,000-node XMark tenant. The
// index_bytes gauge and Stats.IndexBytes count it, and each value run once
// built, from the moment the snapshot's index is built and 0 before; the
// gauge is read here while a first value query builds the index and a
// value run (run under -race).
func TestIndexBytes(t *testing.T) {
	doc := xmark.Generate(xmark.Scaled(0, 20000))
	s, err := NewBuilder().LoadXMLString(xmarkXML(doc)).AddUser("u").Grant("u", "read", "/site").Seal(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gauge := func() int64 { return s.MetricsSnapshot().Get("index_bytes") }
	runs, nodes := s.cur.Load().idx.index.Bytes(), s.cur.Load().st.NumNodes()
	t.Logf("%d nodes, %d bytes of class runs (%.2f a node)", nodes, runs, float64(runs)/float64(nodes))
	if nodes < 15000 || runs > 13*int64(nodes) {
		t.Fatalf("%d bytes of class runs for %d nodes", runs, nodes)
	}
	if st, err := s.Stats(); err != nil || gauge() != runs || st.IndexBytes != runs {
		t.Fatalf("index_bytes %d, Stats.IndexBytes %d (%v); the runs hold %d", gauge(), st.IndexBytes, err, runs)
	}
	names, err := s.QueryUnrestricted("/site/people/person/name")
	if err != nil || len(names) == 0 {
		t.Fatalf("%d names, %v", len(names), err)
	}
	q := "/site/people/person[name='" + names[0].Value + "']/name"
	if got, err := s.QueryCtx(context.Background(), "u", "read", q, QueryOptions{}); err != nil || len(got) == 0 {
		t.Fatalf("%s: %d answers, %v", q, len(got), err)
	}
	valued := gauge()
	if valued <= runs+int64(len(names))*12 {
		t.Fatalf("index_bytes %d after a value run of %d names over %d bytes of class runs", valued, len(names), runs)
	}

	if err := s.InsertXML(names[0].Node, InvalidNode, "<zz/>"); err != nil {
		t.Fatal(err)
	}
	if n := gauge(); n != 0 {
		t.Fatalf("index_bytes %d before the committed snapshot's index is built", n)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 200; k++ {
			if n := gauge(); n != 0 && n < runs {
				t.Errorf("index_bytes %d while the index is built", n)
			}
		}
	}()
	if _, err := s.QueryCtx(context.Background(), "u", "read", q, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	<-done
	if n := gauge(); n <= valued {
		t.Fatalf("index_bytes %d once the index and the value run are rebuilt, %d before", n, valued)
	}
}
