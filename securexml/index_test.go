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
// gets one run for both sides of its join — and plans route and semi-join
// their candidates in place: they must do so on copies. After the Table 1
// workload, a value test, value-tested and same-tag subtree roots and a
// wildcard root, under every semantics and both ablation arms, each tag's
// run, each class's run and each (tag, value) lookup equals a fresh build's.
func TestIndexRunsSurviveQueries(t *testing.T) {
	dir, qval := churnTenant(t, 2, 31, 3600, 512)
	s, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	queries := append([]string{qval, "//listitem//listitem", "//*//keyword", "//person[//emailaddress]//name",
		"//person[//emailaddress='" + qval[len("/site/people/person[emailaddress='"):len(qval)-len("']/name")] + "']/name"}, recoveryQueries...)
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
	bolds, err := s.QueryUnrestricted(recoveryQueries[2])
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
		for _, q := range append(recoveryQueries[:3:3], "//category//bold") {
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
	gotBefore, _ := s.QueryCtx(ctx, "u", "read", recoveryQueries[2], QueryOptions{Snapshot: before})
	gotAfter, _ := s.QueryCtx(ctx, "u", "read", recoveryQueries[2], QueryOptions{Snapshot: after})
	if len(gotAfter) != len(gotBefore)-1 {
		t.Fatalf("Q3 has %d answers before the revoke and %d after", len(gotBefore), len(gotAfter))
	}
}
