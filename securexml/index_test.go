package securexml

import (
	"context"
	"reflect"
	"testing"

	"dolxml/internal/btree"
	"dolxml/internal/xmltree"
)

// The flat runs are handed to every plan as they lie — //parlist//parlist
// gets one run for both sides of its join — and plans route and semi-join
// their candidates in place: they must do so on copies. After the Table 1
// workload, a value test, value-tested and same-tag subtree roots and a
// wildcard root, under every semantics and both ablation arms, each tag's
// run and each (tag, value) lookup equals a fresh build's.
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
}
