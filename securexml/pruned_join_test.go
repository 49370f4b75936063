package securexml

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dolxml/internal/query"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
)

// Regression: under the pruned semantics the ε-STD joins lost an answer
// once an in-place SetAccess had rewritten a block, for any subject and on
// any node, until the next Vacuum. A rewrite can leave a uniformly
// accessible block right after the last descendant of an inaccessible
// subtree; the join's page pass stepped over that block without closing
// the subtree's level, and when the next mixed block started deeper the
// stale level hid the pairs under it.
//
// The store is the repository benchmark's single tenant (benchmark/
// inputs.go, buildTenant, document and ACL seed 11000): 8 groups granted
// /site, 24 users in one or two of them, a burst of subtree revokes shared
// between correlated groups, Vacuum. Then a group no user belongs to is
// granted //keyword one node at a time, which changes no user's view, and
// after each grant u04 asks the joins (the first answer went missing after
// grant 153; the test stops at 200). The reference is Gabillon's pruned view: the plain match of the pattern
// on the document, kept where every node from the root down is accessible.
func TestPrunedJoinsSurviveInPlaceRewrites(t *testing.T) {
	const (
		seed      = 11000
		numGroups = 8
		numUsers  = 24
		mode      = "read"
	)
	doc := xmark.Generate(xmark.Scaled(seed, 20000))
	var xb strings.Builder
	if err := doc.WriteXML(&xb); err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString(xb.String())
	if err != nil {
		t.Fatal(err)
	}
	group := func(g int) string { return fmt.Sprintf("g%d", g) }
	user := func(u int) string { return fmt.Sprintf("u%02d", u) }

	b := NewBuilder().LoadXMLString(xb.String())
	for g := 0; g < numGroups; g++ {
		b.AddGroup(group(g)).Grant(group(g), mode, "/site")
	}
	b.AddGroup("gw")
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for u := 0; u < numUsers; u++ {
		b.AddUser(user(u)).AddMember(group(u%numGroups), user(u))
		if rng.Intn(2) == 0 {
			b.AddMember(group((u%numGroups+1+rng.Intn(numGroups-1))%numGroups), user(u))
		}
	}
	s, err := b.Seal(StoreOptions{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var roots []xmltree.NodeID
	for _, tag := range []string{"item", "person", "open_auction", "closed_auction", "category", "listitem"} {
		roots = append(roots, doc.NodesWithTag(tag)...)
	}
	rng = rand.New(rand.NewSource(seed ^ 0xac1))
	for n := doc.Len() * 4 / 100; n > 0; n-- {
		node := NodeID(roots[rng.Intn(len(roots))])
		g := rng.Intn(numGroups)
		if err := s.SetAccess(group(g), mode, node, false, true); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(5) < 3 {
			if err := s.SetAccess(group(g^1), mode, node, false, true); err != nil {
				t.Fatal(err)
			}
			n--
		}
	}
	if err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}

	// Every node from the root down accessible to u04.
	const asker = "u04"
	visible := make([]bool, doc.Len())
	for n := 0; n < doc.Len(); n++ {
		ok, err := s.UserAccessible(asker, mode, NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		p := doc.Parent(xmltree.NodeID(n))
		visible[n] = ok && (p == xmltree.InvalidNode || visible[p])
	}
	joins := []string{"//parlist//parlist", "//listitem//keyword", "//item//emph"}
	want := map[string][]NodeID{}
	for _, q := range joins {
		pt, err := query.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range query.MatchDocument(doc, pt) {
			if visible[n] {
				want[q] = append(want[q], NodeID(n))
			}
		}
		if len(want[q]) == 0 {
			t.Fatalf("%s: the reference is empty", q)
		}
	}
	check := func(after string) {
		t.Helper()
		for _, q := range joins {
			ms, err := s.QueryPruned(asker, mode, q)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]NodeID, len(ms))
			for i, m := range ms {
				got[i] = m.Node
			}
			if !slices.Equal(got, want[q]) {
				t.Fatalf("%s: %s pruned as %s: %d answers, want %d", after, q, asker, len(got), len(want[q]))
			}
		}
	}
	check("after Vacuum")
	for i, n := range doc.NodesWithTag("keyword")[:200] {
		if err := s.SetAccess("gw", mode, NodeID(n), true, false); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after grant %d (node %d)", i+1, n))
	}
}
