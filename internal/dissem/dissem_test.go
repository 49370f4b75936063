package dissem

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/dol"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

func TestFilterBasic(t *testing.T) {
	src := `<feed><public><headline>a</headline></public><premium><article>x</article></premium></feed>`
	// Nodes: feed0 public1 headline2 premium3 article4.
	denied := map[xmltree.NodeID]bool{3: true}
	var out strings.Builder
	err := Filter(strings.NewReader(src), &out, func(n xmltree.NodeID) bool { return !denied[n] })
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Contains(got, "premium") || strings.Contains(got, "article") {
		t.Fatalf("denied subtree leaked: %s", got)
	}
	if !strings.Contains(got, "<headline>a</headline>") {
		t.Fatalf("visible content lost: %s", got)
	}
	// Output must reparse.
	if _, err := xmltree.ParseString(got); err != nil {
		t.Fatalf("output not well-formed: %v\n%s", err, got)
	}
}

func TestFilterAccessibleUnderDenied(t *testing.T) {
	// Pruned semantics: an accessible node under a denied one is dropped.
	src := `<a><b><c/></b></a>`
	denied := map[xmltree.NodeID]bool{1: true} // b
	var out strings.Builder
	if err := Filter(strings.NewReader(src), &out, func(n xmltree.NodeID) bool { return !denied[n] }); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "<c") {
		t.Fatalf("c leaked despite denied ancestor: %s", out.String())
	}
}

func TestFilterRootDenied(t *testing.T) {
	var out strings.Builder
	if err := Filter(strings.NewReader("<a><b/></a>"), &out, func(xmltree.NodeID) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "" {
		t.Fatalf("denied root should produce empty output, got %q", out.String())
	}
}

func TestFilterMalformed(t *testing.T) {
	var out strings.Builder
	if err := Filter(strings.NewReader("<a><b></a>"), &out, func(xmltree.NodeID) bool { return true }); err == nil {
		t.Fatal("malformed input should fail")
	}
}

// Property: for random attribute-free documents and random accessibility,
// the filtered output contains exactly the nodes whose whole ancestor
// chain is accessible, with structure preserved.
func TestFilterMatchesPrunedView(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := xmlmodel.Doc(rng, 1+rng.Intn(120), xmlmodel.Deep)
		var xml strings.Builder
		if err := doc.WriteXML(&xml); err != nil {
			return false
		}
		acc := bitset.New(doc.Len())
		for n := 0; n < doc.Len(); n++ {
			if rng.Intn(3) > 0 {
				acc.Set(n)
			}
		}
		var out strings.Builder
		if err := Filter(strings.NewReader(xml.String()), &out,
			func(n xmltree.NodeID) bool { return acc.Test(int(n)) }); err != nil {
			return false
		}
		// Expected pruned view via the oracle.
		visible := func(n xmltree.NodeID) bool {
			for v := n; v != xmltree.InvalidNode; v = doc.Parent(v) {
				if !acc.Test(int(v)) {
					return false
				}
			}
			return true
		}
		if strings.TrimSpace(out.String()) == "" {
			return !visible(0)
		}
		got, err := xmltree.ParseString(out.String())
		if err != nil {
			return false
		}
		wantCount := 0
		for n := 0; n < doc.Len(); n++ {
			if visible(xmltree.NodeID(n)) {
				wantCount++
			}
		}
		if got.Len() != wantCount {
			return false
		}
		// Tag multiset must match the visible nodes' tags: with the sizes
		// equal, equal counts per visible tag suffice.
		wantHist := map[string]int{}
		for n := 0; n < doc.Len(); n++ {
			if visible(xmltree.NodeID(n)) {
				wantHist[doc.Tag(xmltree.NodeID(n))]++
			}
		}
		for k, v := range wantHist {
			if len(got.NodesWithTag(k)) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSubjectAccess(t *testing.T) {
	m := acl.NewMatrix(3, 2)
	m.Set(1, 1, true)
	lab := dol.FromMatrix(m)
	fn := SubjectAccess(lab, 1)
	if fn(0) || !fn(1) || fn(2) {
		t.Fatal("SubjectAccess adapter wrong")
	}
}
