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
		// Tag multiset must match the visible nodes' tags.
		wantHist := map[string]int{}
		for n := 0; n < doc.Len(); n++ {
			if visible(xmltree.NodeID(n)) {
				wantHist[doc.Tag(xmltree.NodeID(n))]++
			}
		}
		gotHist := got.TagHistogram()
		if len(gotHist) != len(wantHist) {
			return false
		}
		for k, v := range wantHist {
			if gotHist[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterLabeled(t *testing.T) {
	doc := xmltree.MustParseString(`<feed><item level="secret"><body>x</body></item><item level="open"><body>y</body></item></feed>`)
	// Nodes: feed0 item1 @level2 body3 item4 @level5 body6.
	m := acl.NewMatrix(doc.Len(), 1)
	for n := 0; n < doc.Len(); n++ {
		m.Set(xmltree.NodeID(n), 0, true)
	}
	// Deny the first item's subtree and the second item's level attribute.
	for n := xmltree.NodeID(1); n <= doc.End(1); n++ {
		m.Set(n, 0, false)
	}
	m.Set(5, 0, false)
	lab := dol.FromMatrix(m)
	var out strings.Builder
	err := FilterLabeled(doc, lab, func(n xmltree.NodeID) bool { return lab.Accessible(n, 0) }, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Contains(got, "secret") || strings.Contains(got, ">x<") {
		t.Fatalf("denied item leaked: %s", got)
	}
	if strings.Contains(got, "level=") {
		t.Fatalf("denied attribute leaked: %s", got)
	}
	if !strings.Contains(got, "<body>y</body>") {
		t.Fatalf("visible body lost: %s", got)
	}
}

// TestFilterLabeledAttrRoundTrip writes attributes whose values need
// escaping and checks that the filtered XML reads back the same values.
func TestFilterLabeledAttrRoundTrip(t *testing.T) {
	for _, v := range []string{`a\b`, "\t", "\r\n", `"'`, "<&>", "]]>", "é日本\U0001F600", "\u0085"} {
		b := xmltree.NewBuilder()
		b.Begin("r")
		b.Attr("k", v)
		b.End()
		doc := b.MustFinish()
		lab := dol.FromMatrix(acl.NewMatrix(doc.Len(), 1))
		var out strings.Builder
		if err := FilterLabeled(doc, lab, func(xmltree.NodeID) bool { return true }, &out); err != nil {
			t.Fatal(err)
		}
		back, err := xmltree.ParseString(out.String())
		if err != nil {
			t.Fatalf("%q written as %s: %v", v, out.String(), err)
		}
		if got := back.Value(1); got != v {
			t.Errorf("%q written as %s reads back %q", v, out.String(), got)
		}
	}
}

func TestFilterLabeledDimensionMismatch(t *testing.T) {
	doc := xmltree.MustParseString("<a><b/></a>")
	lab := dol.FromMatrix(acl.NewMatrix(1, 1))
	if err := FilterLabeled(doc, lab, func(xmltree.NodeID) bool { return true }, &strings.Builder{}); err == nil {
		t.Fatal("mismatched labeling should fail")
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
