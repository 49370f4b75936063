package xmark

import (
	"testing"

	"dolxml/internal/xmltree"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Scaled(42, 5000))
	b := Generate(Scaled(42, 5000))
	if a.Len() != b.Len() {
		t.Fatalf("non-deterministic size: %d vs %d", a.Len(), b.Len())
	}
	for n := 0; n < a.Len(); n++ {
		id := xmltree.NodeID(n)
		if a.Tag(id) != b.Tag(id) || a.Value(id) != b.Value(id) {
			t.Fatalf("non-deterministic node %d", n)
		}
	}
	c := Generate(Scaled(43, 5000))
	if c.Len() == a.Len() {
		same := true
		for n := 0; n < a.Len() && same; n++ {
			id := xmltree.NodeID(n)
			same = a.Tag(id) == c.Tag(id) && a.Value(id) == c.Value(id)
		}
		if same {
			t.Fatal("different seeds produced identical documents")
		}
	}
}

func TestScaledSize(t *testing.T) {
	for _, target := range []int{1000, 10000, 50000} {
		doc := Generate(Scaled(7, target))
		if doc.Len() < target/2 || doc.Len() > target*2 {
			t.Errorf("target %d: got %d nodes (want within 2x)", target, doc.Len())
		}
	}
}

func TestSchemaSupportsTable1Queries(t *testing.T) {
	doc := Generate(Scaled(11, 20000))
	// Every tag the six queries mention must occur.
	for _, tag := range []string{
		"site", "regions", "africa", "item", "location", "name", "quantity",
		"categories", "category", "description", "text", "bold",
		"parlist", "listitem", "keyword", "emph",
	} {
		if len(doc.NodesWithTag(tag)) == 0 {
			t.Errorf("tag %q missing from generated document", tag)
		}
	}
	if got := len(doc.NodesWithTag("site")); got != 1 {
		t.Errorf("site count = %d", got)
	}
	// Q4 needs nested parlists.
	nested := 0
	for _, p := range doc.NodesWithTag("parlist") {
		for a := doc.Parent(p); a != xmltree.InvalidNode; a = doc.Parent(a) {
			if doc.Tag(a) == "parlist" {
				nested++
				break
			}
		}
	}
	if nested == 0 {
		t.Error("no nested parlists; Q4 would be empty")
	}
	// Q6 needs emph under items.
	itemEmph := 0
	for _, e := range doc.NodesWithTag("emph") {
		for a := doc.Parent(e); a != xmltree.InvalidNode; a = doc.Parent(a) {
			if doc.Tag(a) == "item" {
				itemEmph++
				break
			}
		}
	}
	if itemEmph == 0 {
		t.Error("no emph under items; Q6 would be empty")
	}
}

func TestQ1HasMatchesAndNonMatches(t *testing.T) {
	doc := Generate(Scaled(3, 20000))
	withAll, without := 0, 0
	for _, item := range doc.NodesWithTag("item") {
		has := map[string]bool{}
		for c := doc.FirstChild(item); c != xmltree.InvalidNode; c = doc.NextSibling(c) {
			has[doc.Tag(c)] = true
		}
		if has["location"] && has["name"] && has["quantity"] {
			withAll++
		} else {
			without++
		}
	}
	if withAll == 0 || without == 0 {
		t.Fatalf("Q1 selectivity degenerate: %d with, %d without", withAll, without)
	}
}

func TestParlistDepthBounded(t *testing.T) {
	cfg := Scaled(5, 10000)
	cfg.MaxParlistDepth = 2
	doc := Generate(cfg)
	for _, p := range doc.NodesWithTag("parlist") {
		depth := 1
		for a := doc.Parent(p); a != xmltree.InvalidNode; a = doc.Parent(a) {
			if doc.Tag(a) == "parlist" {
				depth++
			}
		}
		if depth > 2 {
			t.Fatalf("parlist nesting %d exceeds configured max 2", depth)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(Scaled(int64(i), 50000))
	}
}
