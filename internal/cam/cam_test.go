package cam

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dolxml/internal/bitset"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

func TestUniformAccessibility(t *testing.T) {
	doc := xmltree.MustParseString(`<a><b/><c><d/><e/></c></a>`)
	all := bitset.New(doc.Len())
	for i := 0; i < doc.Len(); i++ {
		all.Set(i)
	}
	c := Build(doc, all)
	if c.Len() != 1 {
		t.Fatalf("uniform allow should need 1 label, got %d", c.Len())
	}
	for n := 0; n < doc.Len(); n++ {
		ok, err := c.Accessible(xmltree.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("node %d should be accessible", n)
		}
	}

	none := bitset.New(doc.Len())
	c2 := Build(doc, none)
	if c2.Len() != 1 {
		t.Fatalf("uniform deny should need 1 label, got %d", c2.Len())
	}
}

func TestSingleExceptionSubtree(t *testing.T) {
	// Root accessible everywhere except subtree c (nodes 2..4).
	doc := xmltree.MustParseString(`<a><b/><c><d/><e/></c></a>`)
	acc := bitset.New(doc.Len())
	acc.Set(0)
	acc.Set(1)
	c := Build(doc, acc)
	// Optimal: label root (self +, desc +) and c (self -, desc -): 2 labels.
	if c.Len() != 2 {
		t.Fatalf("want 2 labels, got %d: %+v", c.Len(), c.labels)
	}
	for n := 0; n < doc.Len(); n++ {
		ok, _ := c.Accessible(xmltree.NodeID(n))
		if ok != acc.Test(n) {
			t.Fatalf("node %d wrong", n)
		}
	}
}

func TestSelfDescSplit(t *testing.T) {
	// Node accessible but descendants not: exercises self != desc.
	doc := xmltree.MustParseString(`<a><b/><c/></a>`)
	acc := bitset.New(doc.Len())
	acc.Set(0)
	c := Build(doc, acc)
	if c.Len() != 1 {
		t.Fatalf("want 1 label (self+, desc-), got %d", c.Len())
	}
	l := c.labels[0]
	if !l.Self || l.Desc {
		t.Fatalf("label = %+v", l)
	}
}

func TestAccessibleErrors(t *testing.T) {
	doc := xmltree.MustParseString(`<a/>`)
	c := Build(doc, bitset.New(1))
	if _, err := c.Accessible(9); err == nil {
		t.Fatal("invalid node should fail")
	}
}

// bruteMinCAM exhaustively finds the minimum number of labels for tiny
// trees: each node is unlabeled or labeled with desc default in {0, 1}
// (self is free), the root must be labeled, and the induced accessibility
// must match acc.
func bruteMinCAM(doc *xmltree.Document, acc *bitset.Bitset) int {
	n := doc.Len()
	assign := make([]int, n) // 0 = unlabeled, 1 = desc deny, 2 = desc allow
	best := n + 1
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if assign[0] == 0 {
				return
			}
			count := 0
			for _, a := range assign {
				if a != 0 {
					count++
				}
			}
			if count >= best {
				return
			}
			// Check induced accessibility.
			for v := 0; v < n; v++ {
				var got bool
				if assign[v] != 0 {
					got = acc.Test(v) // self bit is free
				} else {
					found := false
					for p := doc.Parent(xmltree.NodeID(v)); p != xmltree.InvalidNode; p = doc.Parent(p) {
						if assign[p] != 0 {
							got = assign[p] == 2
							found = true
							break
						}
					}
					if !found {
						return
					}
				}
				if got != acc.Test(v) {
					return
				}
			}
			best = count
			return
		}
		for a := 0; a < 3; a++ {
			assign[i] = a
			rec(i + 1)
		}
		assign[i] = 0
	}
	rec(0)
	return best
}

// Property: the DP construction is exactly minimal on tiny trees.
func TestMinimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		doc := xmlmodel.Doc(rng, n, xmlmodel.Deep)
		acc := bitset.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				acc.Set(i)
			}
		}
		c := Build(doc, acc)
		// Correctness first.
		for v := 0; v < n; v++ {
			got, err := c.Accessible(xmltree.NodeID(v))
			if err != nil || got != acc.Test(v) {
				return false
			}
		}
		return c.Len() == bruteMinCAM(doc, acc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: lookup reproduces the accessibility assignment on larger
// random trees.
func TestLookupCorrectness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		doc := xmlmodel.Doc(rng, n, xmlmodel.Deep)
		acc := bitset.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				acc.Set(i)
			}
		}
		c := Build(doc, acc)
		for v := 0; v < n; v++ {
			got, err := c.Accessible(xmltree.NodeID(v))
			if err != nil || got != acc.Test(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// CAM should exploit vertical locality: propagated accessibility needs
// labels only near the seeds.
func TestVerticalLocalityCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	doc := xmlmodel.Doc(rng, 5000, xmlmodel.Deep)
	// Seed-based Most-Specific-Override propagation with few seeds.
	acc := bitset.New(doc.Len())
	state := make([]bool, doc.Len())
	seeds := map[int]bool{0: true}
	for i := 0; i < 20; i++ {
		seeds[rng.Intn(doc.Len())] = true
	}
	for v := 0; v < doc.Len(); v++ {
		p := doc.Parent(xmltree.NodeID(v))
		inherit := false
		if p != xmltree.InvalidNode {
			inherit = state[p]
		}
		if seeds[v] {
			inherit = rng.Intn(2) == 1
		}
		state[v] = inherit
		if inherit {
			acc.Set(v)
		}
	}
	c := Build(doc, acc)
	if c.Len() > 2*len(seeds)+1 {
		t.Fatalf("CAM size %d should be near seed count %d", c.Len(), len(seeds))
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	doc := xmlmodel.Doc(rng, 100000, xmlmodel.Deep)
	acc := bitset.New(doc.Len())
	for i := 0; i < doc.Len(); i++ {
		if rng.Intn(5) > 0 {
			acc.Set(i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(doc, acc)
	}
}
