package dol

import (
	"math/rand"
	"slices"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/xmltree"
)

// Accessible reports whether subject s may access node n.
func (l *Labeling) Accessible(n xmltree.NodeID, s acl.SubjectID) bool {
	return l.cb.Accessible(l.CodeInForce(n), s)
}

// figure1Matrix reproduces the two-subject secured tree of Figure 1(b):
// 12 nodes a..l; left subject = 0, right subject = 1.
// Accessibility (from the figure's shading, reconstructed): the example
// below exercises the same mechanics: runs of equal ACLs with three
// distinct lists.
func figure1Matrix() *acl.Matrix {
	m := acl.NewMatrix(12, 2)
	rows := []struct {
		s0, s1 bool
	}{
		{true, true},   // a
		{true, true},   // b
		{true, false},  // c
		{true, false},  // d
		{false, false}, // e
		{false, false}, // f
		{false, false}, // g
		{true, true},   // h
		{true, true},   // i
		{true, false},  // j
		{true, false},  // k
		{true, false},  // l
	}
	for n, r := range rows {
		m.Set(xmltree.NodeID(n), 0, r.s0)
		m.Set(xmltree.NodeID(n), 1, r.s1)
	}
	return m
}

func TestFromMatrixTransitions(t *testing.T) {
	m := figure1Matrix()
	l := FromMatrix(m)
	// Runs: [a,b] [c,d] [e,f,g] [h,i] [j,k,l] -> 5 transitions.
	if got := l.NumTransitions(); got != 5 {
		t.Fatalf("NumTransitions = %d, want 5", got)
	}
	// Distinct ACLs: {0,1}, {0}, {} -> 3 codebook entries (paper: "only
	// three of the four possible distinct access control lists").
	if got := l.Codebook().Len(); got != 3 {
		t.Fatalf("codebook entries = %d, want 3", got)
	}
	var nodes []xmltree.NodeID
	for n := xmltree.NodeID(0); n < 12; n++ {
		if l.IsTransition(n) {
			nodes = append(nodes, n)
		}
	}
	if want := []xmltree.NodeID{0, 2, 4, 7, 9}; !slices.Equal(nodes, want) {
		t.Fatalf("transitions at %v, want %v", nodes, want)
	}
}

func TestLabelingRoundTrip(t *testing.T) {
	m := figure1Matrix()
	l := FromMatrix(m)
	for n := xmltree.NodeID(0); n < 12; n++ {
		if !l.Codebook().ACL(l.CodeInForce(n)).EqualBits(m.Row(n)) {
			t.Fatalf("row %d mismatch", n)
		}
		for s := acl.SubjectID(0); s < 2; s++ {
			if l.Accessible(n, s) != m.Accessible(n, s) {
				t.Fatalf("Accessible(%d,%d) mismatch", n, s)
			}
		}
	}
}

func TestFromAccessibleSet(t *testing.T) {
	// Figure 1(a): single subject, shaded = accessible.
	accessible := bitset.FromIndices(12, 0, 1, 7, 8, 9, 10, 11)
	l := FromAccessibleSet(accessible, 12)
	if l.Codebook().NumSubjects() != 1 {
		t.Fatal("subject dim wrong")
	}
	for n := 0; n < 12; n++ {
		if l.Accessible(xmltree.NodeID(n), 0) != accessible.Test(n) {
			t.Fatalf("node %d mismatch", n)
		}
	}
	// Runs: [0,1]+ [2..6]- [7..11]+ -> 3 transitions.
	if l.NumTransitions() != 3 {
		t.Fatalf("NumTransitions = %d, want 3", l.NumTransitions())
	}
}

func TestStreamBuilderSharedCodebook(t *testing.T) {
	cb := NewCodebook(2)
	sb1 := NewStreamBuilder(cb)
	sb2 := NewStreamBuilder(cb)
	a := bitset.FromIndices(2, 0)
	for i := 0; i < 5; i++ {
		sb1.Append(a)
		sb2.Append(a)
	}
	l1, l2 := sb1.Finish(), sb2.Finish()
	if cb.Len() != 1 {
		t.Fatalf("shared codebook entries = %d, want 1", cb.Len())
	}
	if l1.NumTransitions() != 1 || l2.NumTransitions() != 1 {
		t.Fatal("transition counts wrong")
	}
}

func BenchmarkFromMatrix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := acl.NewMatrix(100000, 16)
	cur := bitset.New(16)
	for n := 0; n < 100000; n++ {
		if rng.Intn(50) == 0 {
			cur = bitset.New(16)
			for s := 0; s < 16; s++ {
				if rng.Intn(2) == 1 {
					cur.Set(s)
				}
			}
		}
		m.SetRow(xmltree.NodeID(n), cur)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromMatrix(m)
	}
}

func BenchmarkAccessLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := acl.NewMatrix(100000, 16)
	for n := 0; n < 100000; n++ {
		if rng.Intn(10) == 0 {
			m.Set(xmltree.NodeID(n), acl.SubjectID(rng.Intn(16)), true)
		}
	}
	l := FromMatrix(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Accessible(xmltree.NodeID(i%100000), acl.SubjectID(i%16))
	}
}
