package dol

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

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
	if err := l.validate(); err != nil {
		t.Fatal(err)
	}
	// Runs: [a,b] [c,d] [e,f,g] [h,i] [j,k,l] -> 5 transitions.
	if got := l.NumTransitions(); got != 5 {
		t.Fatalf("NumTransitions = %d, want 5", got)
	}
	// Distinct ACLs: {0,1}, {0}, {} -> 3 codebook entries (paper: "only
	// three of the four possible distinct access control lists").
	if got := l.Codebook().Len(); got != 3 {
		t.Fatalf("codebook entries = %d, want 3", got)
	}
	nodes, _ := l.Transitions()
	want := []xmltree.NodeID{0, 2, 4, 7, 9}
	for i, n := range want {
		if nodes[i] != n {
			t.Fatalf("transitions at %v, want %v", nodes, want)
		}
	}
}

func TestLabelingRoundTrip(t *testing.T) {
	m := figure1Matrix()
	l := FromMatrix(m)
	if !l.Matrix().Equal(m) {
		t.Fatal("Matrix round trip mismatch")
	}
	for n := xmltree.NodeID(0); n < 12; n++ {
		for s := acl.SubjectID(0); s < 2; s++ {
			if l.Accessible(n, s) != m.Accessible(n, s) {
				t.Fatalf("Accessible(%d,%d) mismatch", n, s)
			}
		}
	}
}

func TestLabelingAccessibleAny(t *testing.T) {
	m := figure1Matrix()
	l := FromMatrix(m)
	eff := bitset.FromIndices(2, 1) // only subject 1
	if !l.AccessibleAny(0, eff) {
		t.Fatal("node a accessible to subject 1")
	}
	if l.AccessibleAny(2, eff) {
		t.Fatal("node c not accessible to subject 1")
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

func TestSetNodeAccessProposition1(t *testing.T) {
	l, md := FromMatrix(figure1Matrix()), xmlmodel.New(fig2doc(t), figure1Matrix())
	before := l.NumTransitions()
	// Grant subject 1 access to node e (index 4), splitting the [e,f,g] run.
	l.SetNodeAccess(4, 1, true)
	md.SetAccess(4, 1, true, false)
	checkLabeling(t, "grant", l, md)
	if got := l.NumTransitions(); got > before+2 {
		t.Fatalf("Proposition 1 violated: %d -> %d", before, got)
	}
}

func TestSetNodeAccessNoOp(t *testing.T) {
	m := figure1Matrix()
	l := FromMatrix(m)
	before := l.NumTransitions()
	l.SetNodeAccess(0, 0, true) // already accessible
	if l.NumTransitions() != before {
		t.Fatal("no-op update changed transitions")
	}
	if !l.Matrix().Equal(m) {
		t.Fatal("no-op update changed matrix")
	}
}

func TestSetRangeAccessMergesRuns(t *testing.T) {
	m := figure1Matrix()
	l := FromMatrix(m)
	// Make nodes c,d match a,b: revoke nothing, grant subject 1 on [2,3].
	l.SetRangeAccess(2, 3, 1, true)
	if err := l.validate(); err != nil {
		t.Fatal(err)
	}
	// Runs now: [a..d] [e,f,g] [h,i] [j,k,l] -> 4 transitions.
	if got := l.NumTransitions(); got != 4 {
		t.Fatalf("NumTransitions = %d, want 4", got)
	}
}

func TestSetRangeAccessWholeDocument(t *testing.T) {
	m := figure1Matrix()
	l := FromMatrix(m)
	l.SetRangeACL(0, 11, func(*bitset.Bitset) *bitset.Bitset {
		return bitset.FromIndices(2, 0, 1)
	})
	if err := l.validate(); err != nil {
		t.Fatal(err)
	}
	if l.NumTransitions() != 1 {
		t.Fatalf("uniform document should have 1 transition, got %d", l.NumTransitions())
	}
	for n := xmltree.NodeID(0); n < 12; n++ {
		if !l.Accessible(n, 0) || !l.Accessible(n, 1) {
			t.Fatal("grant-all failed")
		}
	}
}

func TestInsertRange(t *testing.T) {
	l, md := FromMatrix(figure1Matrix()), xmlmodel.New(fig2doc(t), figure1Matrix())
	// Fragment of 3 nodes, all accessible to subject 0 only, after d: before
	// old node e.
	frag := xmltree.MustParseString(`<x><y/><z/></x>`)
	fm := acl.NewMatrix(3, 2)
	for n := 0; n < 3; n++ {
		fm.Set(xmltree.NodeID(n), 0, true)
	}
	fl := FromMatrix(fm)
	beforeL, beforeF := l.NumTransitions(), fl.NumTransitions()
	l.InsertRange(4, fl)
	md.Insert(0, 3, frag, fm)
	checkLabeling(t, "insert", l, md)
	if got := l.NumTransitions(); got > beforeL+beforeF+2 {
		t.Fatalf("insert transition growth: %d -> %d", beforeL, got)
	}
}

func TestInsertRangeAtEnds(t *testing.T) {
	m := figure1Matrix()
	fm := acl.NewMatrix(2, 2)
	fm.Set(0, 1, true)
	fm.Set(1, 1, true)

	head := FromMatrix(m)
	head.InsertRange(0, FromMatrix(fm))
	if err := head.validate(); err != nil {
		t.Fatal(err)
	}
	if !head.Accessible(0, 1) || head.Accessible(0, 0) {
		t.Fatal("prefix insert ACL wrong")
	}
	if head.Accessible(2, 1) != figure1Matrix().Accessible(0, 1) {
		t.Fatal("shifted node ACL wrong")
	}

	tail := FromMatrix(m)
	tail.InsertRange(12, FromMatrix(fm))
	if err := tail.validate(); err != nil {
		t.Fatal(err)
	}
	if tail.NumNodes() != 14 || !tail.Accessible(13, 1) {
		t.Fatal("suffix insert wrong")
	}
}

func TestDeleteRange(t *testing.T) {
	m := figure1Matrix()
	l := FromMatrix(m)
	l.DeleteRange(4, 6) // remove the e,f,g run entirely
	if err := l.validate(); err != nil {
		t.Fatal(err)
	}
	if l.NumNodes() != 9 {
		t.Fatalf("NumNodes = %d", l.NumNodes())
	}
	want := acl.NewMatrix(9, 2)
	for n := 0; n < 4; n++ {
		want.SetRow(xmltree.NodeID(n), m.Row(xmltree.NodeID(n)))
	}
	for n := 7; n < 12; n++ {
		want.SetRow(xmltree.NodeID(n-3), m.Row(xmltree.NodeID(n)))
	}
	if !l.Matrix().Equal(want) {
		t.Fatal("matrix mismatch after DeleteRange")
	}
}

func TestDeleteRangePrefixAndAll(t *testing.T) {
	m := figure1Matrix()
	l := FromMatrix(m)
	l.DeleteRange(0, 3)
	if err := l.validate(); err != nil {
		t.Fatal(err)
	}
	if l.NumNodes() != 8 || l.Accessible(0, 0) {
		t.Fatal("prefix delete wrong")
	}

	l2 := FromMatrix(figure1Matrix())
	l2.DeleteRange(0, 11)
	if l2.NumNodes() != 0 || l2.NumTransitions() != 0 {
		t.Fatal("full delete should empty the labeling")
	}
}

func TestCloneIndependence(t *testing.T) {
	l := FromMatrix(figure1Matrix())
	c := l.Clone()
	c.SetNodeAccess(5, 0, true)
	if l.Accessible(5, 0) {
		t.Fatal("Clone shares state")
	}
}

// checkLabeling verifies that l validates, keeps exact refcounts and holds
// md's rows.
func checkLabeling(t *testing.T, what string, l *Labeling, md *xmlmodel.Model) {
	t.Helper()
	if err := l.validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	checkRefs(t, l)
	if _, want := md.Flatten(); !l.Matrix().Equal(want) {
		t.Fatalf("%s: the labeling's rows differ from the model's", what)
	}
}

// checkRefs verifies the labeling's codebook refcounts equal its
// transition counts per code.
func checkRefs(t *testing.T, l *Labeling) {
	t.Helper()
	counts := map[Code]int{}
	_, codes := l.Transitions()
	for _, c := range codes {
		counts[c]++
	}
	for c, want := range counts {
		if got := l.cb.Refs(c); got != want {
			t.Fatalf("code %d refs = %d, want %d", c, got, want)
		}
	}
	if l.cb.Len() != len(counts) {
		t.Fatalf("codebook has %d live entries, labeling uses %d", l.cb.Len(), len(counts))
	}
}

// checkRows verifies that l validates, keeps exact refcounts, holds rows,
// and took at most two transitions more than before plus added, those of
// an inserted fragment (Proposition 1).
func checkRows(t *testing.T, what string, l *Labeling, rows []*bitset.Bitset, before, added int) {
	t.Helper()
	if err := l.validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	checkRefs(t, l)
	if l.NumNodes() != len(rows) {
		t.Fatalf("%s: %d rows, want %d", what, l.NumNodes(), len(rows))
	}
	for n, r := range rows {
		if !l.Codebook().ACL(l.CodeInForce(xmltree.NodeID(n))).EqualBits(r) {
			t.Fatalf("%s: row %d differs", what, n)
		}
	}
	if got := l.NumTransitions(); got > before+added+2 {
		t.Fatalf("%s: %d transitions after %d (+%d inserted)", what, got, before, added)
	}
}

// checkSplice checks, on a clone of l, the ranges a Delete or InsertRows
// draw does not reach: it deletes any range [lo, hi] of l, whose rows are
// the model's rows pre — every row one time in eight — and inserts a copy
// of up to ten of pre's rows at any position of what is left, 0 and an
// empty labeling included. The clone must hold pre's rows spliced the same
// way.
func checkSplice(t *testing.T, what string, rng *rand.Rand, l *Labeling, pre *acl.Matrix) {
	t.Helper()
	rows := make([]*bitset.Bitset, pre.NumNodes())
	for n := range rows {
		rows[n] = pre.Row(xmltree.NodeID(n))
	}
	c := l.Clone()
	lo, hi := 0, len(rows)-1
	if rng.Intn(8) != 0 {
		lo = rng.Intn(len(rows))
		hi = lo + rng.Intn(len(rows)-lo)
	}
	before := c.NumTransitions()
	c.DeleteRange(xmltree.NodeID(lo), xmltree.NodeID(hi))
	left := slices.Concat(rows[:lo], rows[hi+1:])
	checkRows(t, fmt.Sprintf("%s, delete [%d, %d] of %d", what, lo, hi, len(rows)), c, left, before, 0)

	a := rng.Intn(len(rows))
	b := a + rng.Intn(min(len(rows)-a, 10))
	fm := acl.NewMatrix(b-a+1, pre.NumSubjects())
	for n := a; n <= b; n++ {
		fm.SetRow(xmltree.NodeID(n-a), rows[n])
	}
	frag, at := FromMatrix(fm), rng.Intn(len(left)+1)
	before = c.NumTransitions()
	c.InsertRange(xmltree.NodeID(at), frag)
	checkRows(t, fmt.Sprintf("%s, insert %d rows at %d of %d", what, b-a+1, at, len(left)), c,
		slices.Concat(left[:at], rows[a:b+1], left[at:]), before, frag.NumTransitions())
}

// labelingRun applies, for each of 60 seeds, 25 operations of the kinds
// drawn on the model of a random document of up to 80 nodes to a labeling
// of the model's rows: a SetRange to its range, an InsertRows as a range of
// the fragment's rows at the fragment's position, a Delete as the range of
// the deleted subtree. After each the labeling validates, its refcounts are
// exact, it holds the model's rows, and it took at most two transitions
// more than before plus the fragment's (Proposition 1). Before each
// InsertRows or Delete, checkSplice deletes and inserts arbitrary ranges on
// a clone.
func labelingRun(t *testing.T, kinds ...xmlmodel.Kind) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := xmlmodel.Doc(rng, 1+rng.Intn(80), xmlmodel.Mixed)
		m := xmlmodel.ACL(rng, doc, 1+rng.Intn(5))
		md, l := xmlmodel.New(doc, m), FromMatrix(m)
		for step := 0; step < 25; step++ {
			pre, rows := md.Flatten()
			op := xmlmodel.Op(rng, md, kinds...)
			what := fmt.Sprintf("seed %d step %d %s", seed, step, op.Kind)
			if op.Kind == xmlmodel.InsertRows || op.Kind == xmlmodel.Delete {
				checkSplice(t, what, rng, l, rows)
			}
			before, added := l.NumTransitions(), 0
			switch op.Kind {
			case xmlmodel.SetRange:
				l.SetRangeAccess(op.Node, op.Hi, acl.SubjectID(op.Subject), op.Allowed)
			case xmlmodel.InsertRows:
				at := op.Parent + 1
				if op.After != xmltree.InvalidNode {
					at = pre.End(op.After) + 1
				}
				frag := FromMatrix(op.FragACL)
				added = frag.NumTransitions()
				l.InsertRange(at, frag)
			case xmlmodel.Delete:
				l.DeleteRange(op.Node, pre.End(op.Node))
			}
			checkLabeling(t, what, l, md)
			if got := l.NumTransitions(); got > before+added+2 {
				t.Fatalf("%s: %d transitions after %d (+%d inserted)", what, got, before, added)
			}
		}
	}
}

// Node and range access updates.
func TestLabelingUpdateProperty(t *testing.T) { labelingRun(t, xmlmodel.SetRange) }

// Inserted and deleted ranges.
func TestLabelingStructuralProperty(t *testing.T) {
	labelingRun(t, xmlmodel.InsertRows, xmlmodel.Delete)
}

// Refcounts stay exact across mixed updates.
func TestLabelingRefcountProperty(t *testing.T) {
	labelingRun(t, xmlmodel.SetRange, xmlmodel.InsertRows, xmlmodel.Delete)
}

func TestCheckRefsAfterBasicOps(t *testing.T) {
	l := FromMatrix(figure1Matrix())
	checkRefs(t, l)
	l.SetNodeAccess(4, 1, true)
	checkRefs(t, l)
	l.SetRangeAccess(0, 11, 0, false)
	checkRefs(t, l)
	l.DeleteRange(2, 5)
	checkRefs(t, l)
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

func TestLabelingMarshalRoundTrip(t *testing.T) {
	l := FromMatrix(figure1Matrix())
	data, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var re Labeling
	if err := re.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if re.NumNodes() != l.NumNodes() || re.NumTransitions() != l.NumTransitions() {
		t.Fatalf("dims differ: %d/%d vs %d/%d", re.NumNodes(), re.NumTransitions(), l.NumNodes(), l.NumTransitions())
	}
	if !re.Matrix().Equal(l.Matrix()) {
		t.Fatal("matrix differs after round trip")
	}
}

func TestLabelingUnmarshalErrors(t *testing.T) {
	var l Labeling
	if err := l.UnmarshalBinary(nil); err == nil {
		t.Fatal("empty input should fail")
	}
	if err := l.UnmarshalBinary([]byte{10, 200}); err == nil {
		t.Fatal("truncated input should fail")
	}
	// Valid labeling, then corrupt a code reference.
	src := FromMatrix(figure1Matrix())
	data, _ := src.MarshalBinary()
	data[len(data)-1] = 0xF7 // last code varint -> dead code
	if err := l.UnmarshalBinary(data); err == nil {
		t.Fatal("dead code reference should fail")
	}
}

// Property: marshal/unmarshal is the identity on random labelings.
func TestLabelingMarshalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numNodes := 1 + rng.Intn(100)
		numSubjects := 1 + rng.Intn(6)
		m := acl.NewMatrix(numNodes, numSubjects)
		for n := 0; n < numNodes; n++ {
			for s := 0; s < numSubjects; s++ {
				if rng.Intn(3) == 0 {
					m.Set(xmltree.NodeID(n), acl.SubjectID(s), true)
				}
			}
		}
		l := FromMatrix(m)
		data, err := l.MarshalBinary()
		if err != nil {
			return false
		}
		var re Labeling
		if err := re.UnmarshalBinary(data); err != nil {
			return false
		}
		return re.Matrix().Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
