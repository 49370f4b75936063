package pathsum

import (
	"testing"
)

// feed streams a small two-block document into a fresh builder:
//
//	<a><b><c/></b><b><c/></b></a>   block 1: a b c   block 2: b c
//
// Tags: a=0, b=1, c=2. Codes: everything 7 except the second c (9), so
// class a/b/c degrades to mixed while a and a/b stay uniform.
func feed(t *testing.T) *Summary {
	t.Helper()
	b := NewBuilder(0)
	b.Entry(0, 0, 7) // <a>
	b.Entry(1, 0, 7) // <b>
	b.Entry(2, 2, 7) // <c/></b>
	b.EndBlock()
	b.Entry(1, 0, 7) // <b>
	b.Entry(2, 3, 9) // <c/></b></a>
	b.EndBlock()
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuilderClassesAndBlocks(t *testing.T) {
	s := feed(t)
	if s.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3 (a, a/b, a/b/c)", s.NumNodes())
	}
	if s.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2", s.NumBlocks())
	}
	a, ok := s.ChildOf(-1, 0)
	if !ok {
		t.Fatal("class a missing")
	}
	ab, ok := s.ChildOf(a, 1)
	if !ok {
		t.Fatal("class a/b missing")
	}
	abc, ok := s.ChildOf(ab, 2)
	if !ok {
		t.Fatal("class a/b/c missing")
	}
	for _, tc := range []struct {
		id     int32
		parent int32
		depth  int32
	}{{a, -1, 0}, {ab, a, 1}, {abc, ab, 2}} {
		n := s.NodeAt(tc.id)
		if n.Parent != tc.parent || n.Depth != tc.depth {
			t.Errorf("class %d: parent %d depth %d, want %d/%d", tc.id, n.Parent, n.Depth, tc.parent, tc.depth)
		}
	}
	if kids := s.ChildrenOf(-1); len(kids) != 1 || kids[0] != a {
		t.Errorf("ChildrenOf(root) = %v", kids)
	}
	if kids := s.ChildrenOf(ab); len(kids) != 1 || kids[0] != abc {
		t.Errorf("ChildrenOf(a/b) = %v", kids)
	}
	// Block 0 holds all three classes and starts in root context; block 1
	// holds only b and c and starts inside a.
	b0, b1 := s.Block(0), s.Block(1)
	if b0.Start != -1 || !b0.Has(a) || !b0.Has(ab) || !b0.Has(abc) {
		t.Errorf("block 0 wrong: start %d", b0.Start)
	}
	if b1.Start != a || b1.Has(a) || !b1.Has(ab) || !b1.Has(abc) {
		t.Errorf("block 1 wrong: start %d", b1.Start)
	}
}

func TestCodeModeDegradesOnly(t *testing.T) {
	s := feed(t)
	a, _ := s.ChildOf(-1, 0)
	ab, _ := s.ChildOf(a, 1)
	abc, _ := s.ChildOf(ab, 2)
	if n := s.NodeAt(a); n.Mode != CodeUniform || n.Code != 7 {
		t.Errorf("class a mode %d code %d, want uniform 7", n.Mode, n.Code)
	}
	if n := s.NodeAt(ab); n.Mode != CodeUniform || n.Code != 7 {
		t.Errorf("class a/b mode %d code %d, want uniform 7", n.Mode, n.Code)
	}
	if n := s.NodeAt(abc); n.Mode != CodeMixed {
		t.Errorf("class a/b/c mode %d, want mixed (saw codes 7 and 9)", n.Mode)
	}
}

func TestBuilderRejectsUnbalanced(t *testing.T) {
	b := NewBuilder(0)
	b.Entry(0, 2, 0) // closes more than is open
	b.EndBlock()
	if _, err := b.Finish(); err == nil {
		t.Fatal("over-closing entry not rejected")
	}
	b = NewBuilder(0)
	b.Entry(0, 0, 0)
	b.EndBlock()
	if _, err := b.Finish(); err == nil {
		t.Fatal("unclosed element not rejected")
	}
	b = NewBuilder(0)
	b.Entry(0, 1, 0)
	if _, err := b.Finish(); err == nil {
		t.Fatal("unsealed block not rejected")
	}
}

func TestRegionRewriteIdentitySplices(t *testing.T) {
	s := feed(t)
	r, err := s.BeginRewrite(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Entry(1, 0, 7)
	r.Entry(2, 3, 9)
	r.EndBlock()
	ns, ok := r.Finish()
	if !ok {
		t.Fatal("identity rewrite did not line up")
	}
	if err := ns.VerifyAgainst(s); err != nil {
		t.Fatalf("identity rewrite changed the summary: %v", err)
	}
	// The original is untouched (copy-on-write).
	if s.NumBlocks() != 2 || s.NumNodes() != 3 {
		t.Fatal("original summary mutated")
	}
}

func TestRegionRewriteAddsClass(t *testing.T) {
	s := feed(t)
	r, err := s.BeginRewrite(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Entry(1, 0, 7)
	r.Entry(3, 1, 7) // new tag d under a/b: new class a/b/d
	r.Entry(2, 3, 9)
	r.EndBlock()
	ns, ok := r.Finish()
	if !ok {
		t.Fatal("rewrite did not line up")
	}
	if ns.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", ns.NumNodes())
	}
	a, _ := ns.ChildOf(-1, 0)
	ab, _ := ns.ChildOf(a, 1)
	abd, ok := ns.ChildOf(ab, 3)
	if !ok {
		t.Fatal("new class a/b/d missing")
	}
	if !ns.Block(1).Has(abd) || ns.Block(0).Has(abd) {
		t.Fatal("new class placed in the wrong block")
	}
	if _, ok := s.ChildOf(ab, 3); ok {
		t.Fatal("original summary gained the new class")
	}
}

func TestRegionRewriteContextMismatch(t *testing.T) {
	s := feed(t)
	r, err := s.BeginRewrite(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Close everything: block 1 expects to start inside a, so the exit
	// context no longer lines up and the caller must rebuild.
	r.Entry(0, 1, 7)
	r.EndBlock()
	if _, ok := r.Finish(); ok {
		t.Fatal("context mismatch not detected")
	}
	if _, err := s.BeginRewrite(1, 2); err == nil {
		t.Fatal("out-of-range region accepted")
	}
}

func TestVerifyAgainstDetectsDrift(t *testing.T) {
	s := feed(t)
	fresh := feed(t)
	if err := s.VerifyAgainst(fresh); err != nil {
		t.Fatalf("identical summaries do not verify: %v", err)
	}
	// A uniform claim the storage contradicts.
	a, _ := s.ChildOf(-1, 0)
	s.nodes[a].Code = 99
	if err := s.VerifyAgainst(fresh); err == nil {
		t.Fatal("wrong uniform code not detected")
	}
	s.nodes[a].Code = 7
	// Block-count drift.
	one := NewBuilder(0)
	one.Entry(0, 1, 7)
	one.EndBlock()
	os, err := one.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyAgainst(os); err == nil {
		t.Fatal("block-count drift not detected")
	}
}

func TestMetaRoundTrip(t *testing.T) {
	s := feed(t)
	m := s.ToMeta()
	got, err := FromMeta(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.VerifyAgainst(s); err != nil {
		t.Fatalf("round-tripped summary drifted: %v", err)
	}
	if err := s.VerifyAgainst(got); err != nil {
		t.Fatalf("round-tripped summary drifted (reverse): %v", err)
	}
	// Validation: a forward parent reference must be rejected.
	bad := s.ToMeta()
	bad.Parents[0] = 5
	if _, err := FromMeta(bad); err == nil {
		t.Fatal("forward parent accepted")
	}
	bad = s.ToMeta()
	bad.Blocks[0].Start = 99
	if _, err := FromMeta(bad); err == nil {
		t.Fatal("out-of-range block start accepted")
	}
	bad = s.ToMeta()
	bad.Modes = bad.Modes[:1]
	if _, err := FromMeta(bad); err == nil {
		t.Fatal("column length mismatch accepted")
	}
}
