package dol

import (
	"math/rand"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/nok"
	"dolxml/internal/storage"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

func fig2doc(t testing.TB) *xmltree.Document {
	t.Helper()
	return xmltree.MustParseString(
		`<a><b/><c/><d/><e><f/><g/><h><i/><j/><k/><l/></h></e></a>`)
}

func buildSecure(t testing.TB, doc *xmltree.Document, m *acl.Matrix, pageSize int) *SecureStore {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemPager(pageSize), 256)
	ss, err := BuildSecureStore(pool, doc, m, nok.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// checkStoreRefs verifies the physical refcount invariant:
// refs(code) = #(block headers with code) + #(inline entries with code).
func checkStoreRefs(t *testing.T, ss *SecureStore) {
	t.Helper()
	counts := map[Code]int{}
	st := ss.store
	for i := 0; i < st.NumPages(); i++ {
		counts[st.PageInfoAt(i).AccessCode]++
		entries, _, err := st.AppendEntries(nil, nil, i, 0, st.PageInfoAt(i).Count)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.HasCode {
				counts[e.Code]++
			}
		}
	}
	for c, want := range counts {
		if got := ss.cb.refs[c]; got != want {
			t.Fatalf("code %d: refs = %d, want %d", c, got, want)
		}
	}
	if got := ss.cb.Len(); got != len(counts) {
		t.Fatalf("codebook live entries = %d, blocks reference %d distinct codes", got, len(counts))
	}
}

func TestSecureStoreAccessible(t *testing.T) {
	doc := fig2doc(t)
	m := figure1Matrix()
	for _, pageSize := range []int{64, 96, 4096} {
		ss := buildSecure(t, doc, m, pageSize)
		for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
			for s := acl.SubjectID(0); s < 2; s++ {
				got, err := ss.Accessible(n, s)
				if err != nil {
					t.Fatal(err)
				}
				if got != m.Accessible(n, s) {
					t.Errorf("pageSize %d: Accessible(%d,%d) = %v", pageSize, n, s, got)
				}
			}
		}
		got, err := ss.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(m) {
			t.Fatalf("pageSize %d: Matrix round trip failed", pageSize)
		}
		checkStoreRefs(t, ss)
	}
}

func TestTransitionCountMatchesLabeling(t *testing.T) {
	doc := fig2doc(t)
	m := figure1Matrix()
	lab := FromMatrix(m)
	for _, pageSize := range []int{64, 4096} {
		ss := buildSecure(t, doc, m, pageSize)
		got, err := ss.TransitionCount()
		if err != nil {
			t.Fatal(err)
		}
		if got != lab.NumTransitions() {
			t.Errorf("pageSize %d: TransitionCount = %d, want %d", pageSize, got, lab.NumTransitions())
		}
	}
}

// TestPageFullyInaccessible checks a view's page-deny bitmap (§3.3 page
// skipping) against every node of every block, for an effective set and
// for a single subject: a block is skipped only when all its nodes are
// denied, and a wholly denied block whose change bit is clear is skipped.
func TestPageFullyInaccessible(t *testing.T) {
	b := xmltree.NewBuilder()
	b.Begin("root")
	for i := 0; i < 300; i++ {
		b.Element("x", "")
	}
	b.End()
	doc := b.MustFinish()
	// Subject 0 reaches the first and last 50 nodes, subject 1 [100, 150).
	m := acl.NewMatrix(doc.Len(), 2)
	for n := 0; n < doc.Len(); n++ {
		m.Set(xmltree.NodeID(n), 0, n < 50 || n > doc.Len()-50)
		m.Set(xmltree.NodeID(n), 1, n >= 100 && n < 150)
	}
	ss := buildSecure(t, doc, m, 128)
	st := ss.Store()
	if st.NumPages() < 4 {
		t.Fatalf("want multiple pages, got %d", st.NumPages())
	}
	for _, eff := range []*bitset.Bitset{bitset.FromIndices(2, 0, 1), bitset.FromIndices(2, 0)} {
		view := ss.View(eff)
		nskipped := 0
		for i := 0; i < st.NumPages(); i++ {
			skip := skipped(view, i)
			pi := st.PageInfoAt(i)
			allDenied := true
			for n := pi.FirstNode; n < pi.FirstNode+xmltree.NodeID(pi.Count); n++ {
				if m.Row(n).Intersects(eff) {
					allDenied = false
					break
				}
			}
			if skip && !allDenied {
				t.Fatalf("subjects %v: block %d skipped but has accessible nodes", eff, i)
			}
			// Conservative only when the change bit is set.
			if allDenied && !skip && !pi.ChangeBit {
				t.Fatalf("subjects %v: block %d wholly denied with a clear change bit but not skipped", eff, i)
			}
			if skip {
				nskipped++
			}
		}
		if nskipped == 0 {
			t.Fatalf("subjects %v: no block skipped; the workload should produce some", eff)
		}
	}
}

// TestViewSeesSplicedChangeBit: a view made before an update answers for
// the codebook after it. The grant below is spliced into a block that held
// no transition, and its new ACL is one the codebook already has: no code
// is interned or freed, yet the block's change bit flips. The revoke after
// it frees a code, and the next update interns another row into its slot.
// After each update every decision of the view — CodeAllowed, Accessible
// and PageDenyBits — is the one the current rows give (viewAgrees).
func TestViewSeesSplicedChangeBit(t *testing.T) {
	b := xmltree.NewBuilder()
	b.Begin("root")
	for i := 0; i < 300; i++ {
		b.Element("x", "")
	}
	b.End()
	doc := b.MustFinish()
	m := acl.NewMatrix(doc.Len(), 2)
	for n := 0; n < doc.Len(); n++ {
		m.Set(xmltree.NodeID(n), 1, true)
		m.Set(xmltree.NodeID(n), 0, n <= 50)
	}
	// Slack in every block, so that the grant is spliced, not laid out.
	ss, err := BuildSecureStore(storage.NewBufferPool(storage.NewMemPager(128), 256), doc, m, nok.BuildOptions{FillPercent: 90})
	if err != nil {
		t.Fatal(err)
	}
	st := ss.Store()
	view, eff := ss.ViewSubject(0), bitset.FromIndices(2, 0)
	i := st.NumPages() / 2
	if pi := st.PageInfoAt(i); pi.FirstNode <= 50 || pi.ChangeBit || !skipped(view, i) {
		t.Fatalf("block %d (%+v) is not a wholly denied block past the granted run", i, pi)
	}
	viewAgrees(t, ss, view, eff)
	n := st.PageInfoAt(i).FirstNode + 1
	if err := ss.SetNodeAccess(n, 0, true); err != nil {
		t.Fatal(err)
	}
	if !st.PageInfoAt(i).ChangeBit {
		t.Fatalf("granting node %d left block %d's change bit clear", n, i)
	}
	if skipped(view, i) {
		t.Fatalf("the view still skips block %d after node %d was granted", i, n)
	}
	viewAgrees(t, ss, view, eff)
	checkStoreRefs(t, ss)

	// Revoke subject 0 everywhere: the code granting it is freed, and a
	// dead code allows nothing.
	granted, err := st.AccessCodeAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.SetSubtreeAccess(0, 0, false); err != nil {
		t.Fatal(err)
	}
	if ss.cb.live(granted) || view.CodeAllowed(granted) {
		t.Fatalf("code %d is live or allowed after the revoke", granted)
	}
	viewAgrees(t, ss, view, eff)
	// Revoke subject 1 on one node: its row, now empty, takes the freed
	// slot, which the view allowed before.
	if err := ss.SetNodeAccess(n, 1, false); err != nil {
		t.Fatal(err)
	}
	if c, err := st.AccessCodeAt(n); err != nil || c != granted {
		t.Fatalf("node %d has code %d (%v), want the freed slot %d", n, c, err, granted)
	}
	viewAgrees(t, ss, view, eff)
	checkStoreRefs(t, ss)
}

// viewAgrees fails unless the view decides every live code, every node and
// every block as the current rows do for eff.
func viewAgrees(t *testing.T, ss *SecureStore, view *SubjectView, eff *bitset.Bitset) {
	t.Helper()
	cb, st := ss.Codebook(), ss.Store()
	for c := range cb.entries {
		if c := Code(c); cb.live(c) && view.CodeAllowed(c) != cb.ACL(c).Intersects(eff) {
			t.Fatalf("CodeAllowed(%d) = %v, row %v", c, view.CodeAllowed(c), cb.Row(c))
		}
	}
	for n := xmltree.NodeID(0); int(n) < st.NumNodes(); n++ {
		c, err := st.AccessCodeAt(n)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := view.Accessible(n); err != nil || ok != cb.ACL(c).Intersects(eff) {
			t.Fatalf("Accessible(%d) = %v (%v) under code %d, row %v", n, ok, err, c, cb.Row(c))
		}
	}
	for i := 0; i < st.NumPages(); i++ {
		pi := st.PageInfoAt(i)
		if want := !pi.ChangeBit && !cb.ACL(pi.AccessCode).Intersects(eff); skipped(view, i) != want {
			t.Fatalf("block %d (%+v): skipped %v, want %v", i, pi, !want, want)
		}
	}
}

// skipped reports whether bit i of the view's page-deny bitmap is set.
func skipped(v *SubjectView, i int) bool {
	return v.PageDenyBits()[i/64]&(1<<uint(i%64)) != 0
}

// fig2Model builds the Figure 2 store over the Figure 1 matrix at the page
// size beside its model.
func fig2Model(t *testing.T, pageSize int) (*SecureStore, *xmlmodel.Model) {
	t.Helper()
	return buildSecure(t, fig2doc(t), figure1Matrix(), pageSize), xmlmodel.New(fig2doc(t), figure1Matrix())
}

func TestSetNodeAccessPhysical(t *testing.T) {
	for _, pageSize := range []int{64, 4096} {
		ss, md := fig2Model(t, pageSize)
		if err := ss.SetNodeAccess(4, 1, true); err != nil {
			t.Fatal(err)
		}
		md.SetAccess(4, 1, true, false)
		verifyAgainstModel(t, ss, md)
	}
}

// Revoke subject 0 on subtree e (nodes 4..11).
func TestSetSubtreeAccessPhysical(t *testing.T) {
	ss, md := fig2Model(t, 64)
	if err := ss.SetSubtreeAccess(4, 0, false); err != nil {
		t.Fatal(err)
	}
	md.SetAccess(4, 0, false, true)
	verifyAgainstModel(t, ss, md)
}

func TestSetNodeAccessTransitionGrowth(t *testing.T) {
	doc := fig2doc(t)
	m := figure1Matrix()
	ss := buildSecure(t, doc, m, 4096)
	before, _ := ss.TransitionCount()
	if err := ss.SetNodeAccess(5, 0, true); err != nil {
		t.Fatal(err)
	}
	after, err := ss.TransitionCount()
	if err != nil {
		t.Fatal(err)
	}
	if after > before+2 {
		t.Fatalf("Proposition 1 violated physically: %d -> %d", before, after)
	}
}

// verifyAgainstModel checks structure, tags and ACLs of ss against the
// model.
func verifyAgainstModel(t *testing.T, ss *SecureStore, md *xmlmodel.Model) {
	t.Helper()
	wantDoc, wantM := md.Flatten()
	st := ss.Store()
	if st.NumNodes() != wantDoc.Len() {
		t.Fatalf("store has %d nodes, the model %d", st.NumNodes(), wantDoc.Len())
	}
	gotM, err := ss.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if !gotM.Equal(wantM) {
		t.Fatal("accessibility matrix differs from the model's")
	}
	for n := xmltree.NodeID(0); int(n) < wantDoc.Len(); n++ {
		tag, err := st.Tag(n)
		if err != nil {
			t.Fatal(err)
		}
		if st.TagName(tag) != wantDoc.Tag(n) {
			t.Fatalf("node %d tag %q, want %q", n, st.TagName(tag), wantDoc.Tag(n))
		}
		fc, err := st.FirstChild(n)
		if err != nil {
			t.Fatal(err)
		}
		if fc != wantDoc.FirstChild(n) {
			t.Fatalf("node %d FirstChild %d, want %d", n, fc, wantDoc.FirstChild(n))
		}
		fs, err := st.FollowingSibling(n)
		if err != nil {
			t.Fatal(err)
		}
		if fs != wantDoc.NextSibling(n) {
			t.Fatalf("node %d FollowingSibling %d, want %d", n, fs, wantDoc.NextSibling(n))
		}
	}
	checkStoreRefs(t, ss)
}

func TestDeleteSubtreePhysical(t *testing.T) {
	for _, victim := range []xmltree.NodeID{7 /* h */, 4 /* e */, 1 /* b */, 11 /* l */} {
		for _, pageSize := range []int{64, 4096} {
			ss, md := fig2Model(t, pageSize)
			if err := ss.DeleteSubtree(victim); err != nil {
				t.Fatal(err)
			}
			md.Delete(victim)
			verifyAgainstModel(t, ss, md)
		}
	}
}

func TestDeleteRootRejected(t *testing.T) {
	ss := buildSecure(t, fig2doc(t), figure1Matrix(), 4096)
	if err := ss.DeleteSubtree(0); err == nil {
		t.Fatal("deleting the root should fail")
	}
}

func fragment(t *testing.T, numSubjects int) (*xmltree.Document, *acl.Matrix) {
	t.Helper()
	frag := xmltree.MustParseString(`<new><n1/><n2><n3/></n2></new>`)
	fm := acl.NewMatrix(frag.Len(), numSubjects)
	for n := 0; n < frag.Len(); n++ {
		fm.Set(xmltree.NodeID(n), 0, true)
	}
	return frag, fm
}

func TestInsertSubtreePhysical(t *testing.T) {
	frag, fm := fragment(t, 2)
	cases := []struct {
		name   string
		parent xmltree.NodeID
		after  xmltree.NodeID
	}{
		{"first child of root", 0, xmltree.InvalidNode},
		{"after b", 0, 1},
		{"after e (last child)", 0, 4},
		{"first child of leaf f", 5, xmltree.InvalidNode},
		{"after l under h", 7, 11},
	}
	for _, tc := range cases {
		for _, pageSize := range []int{64, 4096} {
			ss, md := fig2Model(t, pageSize)
			if err := ss.InsertSubtree(tc.parent, tc.after, frag, fm); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			md.Insert(tc.parent, tc.after, frag, fm)
			verifyAgainstModel(t, ss, md)
		}
	}
}

func TestInsertSubtreeErrors(t *testing.T) {
	ss := buildSecure(t, fig2doc(t), figure1Matrix(), 4096)
	frag, fm := fragment(t, 2)
	if err := ss.InsertSubtree(99, xmltree.InvalidNode, frag, fm); err == nil {
		t.Fatal("invalid parent should fail")
	}
	badM := acl.NewMatrix(1, 2)
	if err := ss.InsertSubtree(0, xmltree.InvalidNode, frag, badM); err == nil {
		t.Fatal("mismatched matrix should fail")
	}
}

// MoveSubtree(n, parent, after) on <a><b/><c/><d/><e><f/><g/><h><i/><j/>
// <k/><l/></h></e></a> with the sibling after placed before n, past n's
// subtree — whose ID shifts by the moved range — and at the last child.
func TestMoveSubtreePhysical(t *testing.T) {
	for _, tc := range []struct {
		name             string
		n, parent, after xmltree.NodeID
	}{
		{"h first under the root", 7, 0, xmltree.InvalidNode},
		{"h under e after f, before h", 7, 4, 5},
		{"l under the root after b, before l", 11, 0, 1},
		{"b under e after h, past b", 1, 4, 7},
		{"c under the root after e, the last child", 2, 0, 4},
		{"f under h after l, its last child", 5, 7, 11},
	} {
		for _, pageSize := range []int{64, 4096} {
			ss, md := fig2Model(t, pageSize)
			if err := ss.MoveSubtree(tc.n, tc.parent, tc.after); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			md.Move(tc.n, tc.parent, tc.after)
			verifyAgainstModel(t, ss, md)
		}
	}
}

func TestMoveSubtreeIntoItselfRejected(t *testing.T) {
	ss := buildSecure(t, fig2doc(t), figure1Matrix(), 4096)
	if err := ss.MoveSubtree(4, 7, xmltree.InvalidNode); err == nil {
		t.Fatal("moving a subtree into itself should fail")
	}
}

func TestSubjectOpsPhysical(t *testing.T) {
	ss := buildSecure(t, fig2doc(t), figure1Matrix(), 4096)
	s := ss.AddSubject()
	ok, err := ss.Accessible(0, s)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("fresh subject should have no access")
	}
	s2, err := ss.AddSubjectLike(0)
	if err != nil {
		t.Fatal(err)
	}
	for n := xmltree.NodeID(0); n < 12; n++ {
		a0, _ := ss.Accessible(n, 0)
		a2, _ := ss.Accessible(n, s2)
		if a0 != a2 {
			t.Fatalf("clone subject differs at node %d", n)
		}
	}
}

// Property: random interleavings of accessibility and structural updates
// keep the physical store equivalent to the model, and no update adds more
// transitions than Proposition 1 allows its kind (prop1Bound).
func TestSecureStoreUpdateProperty(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := xmlmodel.Doc(rng, 10+rng.Intn(60), xmlmodel.Mixed)
		m := xmlmodel.ACL(rng, doc, 1+rng.Intn(3))
		ss := buildSecure(t, doc, m.Clone(), 64+rng.Intn(128))
		md := xmlmodel.New(doc, m)
		for step := 0; step < 12; step++ {
			before := transitionCount(t, ss)
			op := xmlmodel.Op(rng, md, xmlmodel.SetAccess, xmlmodel.SetRange, xmlmodel.InsertRows, xmlmodel.Delete, xmlmodel.Move)
			if err := ApplyOp(ss, op); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if after, bound := transitionCount(t, ss), prop1Bound(op); after > before+bound {
				t.Fatalf("seed %d step %d %s: %d transitions after %d, at most +%d allowed", seed, step, op.Kind, after, before, bound)
			}
		}
		if err := ss.Store().CheckConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		verifyAgainstModel(t, ss, md)
	}
}

// prop1Bound is the most transitions op may add to a store (Proposition 1,
// DESIGN.md §4): two for an access update; for an insert one more than the
// fragment's own, whose first node is one of the two; none for a delete;
// three for a move, a delete and an insert of the subtree's own.
func prop1Bound(op xmlmodel.Operation) int {
	switch op.Kind {
	case xmlmodel.Insert, xmlmodel.InsertRows:
		return 1 + FromMatrix(op.FragACL).NumTransitions()
	case xmlmodel.Delete:
		return 0
	case xmlmodel.Move:
		return 3
	}
	return 2
}

func transitionCount(t *testing.T, ss *SecureStore) int {
	t.Helper()
	n, err := ss.TransitionCount()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// ApplyOp applies an operation the model drew to ss.
func ApplyOp(ss *SecureStore, op xmlmodel.Operation) error {
	s := acl.SubjectID(op.Subject)
	switch op.Kind {
	case xmlmodel.SetAccess:
		if op.Subtree {
			return ss.SetSubtreeAccess(op.Node, s, op.Allowed)
		}
		return ss.SetNodeAccess(op.Node, s, op.Allowed)
	case xmlmodel.SetRange:
		return ss.SetRangeACL(op.Node, op.Hi, setBit(s, op.Allowed))
	case xmlmodel.AddUser:
		ss.AddSubject()
	case xmlmodel.AddUserLike:
		_, err := ss.AddSubjectLike(acl.SubjectID(op.Other))
		return err
	case xmlmodel.Insert, xmlmodel.InsertRows:
		return ss.InsertSubtree(op.Parent, op.After, op.Frag, op.FragACL)
	case xmlmodel.Delete:
		return ss.DeleteSubtree(op.Node)
	case xmlmodel.Move:
		return ss.MoveSubtree(op.Node, op.Parent, op.After)
	case xmlmodel.Vacuum:
		return ss.Vacuum()
	}
	return nil
}

func BenchmarkSetNodeAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	doc := xmlmodel.Doc(rng, 20000, xmlmodel.Mixed)
	m := acl.NewMatrix(doc.Len(), 8)
	for n := 0; n < doc.Len(); n++ {
		if rng.Intn(4) > 0 {
			m.Set(xmltree.NodeID(n), acl.SubjectID(rng.Intn(8)), true)
		}
	}
	pool := storage.NewBufferPool(storage.NewMemPager(4096), 512)
	ss, err := BuildSecureStore(pool, doc, m, nok.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := xmltree.NodeID(rng.Intn(doc.Len()))
		if err := ss.SetNodeAccess(n, acl.SubjectID(i%8), i%2 == 0); err != nil {
			b.Fatal(err)
		}
	}
}

// Vacuum leaves a store as a fresh build of its matrix: a revoke and a
// grant of one subject over a subtree that spans blocks on 64-byte pages,
// then Vacuum, keep every right and leave the fresh labeling's transitions
// and codebook entries.
func TestVacuumAfterRevokeAndGrant(t *testing.T) {
	doc := fig2doc(t)
	m := figure1Matrix()
	ss := buildSecure(t, doc, m, 64)
	for _, allowed := range []bool{false, true} {
		if err := ss.SetSubtreeAccess(4, 0, allowed); err != nil {
			t.Fatal(err)
		}
	}
	for n := 4; n < doc.Len(); n++ {
		m.Set(xmltree.NodeID(n), 0, true)
	}
	if err := ss.Vacuum(); err != nil {
		t.Fatal(err)
	}
	got, err := ss.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("Vacuum changed accessibility")
	}
	fresh := FromMatrix(m)
	if tr, err := ss.TransitionCount(); err != nil || tr != fresh.NumTransitions() || ss.Codebook().Len() != fresh.Codebook().Len() {
		t.Fatalf("after Vacuum: %d transitions, %d entries (%v); a fresh build has %d, %d",
			tr, ss.Codebook().Len(), err, fresh.NumTransitions(), fresh.Codebook().Len())
	}
	checkStoreRefs(t, ss)
}

func TestVacuumIdempotentOnCleanStore(t *testing.T) {
	doc := fig2doc(t)
	ss := buildSecure(t, doc, figure1Matrix(), 4096)
	before, _ := ss.TransitionCount()
	entriesBefore := ss.Codebook().Len()
	if err := ss.Vacuum(); err != nil {
		t.Fatal(err)
	}
	after, _ := ss.TransitionCount()
	if after != before || ss.Codebook().Len() != entriesBefore {
		t.Fatalf("Vacuum changed a clean store: %d->%d transitions", before, after)
	}
	checkStoreRefs(t, ss)
}

func TestReopenAfterPhysicalUpdates(t *testing.T) {
	// Region rewrites leave stale FirstNode fields inside later on-disk
	// block headers; Open must renumber from directory order + counts.
	doc := fig2doc(t)
	m := figure1Matrix()
	pool := storage.NewBufferPool(storage.NewMemPager(64), 256)
	ss, err := BuildSecureStore(pool, doc, m, nok.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frag := xmltree.MustParseString(`<x><y/></x>`)
	fm := acl.NewMatrix(2, 2)
	fm.Set(0, 0, true)
	fm.Set(1, 0, true)
	if err := ss.InsertSubtree(0, xmltree.InvalidNode, frag, fm); err != nil {
		t.Fatal(err)
	}
	if err := ss.DeleteSubtree(5); err != nil { // some node past the insert
		t.Fatal(err)
	}
	if err := ss.SetSubtreeAccess(3, 1, true); err != nil {
		t.Fatal(err)
	}
	wantMatrix, err := ss.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	meta := ss.Store().Meta()
	cbData, err := ss.Codebook().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	st2, err := nok.Open(pool, meta)
	if err != nil {
		t.Fatal(err)
	}
	cb2 := NewCodebook(0)
	if err := cb2.UnmarshalBinary(cbData); err != nil {
		t.Fatal(err)
	}
	ss2 := OpenSecureStore(st2, cb2)
	gotMatrix, err := ss2.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if !gotMatrix.Equal(wantMatrix) {
		t.Fatal("matrix differs after reopen following updates")
	}
	for n := xmltree.NodeID(0); int(n) < st2.NumNodes(); n++ {
		a, err1 := ss.Store().FollowingSibling(n)
		b, err2 := st2.FollowingSibling(n)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("navigation differs at node %d after reopen", n)
		}
	}
}
