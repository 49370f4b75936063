package synthacl

import (
	"math"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/dol"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
)

func testDoc(t testing.TB) *xmltree.Document {
	t.Helper()
	return xmark.Generate(xmark.Scaled(99, 8000))
}

func TestSyntheticDeterministic(t *testing.T) {
	doc := testDoc(t)
	cfg := SynthConfig{Seed: 1, PropagationRatio: 0.1, AccessibilityRatio: 0.5}
	a := Synthetic(doc, cfg)
	b := Synthetic(doc, cfg)
	if !a.Equal(b) {
		t.Fatal("non-deterministic synthetic labeling")
	}
}

func TestSyntheticAccessibilityTracksRatio(t *testing.T) {
	doc := testDoc(t)
	for _, ratio := range []float64{0.1, 0.5, 0.9} {
		acc := Synthetic(doc, SynthConfig{Seed: 7, PropagationRatio: 0.3, AccessibilityRatio: ratio})
		got := float64(acc.Count()) / float64(doc.Len())
		if math.Abs(got-ratio) > 0.15 {
			t.Errorf("ratio %.1f: accessible fraction %.3f too far off", ratio, got)
		}
	}
}

func TestSyntheticLocalityCompresses(t *testing.T) {
	// Structural locality must make DOL far smaller than worst case: the
	// number of transitions should be a small multiple of the seed count,
	// not of the node count.
	doc := testDoc(t)
	cfg := SynthConfig{Seed: 3, PropagationRatio: 0.05, AccessibilityRatio: 0.5}
	acc := Synthetic(doc, cfg)
	lab := dol.FromAccessibleSet(acc, doc.Len())
	seeds := int(float64(doc.Len()) * cfg.PropagationRatio)
	if lab.NumTransitions() > 4*seeds {
		t.Errorf("transitions %d should be near seed count %d", lab.NumTransitions(), seeds)
	}
}

func TestSyntheticExtremes(t *testing.T) {
	doc := testDoc(t)
	all := Synthetic(doc, SynthConfig{Seed: 5, PropagationRatio: 0.2, AccessibilityRatio: 1.0})
	if all.Count() != doc.Len() {
		t.Errorf("ratio 1.0: %d of %d accessible", all.Count(), doc.Len())
	}
	none := Synthetic(doc, SynthConfig{Seed: 5, PropagationRatio: 0.2, AccessibilityRatio: 0.0})
	if none.Count() != 0 {
		t.Errorf("ratio 0.0: %d accessible", none.Count())
	}
}

func smallLiveLink(seed int64) LiveLinkConfig {
	return LiveLinkConfig{
		Seed:          seed,
		Folders:       3000,
		Departments:   4,
		GroupsPerDept: 3,
		UsersPerGroup: 5,
		Modes:         3,
		UserNoise:     0.3,
		CrossDept:     0.1,
	}
}

func TestLiveLinkShape(t *testing.T) {
	data := LiveLink(smallLiveLink(1))
	doc := data.Doc
	if doc.MaxDepth() > 20 {
		t.Errorf("max depth %d exceeds the real system's 19 (+root)", doc.MaxDepth())
	}
	levels := 0
	for n := 0; n < doc.Len(); n++ {
		levels += doc.Level(xmltree.NodeID(n))
	}
	avg := float64(levels) / float64(doc.Len())
	if avg < 4 || avg > 12 {
		t.Errorf("avg depth %.2f far from the real system's 7.9", avg)
	}
	if len(data.Matrices) != 3 {
		t.Fatalf("modes = %d", len(data.Matrices))
	}
	wantSubjects := 4*3 + 4*3*5
	if data.Dir.Len() != wantSubjects {
		t.Fatalf("subjects = %d, want %d", data.Dir.Len(), wantSubjects)
	}
}

func TestLiveLinkUsersCorrelateWithGroups(t *testing.T) {
	data := LiveLink(smallLiveLink(2))
	m := data.Matrices[0]
	doc := data.Doc
	// A user's rights should mostly agree with their group's: measure
	// disagreement over all users.
	var agree, total int
	for _, u := range data.Users {
		g, ok := data.Dir.Lookup(groupNameOf(data.Dir.Name(u)))
		if !ok {
			t.Fatalf("cannot find group for %s", data.Dir.Name(u))
		}
		for n := 0; n < doc.Len(); n += 7 {
			if m.Accessible(xmltree.NodeID(n), u) == m.Accessible(xmltree.NodeID(n), g) {
				agree++
			}
			total++
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.9 {
		t.Errorf("user/group agreement %.3f; correlation too weak for the paper's regime", frac)
	}
}

// groupNameOf strips the "-userN" suffix.
func groupNameOf(userName string) string {
	for i := len(userName) - 1; i >= 0; i-- {
		if userName[i] == '-' {
			return userName[:i]
		}
	}
	return userName
}

func TestLiveLinkCodebookSublinear(t *testing.T) {
	// The headline property: codebook entries grow much slower than
	// 2^subjects, and transitions grow sublinearly in subjects.
	data := LiveLink(smallLiveLink(3))
	lab := dol.FromMatrix(data.Matrices[0])
	subjects := data.Dir.Len()
	entries := lab.Codebook().Len()
	if entries > data.Doc.Len()/4 {
		t.Errorf("codebook entries %d too close to node count %d", entries, data.Doc.Len())
	}
	if entries >= subjects*subjects {
		t.Errorf("codebook entries %d not sublinear-ish (subjects %d)", entries, subjects)
	}
	// Transition density below the paper's observed 1-in-10.
	if density := float64(lab.NumTransitions()) / float64(data.Doc.Len()); density > 0.5 {
		t.Errorf("transition density %.3f too high", density)
	}
}

func TestUnixFSShape(t *testing.T) {
	data := UnixFS(UnixFSConfig{Seed: 1, Files: 5000, Users: 20, Groups: 8})
	if data.Doc.Len() < 4000 || data.Doc.Len() > 7000 {
		t.Errorf("file count %d far from target 5000", data.Doc.Len())
	}
	if data.Dir.Len() != 28 {
		t.Fatalf("subjects = %d, want 28", data.Dir.Len())
	}
	for _, tag := range []string{"fs", "home", "userdir", "proj", "projdir", "usr", "file"} {
		if len(data.Doc.NodesWithTag(tag)) == 0 {
			t.Errorf("missing %q entries", tag)
		}
	}
}

func TestUnixFSSemantics(t *testing.T) {
	data := UnixFS(UnixFSConfig{Seed: 2, Files: 3000, Users: 10, Groups: 4})
	doc := data.Doc
	read := data.Matrices[UnixRead]
	write := data.Matrices[UnixWrite]

	// The root of the tree is 755: world readable, not world writable.
	for _, u := range data.Users {
		if !read.Accessible(0, u) {
			t.Fatalf("user %s cannot read the 755 root", data.Dir.Name(u))
		}
	}
	u1 := data.Users[1]
	if write.Accessible(0, u1) {
		t.Fatal("non-owner can write the 755 root")
	}

	// Each user's home directory is readable by its owner.
	userdirs := doc.NodesWithTag("userdir")
	if len(userdirs) != 10 {
		t.Fatalf("userdirs = %d", len(userdirs))
	}
	for i, ud := range userdirs {
		if !read.Accessible(ud, data.Users[i]) {
			t.Errorf("user %d cannot read own home", i)
		}
	}
}

func TestUnixFSOwnershipLocalityCompresses(t *testing.T) {
	data := UnixFS(UnixFSConfig{Seed: 3, Files: 8000, Users: 20, Groups: 8})
	lab := dol.FromMatrix(data.Matrices[UnixRead])
	// Ownership locality: transitions far below node count; the paper
	// observed density under 1 in 10 for all subjects.
	if density := float64(lab.NumTransitions()) / float64(data.Doc.Len()); density > 0.6 {
		t.Errorf("transition density %.3f too high for ownership-local data", density)
	}
	if lab.Codebook().Len() > 4000 {
		t.Errorf("codebook entries %d; expected strong correlation", lab.Codebook().Len())
	}
}

func TestGeneratorsProduceValidMatrices(t *testing.T) {
	data := LiveLink(smallLiveLink(4))
	for mode, m := range data.Matrices {
		if m.NumNodes() != data.Doc.Len() || m.NumSubjects() != data.Dir.Len() {
			t.Fatalf("mode %d: matrix %dx%d vs doc %d subjects %d",
				mode, m.NumNodes(), m.NumSubjects(), data.Doc.Len(), data.Dir.Len())
		}
	}
	// Round trip through DOL must be lossless.
	fs := UnixFS(UnixFSConfig{Seed: 5, Files: 2000, Users: 8, Groups: 3})
	for name, m := range map[string]*acl.Matrix{"LiveLink": data.Matrices[0], "UnixFS": fs.Matrices[UnixRead]} {
		lab := dol.FromMatrix(m)
		for n := xmltree.NodeID(0); int(n) < m.NumNodes(); n++ {
			if !lab.Codebook().ACL(lab.CodeInForce(n)).EqualBits(m.Row(n)) {
				t.Fatalf("%s matrix does not round trip through DOL at node %d", name, n)
			}
		}
	}
}

func TestEffectiveSubjectsUnion(t *testing.T) {
	// A user plus their groups should see at least what the user alone
	// sees, matching paper footnote 4.
	data := LiveLink(smallLiveLink(6))
	m := data.Matrices[0]
	u := data.Users[0]
	eff := data.Dir.EffectiveSubjects(u)
	aloneCount, unionCount := 0, 0
	for n := 0; n < data.Doc.Len(); n++ {
		if m.Accessible(xmltree.NodeID(n), u) {
			aloneCount++
		}
		if m.AccessibleAny(xmltree.NodeID(n), eff) {
			unionCount++
		}
	}
	if unionCount < aloneCount {
		t.Fatalf("union %d < alone %d", unionCount, aloneCount)
	}
}

func checkSubjectID(t *testing.T, s acl.SubjectID) {
	t.Helper()
	if s == acl.InvalidSubject {
		t.Fatal("invalid subject id")
	}
}

func TestSubjectIDsValid(t *testing.T) {
	data := LiveLink(smallLiveLink(7))
	for _, s := range append(append([]acl.SubjectID{}, data.Groups...), data.Users...) {
		checkSubjectID(t, s)
	}
}

func BenchmarkLiveLink(b *testing.B) {
	cfg := smallLiveLink(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LiveLink(cfg)
	}
}

func BenchmarkSynthetic(b *testing.B) {
	doc := xmark.Generate(xmark.Scaled(1, 50000))
	cfg := SynthConfig{Seed: 1, PropagationRatio: 0.3, AccessibilityRatio: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Synthetic(doc, cfg)
	}
}
