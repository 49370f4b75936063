package acl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dolxml/internal/bitset"
	"dolxml/internal/xmltree"
)

func TestDirectoryBasics(t *testing.T) {
	d := NewDirectory()
	alice := d.MustAddUser("alice")
	devs := d.MustAddGroup("devs")
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Name(alice) != "alice" || d.Name(devs) != "devs" {
		t.Fatal("names wrong")
	}
	if d.isGroup[alice] || !d.isGroup[devs] {
		t.Fatal("isGroup wrong")
	}
	if s, ok := d.Lookup("alice"); !ok || s != alice {
		t.Fatal("Lookup failed")
	}
	if _, ok := d.Lookup("bob"); ok {
		t.Fatal("phantom subject")
	}
	if _, err := d.AddUser("alice"); err == nil {
		t.Fatal("duplicate name should fail")
	}
}

func TestMembershipAndEffectiveSubjects(t *testing.T) {
	d := NewDirectory()
	alice := d.MustAddUser("alice")
	devs := d.MustAddGroup("devs")
	staff := d.MustAddGroup("staff")
	other := d.MustAddGroup("other")
	if err := d.AddMember(devs, alice); err != nil {
		t.Fatal(err)
	}
	if err := d.AddMember(staff, devs); err != nil {
		t.Fatal(err)
	}
	eff := d.EffectiveSubjects(alice)
	for _, s := range []SubjectID{alice, devs, staff} {
		if !eff.Test(int(s)) {
			t.Errorf("effective subjects missing %s", d.Name(s))
		}
	}
	if eff.Test(int(other)) {
		t.Error("effective subjects should not include unrelated group")
	}
	if eff.Count() != 3 {
		t.Errorf("effective count = %d", eff.Count())
	}
}

func TestMembershipErrors(t *testing.T) {
	d := NewDirectory()
	alice := d.MustAddUser("alice")
	devs := d.MustAddGroup("devs")
	staff := d.MustAddGroup("staff")
	if err := d.AddMember(alice, devs); err == nil {
		t.Error("non-group container should fail")
	}
	if err := d.AddMember(devs, devs); err == nil {
		t.Error("self membership should fail")
	}
	if err := d.AddMember(devs, staff); err != nil {
		t.Fatal(err)
	}
	if err := d.AddMember(staff, devs); err == nil {
		t.Error("membership cycle should fail")
	}
	if err := d.AddMember(SubjectID(99), alice); err == nil {
		t.Error("invalid group id should fail")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(5, 3)
	if m.NumNodes() != 5 || m.NumSubjects() != 3 {
		t.Fatal("dimensions wrong")
	}
	m.Set(2, 1, true)
	if !m.Accessible(2, 1) || m.Accessible(2, 0) || m.Accessible(1, 1) {
		t.Fatal("Set/Accessible wrong")
	}
	m.Set(2, 1, false)
	if m.Accessible(2, 1) {
		t.Fatal("revoke failed")
	}
	m.Set(0, 0, true)
	m.Set(4, 0, true)
	col := m.Column(0)
	if col.Count() != 2 {
		t.Fatalf("subject 0 may access %d nodes", col.Count())
	}
	if !col.Test(0) || !col.Test(4) || col.Test(2) {
		t.Fatal("Column wrong")
	}
}

func TestMatrixAccessibleAny(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Set(1, 2, true) // group 2 can access node 1
	eff := bitset.FromIndices(4, 0, 2)
	if !m.AccessibleAny(1, eff) {
		t.Fatal("user with group 2 should access node 1")
	}
	if m.AccessibleAny(0, eff) {
		t.Fatal("node 0 should be inaccessible")
	}
	loner := bitset.FromIndices(4, 3)
	if m.AccessibleAny(1, loner) {
		t.Fatal("subject 3 should not access node 1")
	}
}

func TestMatrixSetRowAndEqual(t *testing.T) {
	m := NewMatrix(2, 3)
	row := bitset.FromIndices(3, 0, 2)
	m.SetRow(0, row)
	if !m.Accessible(0, 0) || m.Accessible(0, 1) || !m.Accessible(0, 2) {
		t.Fatal("SetRow wrong")
	}
	// Mutating the source must not affect the matrix.
	row.Set(1)
	if m.Accessible(0, 1) {
		t.Fatal("SetRow aliases caller's bitset")
	}

	n := NewMatrix(2, 3)
	n.SetRow(0, bitset.FromIndices(3, 0, 2))
	if !m.Equal(n) {
		t.Fatal("equal matrices not Equal")
	}
	n.Set(1, 1, true)
	if m.Equal(n) {
		t.Fatal("different matrices Equal")
	}
	if m.Equal(NewMatrix(3, 3)) || m.Equal(NewMatrix(2, 4)) {
		t.Fatal("dimension mismatch should not be Equal")
	}
}

// materialize fills the accessibility matrix of one mode from the policy's
// runs.
func materialize(p *Policy, doc *xmltree.Document, mode Mode, numSubjects int) (*Matrix, error) {
	m := NewMatrix(doc.Len(), numSubjects)
	err := p.Runs(doc, mode, numSubjects, func(first xmltree.NodeID, n int, row *bitset.Bitset) {
		for k := range n {
			m.SetRow(first+xmltree.NodeID(k), row)
		}
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// grant and revoke add a cascading permit and deny rule.
func grant(p *Policy, s SubjectID, mode Mode, target xmltree.NodeID) {
	p.Add(Rule{Subject: s, Mode: mode, Target: target, Effect: Permit, Cascade: true})
}

func revoke(p *Policy, s SubjectID, mode Mode, target xmltree.NodeID) {
	p.Add(Rule{Subject: s, Mode: mode, Target: target, Effect: Deny, Cascade: true})
}

// fig2doc is the 12-node tree of the paper's Figure 2.
func fig2doc(t testing.TB) *xmltree.Document {
	t.Helper()
	return xmltree.MustParseString(
		`<a><b/><c/><d/><e><f/><g/><h><i/><j/><k/><l/></h></e></a>`)
}

func TestMaterializeCascade(t *testing.T) {
	doc := fig2doc(t)
	p := NewPolicy()
	// Subject 0: permit everything under the root, deny the subtree at e.
	grant(p, 0, ModeRead, 0)
	revoke(p, 0, ModeRead, 4) // e
	m, err := materialize(p, doc, ModeRead, 1)
	if err != nil {
		t.Fatal(err)
	}
	// a b c d accessible; e..l not.
	for n := xmltree.NodeID(0); n < 4; n++ {
		if !m.Accessible(n, 0) {
			t.Errorf("node %d should be accessible", n)
		}
	}
	for n := xmltree.NodeID(4); n < 12; n++ {
		if m.Accessible(n, 0) {
			t.Errorf("node %d should be denied", n)
		}
	}
}

func TestMaterializeMostSpecificOverride(t *testing.T) {
	doc := fig2doc(t)
	p := NewPolicy()
	revoke(p, 0, ModeRead, 0) // deny all
	grant(p, 0, ModeRead, 4)  // permit subtree e
	revoke(p, 0, ModeRead, 7) // deny subtree h (inside e)
	grant(p, 0, ModeRead, 9)  // permit node j's subtree (leaf)
	m, err := materialize(p, doc, ModeRead, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[xmltree.NodeID]bool{
		0: false, 1: false, 2: false, 3: false,
		4: true, 5: true, 6: true,
		7: false, 8: false, 9: true, 10: false, 11: false,
	}
	for n, w := range want {
		if got := m.Accessible(n, 0); got != w {
			t.Errorf("node %d (%s): accessible = %v, want %v", n, doc.Tag(n), got, w)
		}
	}
}

func TestMaterializeNonCascadingLocalRule(t *testing.T) {
	doc := fig2doc(t)
	p := NewPolicy()
	grant(p, 0, ModeRead, 0)
	// Non-cascading deny on e only: descendants keep inherited permit.
	p.Add(Rule{Subject: 0, Mode: ModeRead, Target: 4, Effect: Deny, Cascade: false})
	m, err := materialize(p, doc, ModeRead, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accessible(4, 0) {
		t.Error("e itself should be denied")
	}
	if !m.Accessible(5, 0) || !m.Accessible(11, 0) {
		t.Error("e's descendants should remain accessible")
	}
}

func TestMaterializeConflictPolicies(t *testing.T) {
	doc := xmltree.MustParseString("<a/>")
	mk := func(cp ConflictPolicy) bool {
		p := NewPolicy()
		p.Conflicts = cp
		grant(p, 0, ModeRead, 0)
		revoke(p, 0, ModeRead, 0)
		m, err := materialize(p, doc, ModeRead, 1)
		if err != nil {
			t.Fatal(err)
		}
		return m.Accessible(0, 0)
	}
	if mk(DenyOverrides) {
		t.Error("DenyOverrides should deny")
	}
	if !mk(PermitOverrides) {
		t.Error("PermitOverrides should permit")
	}
	if mk(LastRuleWins) {
		t.Error("LastRuleWins should apply the final revoke")
	}
}

func TestMaterializeDefaults(t *testing.T) {
	doc := fig2doc(t)
	p := NewPolicy()
	m, err := materialize(p, doc, ModeRead, 2)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < doc.Len(); n++ {
		if m.Accessible(xmltree.NodeID(n), 0) || m.Accessible(xmltree.NodeID(n), 1) {
			t.Fatal("closed world should deny everything")
		}
	}
	p.DefaultEffect = Permit
	m, err = materialize(p, doc, ModeRead, 2)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < doc.Len(); n++ {
		if !m.Accessible(xmltree.NodeID(n), 1) {
			t.Fatal("open world should permit subjects without rules")
		}
	}
}

func TestMaterializeModeFiltering(t *testing.T) {
	doc := fig2doc(t)
	p := NewPolicy()
	grant(p, 0, ModeWrite, 0)
	m, err := materialize(p, doc, ModeRead, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accessible(0, 0) {
		t.Fatal("write rule must not grant read")
	}
	mw, err := materialize(p, doc, ModeWrite, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !mw.Accessible(11, 0) {
		t.Fatal("write rule should cascade for write mode")
	}
}

func TestMaterializeErrors(t *testing.T) {
	doc := fig2doc(t)
	p := NewPolicy()
	grant(p, 0, ModeRead, 99)
	if _, err := materialize(p, doc, ModeRead, 1); err == nil {
		t.Fatal("invalid target should fail")
	}
	p2 := NewPolicy()
	grant(p2, 5, ModeRead, 0)
	if _, err := materialize(p2, doc, ModeRead, 2); err == nil {
		t.Fatal("out-of-range subject should fail")
	}
}

func TestEffectString(t *testing.T) {
	if Permit.String() != "permit" || Deny.String() != "deny" {
		t.Fatal("Effect.String wrong")
	}
}

// Property: materialize with Most-Specific-Override matches a brute-force
// per-node nearest-labeled-ancestor computation on random trees and rules.
func TestMaterializeMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 2+rng.Intn(60))
		p := NewPolicy()
		p.Conflicts = LastRuleWins
		numRules := 1 + rng.Intn(8)
		for i := 0; i < numRules; i++ {
			p.Add(Rule{
				Subject: 0,
				Mode:    ModeRead,
				Target:  xmltree.NodeID(rng.Intn(doc.Len())),
				Effect:  Effect(rng.Intn(2)),
				Cascade: true,
			})
		}
		m, err := materialize(p, doc, ModeRead, 1)
		if err != nil {
			return false
		}
		// Brute force: nearest ancestor-or-self with a cascading rule,
		// last rule at that node wins.
		lastRule := map[xmltree.NodeID]Effect{}
		for _, r := range p.rules {
			lastRule[r.Target] = r.Effect
		}
		for n := 0; n < doc.Len(); n++ {
			want := Deny
			for a := xmltree.NodeID(n); a != xmltree.InvalidNode; a = doc.Parent(a) {
				if eff, ok := lastRule[a]; ok {
					want = eff
					break
				}
			}
			if m.Accessible(xmltree.NodeID(n), 0) != (want == Permit) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func randomDoc(rng *rand.Rand, n int) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Begin("r")
	open := 1
	for i := 1; i < n; i++ {
		for open > 1 && rng.Intn(3) == 0 {
			b.End()
			open--
		}
		b.Begin("x")
		open++
	}
	for ; open > 0; open-- {
		b.End()
	}
	return b.MustFinish()
}

func BenchmarkMaterialize(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	doc := randomDoc(rng, 10000)
	p := NewPolicy()
	for i := 0; i < 50; i++ {
		p.Add(Rule{
			Subject: SubjectID(i % 8),
			Mode:    ModeRead,
			Target:  xmltree.NodeID(rng.Intn(doc.Len())),
			Effect:  Effect(rng.Intn(2)),
			Cascade: true,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := materialize(p, doc, ModeRead, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDirectorySnapshotRoundTrip(t *testing.T) {
	d := NewDirectory()
	alice := d.MustAddUser("alice")
	devs := d.MustAddGroup("devs")
	staff := d.MustAddGroup("staff")
	d.AddMember(devs, alice)
	d.AddMember(staff, devs)
	snap := d.Snapshot()
	re, err := DirectoryFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != d.Len() {
		t.Fatalf("Len %d != %d", re.Len(), d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		s := SubjectID(i)
		if re.Name(s) != d.Name(s) || re.isGroup[s] != d.isGroup[s] {
			t.Fatalf("subject %d differs after round trip", i)
		}
	}
	if !re.EffectiveSubjects(alice).Equal(d.EffectiveSubjects(alice)) {
		t.Fatal("effective subjects differ after round trip")
	}
	// Mutating the snapshot must not affect the directory.
	snap.Names[0] = "mallory"
	if d.Name(alice) != "alice" {
		t.Fatal("Snapshot aliases directory state")
	}
}

func TestDirectoryFromSnapshotErrors(t *testing.T) {
	if _, err := DirectoryFromSnapshot(DirectorySnapshot{Names: []string{"a"}}); err == nil {
		t.Fatal("inconsistent lengths should fail")
	}
	bad := DirectorySnapshot{
		Names:    []string{"a", "a"},
		IsGroup:  []bool{false, false},
		MemberOf: [][]SubjectID{nil, nil},
	}
	if _, err := DirectoryFromSnapshot(bad); err == nil {
		t.Fatal("duplicate names should fail")
	}
}

func TestMatrixRowCloneSelect(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Set(1, 2, true)
	if !m.Row(1).Test(2) || m.Row(0).Test(2) {
		t.Fatal("Row wrong")
	}
	c := m.Clone()
	c.Set(0, 0, true)
	if m.Accessible(0, 0) {
		t.Fatal("Clone shares rows")
	}
	sub := m.SelectSubjects([]SubjectID{2, 0})
	if !sub.Accessible(1, 0) || sub.Accessible(1, 1) {
		t.Fatal("SelectSubjects projection wrong")
	}
	if sub.NumSubjects() != 2 {
		t.Fatalf("NumSubjects = %d", sub.NumSubjects())
	}
}
