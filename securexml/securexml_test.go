package securexml

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

const hospitalXML = `<hospital>
  <ward name="A">
    <patient id="p1"><name>Ann</name><diagnosis>flu</diagnosis><billing><amount>100</amount></billing></patient>
    <patient id="p2"><name>Bob</name><diagnosis>cold</diagnosis><billing><amount>50</amount></billing></patient>
  </ward>
  <ward name="B">
    <patient id="p3"><name>Cid</name><diagnosis>cough</diagnosis><billing><amount>75</amount></billing></patient>
  </ward>
  <pharmacy><drug>aspirin</drug></pharmacy>
</hospital>`

// hospitalStore builds the running example: doctors read everything
// medical, billing staff read billing, nurse alice reads ward A only.
func hospitalStore(t testing.TB, opts StoreOptions) *Store {
	t.Helper()
	b := NewBuilder().
		LoadXMLString(hospitalXML).
		AddGroup("doctors").
		AddGroup("billing-staff").
		AddUser("alice").
		AddUser("dave").
		AddUser("betty").
		AddMember("doctors", "dave").
		AddMember("billing-staff", "betty").
		Grant("doctors", "read", "/hospital").
		Revoke("doctors", "read", "//billing").
		Grant("billing-staff", "read", "//billing").
		Grant("billing-staff", "read", "/hospital"). // root context
		RevokeLocal("billing-staff", "read", "//patient").
		Revoke("billing-staff", "read", "//diagnosis").
		Grant("alice", "read", `/hospital/ward[@name='A']`).
		Grant("doctors", "write", "//diagnosis")
	s, err := b.Seal(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var hospitalQueries = []string{
	"//patient", "//patient/name", "//billing/amount", "//ward//diagnosis", "/hospital/pharmacy/drug",
	"//patient[name='Cid']/diagnosis", `/hospital/ward[@name='A']/patient`,
}

// hospitalModel is the hospital store, with 256-byte pages, beside its
// model, checked on the hospital queries.
func hospitalModel(t *testing.T) *modelStore {
	t.Helper()
	ms := watch(t, hospitalStore(t, StoreOptions{PageSize: 256}), xmltree.MustParseString(hospitalXML), StoreOptions{})
	ms.twigs = hospitalQueries
	return ms
}

// hospitalRun holds the hospital store to its model over ops operations of
// the kinds, drawn from seed.
func hospitalRun(t *testing.T, seed int64, ops int, kinds ...xmlmodel.Kind) {
	ms := hospitalModel(t)
	defer ms.close()
	rng := rand.New(rand.NewSource(seed))
	for op := 0; op < ops; op++ {
		ms.step(rng, fmt.Sprintf("op %d", op), kinds...)
	}
}

// A Limit is the facade's early stop: on a store of many pages, QueryCtx
// with Limit 1 returns one answer — one of the unlimited query's — and pins
// fewer pages than the unlimited query does. Neither leaves a page or an
// old snapshot version pinned.
func TestQueryCtxLimitStopsEarly(t *testing.T) {
	const q = "//listitem//keyword"
	s := snapStore(t, snapFixtureXML(t, 1600), StoreOptions{PageSize: 256})
	defer s.Close()
	ctx := context.Background()
	run := func(limit int) ([]Match, int64) {
		t.Helper()
		tr := NewQueryTrace()
		ms, err := s.QueryCtx(ctx, "u", "read", q, QueryOptions{Limit: limit, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		return ms, tr.PageReads()
	}
	all, allPins := run(0)
	if len(all) < 2 {
		t.Fatalf("u sees %d answers, need at least 2", len(all))
	}
	one, onePins := run(1)
	if len(one) != 1 || !slices.Contains(all, one[0]) {
		t.Fatalf("Limit 1 answered %v, not one of the unlimited query's %d answers", one, len(all))
	}
	if onePins >= allPins {
		t.Errorf("Limit 1 pinned %d pages, the unlimited query %d: want fewer", onePins, allPins)
	}
	if n := s.PoolPinned(); n != 0 {
		t.Errorf("%d frames pinned after the queries", n)
	}
	if live := s.MetricsSnapshot().Get("snapshot_versions_live"); live != 1 {
		t.Errorf("snapshot_versions_live = %d after the queries, want 1", live)
	}
}

// A context cancelled before the call makes QueryCtx return
// context.Canceled, with no page and no old snapshot version left pinned.
func TestQueryCtxCancelledBeforeCall(t *testing.T) {
	s := snapStore(t, snapFixtureXML(t, 1600), StoreOptions{PageSize: 256})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []QueryOptions{{}, {Pruned: true}, {Limit: 1}, {DisablePathSummary: true}} {
		if ms, err := s.QueryCtx(ctx, "u", "read", "//listitem//keyword", opts); !errors.Is(err, context.Canceled) {
			t.Errorf("%+v: QueryCtx on a cancelled context = %d answers, %v; want context.Canceled", opts, len(ms), err)
		}
	}
	if n := s.PoolPinned(); n != 0 {
		t.Errorf("%d frames pinned after the cancelled queries", n)
	}
	if live := s.MetricsSnapshot().Get("snapshot_versions_live"); live != 1 {
		t.Errorf("snapshot_versions_live = %d after the cancelled queries, want 1", live)
	}
}

// firstNode is the first node xpath selects, unrestricted.
func firstNode(t *testing.T, s *Store, xpath string) NodeID {
	t.Helper()
	ms, err := s.QueryUnrestricted(xpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatalf("no match for %s", xpath)
	}
	return ms[0].Node
}

func TestQueryPrunedSemantics(t *testing.T) {
	s := hospitalStore(t, StoreOptions{})
	defer s.Close()
	// Betty's view: patients themselves are revoked locally, so under the
	// bindings semantics amounts are reachable, and under pruned
	// semantics... the local (non-cascading) revoke keeps descendants
	// accessible but the patient node itself blocks root paths.
	bind, err := s.QueryCtx(context.Background(), "betty", "read", "//amount", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := s.QueryCtx(context.Background(), "betty", "read", "//amount", QueryOptions{Pruned: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(bind) != 3 {
		t.Fatalf("bindings amounts = %d", len(bind))
	}
	if len(pruned) != 0 {
		t.Fatalf("pruned amounts = %d; inaccessible patient on path should block", len(pruned))
	}
}

func TestErrorsSurface(t *testing.T) {
	if _, err := NewBuilder().Seal(StoreOptions{}); err == nil {
		t.Fatal("Seal without document should fail")
	}
	if _, err := NewBuilder().LoadXMLString("<broken").Seal(StoreOptions{}); err == nil {
		t.Fatal("bad XML should fail")
	}
	b := NewBuilder().LoadXMLString("<a/>").Grant("ghost", "read", "/a")
	if _, err := b.Seal(StoreOptions{}); err == nil {
		t.Fatal("rule with unknown subject should fail")
	}
	b2 := NewBuilder().LoadXMLString("<a/>").AddUser("u").Grant("u", "nosuchmode", "/a")
	if _, err := b2.Seal(StoreOptions{}); err == nil {
		t.Fatal("rule with unknown mode should fail")
	}

	s := hospitalStore(t, StoreOptions{})
	defer s.Close()
	if _, err := s.QueryCtx(context.Background(), "ghost", "read", "//patient", QueryOptions{}); err == nil {
		t.Fatal("unknown user should fail")
	}
	if _, err := s.QueryCtx(context.Background(), "dave", "nosuch", "//patient", QueryOptions{}); err == nil {
		t.Fatal("unknown mode should fail")
	}
	if _, err := s.QueryCtx(context.Background(), "dave", "read", "not an xpath", QueryOptions{}); err == nil {
		t.Fatal("bad xpath should fail")
	}
}

func TestAccessibleAndUserAccessible(t *testing.T) {
	s := hospitalStore(t, StoreOptions{})
	defer s.Close()
	pats, _ := s.QueryUnrestricted("//patient")
	p := pats[0].Node
	// dave's own subject has no direct rights; only via the doctors group.
	own, err := s.Accessible("dave", "read", p)
	if err != nil {
		t.Fatal(err)
	}
	if own {
		t.Fatal("dave's own subject should have no direct rights")
	}
	eff, err := s.UserAccessible("dave", "read", p)
	if err != nil {
		t.Fatal(err)
	}
	if !eff {
		t.Fatal("dave should access patients via the doctors group")
	}
}

// Grants and revokes on nodes and subtrees, for users and groups.
func TestSetAccessUpdates(t *testing.T) { hospitalRun(t, 1, 16, xmlmodel.SetAccess) }

func TestSubjectLifecycle(t *testing.T) {
	s := hospitalStore(t, StoreOptions{})
	defer s.Close()
	if err := s.AddUserLike("dave2", "dave"); err != nil {
		t.Fatal(err)
	}
	// dave2 clones dave's *own* (empty) rights, not his group rights.
	pats, _ := s.QueryCtx(context.Background(), "dave2", "read", "//patient", QueryOptions{})
	if len(pats) != 0 {
		t.Fatalf("dave2 sees %d patients without membership", len(pats))
	}
	if err := s.AddMember("doctors", "dave2"); err != nil {
		t.Fatal(err)
	}
	pats, _ = s.QueryCtx(context.Background(), "dave2", "read", "//patient", QueryOptions{})
	if len(pats) != 3 {
		t.Fatalf("dave2 sees %d patients with doctors membership", len(pats))
	}
	if err := s.AddUser("newbie"); err != nil {
		t.Fatal(err)
	}
	pats, _ = s.QueryCtx(context.Background(), "newbie", "read", "//patient", QueryOptions{})
	if len(pats) != 0 {
		t.Fatal("fresh user should see nothing")
	}
	if err := s.AddGroup("auditors"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddUser("newbie"); err == nil {
		t.Fatal("duplicate user should fail")
	}
}

// Inserted fragments take their parent's access; deleted and moved
// subtrees take theirs along.
func TestStructuralUpdates(t *testing.T) {
	hospitalRun(t, 2, 16, xmlmodel.Insert, xmlmodel.Delete, xmlmodel.Move, xmlmodel.SetAccess)
}

func TestStatsAndMetadata(t *testing.T) {
	s := hospitalStore(t, StoreOptions{})
	defer s.Close()
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes == 0 || st.StructurePages == 0 || st.Transitions == 0 || st.CodebookEntries == 0 {
		t.Fatalf("stats look empty: %+v", st)
	}
	modes := s.Modes()
	if len(modes) != 2 || modes[0] != "read" {
		t.Fatalf("modes = %v", modes)
	}
	subs := s.Subjects()
	if len(subs) != 5 {
		t.Fatalf("subjects = %v", subs)
	}
	if v, err := s.Value(0); err != nil || v != "" {
		t.Fatalf("root value = %q (%v)", v, err)
	}
	if tag, err := s.Tag(0); err != nil || tag != "hospital" {
		t.Fatalf("root tag = %q (%v)", tag, err)
	}
}

// Updates, subjects and values survive Save and Open.
func TestSaveAndOpen(t *testing.T) {
	hospitalRun(t, 3, 12, xmlmodel.SetAccess, xmlmodel.AddUserLike, xmlmodel.AddMember, xmlmodel.Reopen)
}

func TestSealFileBacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s := hospitalStore(t, StoreOptions{Path: path})
	defer s.Close()
	pats, err := s.QueryCtx(context.Background(), "dave", "read", "//patient", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) != 3 {
		t.Fatalf("file-backed store: %d patients", len(pats))
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(t.TempDir(), StoreOptions{}); err == nil {
		t.Fatal("open of empty dir should fail")
	}
}

func TestBuilderChainErrors(t *testing.T) {
	b := NewBuilder().AddUser("u").AddUser("u") // duplicate
	if _, err := b.LoadXMLString("<a/>").Seal(StoreOptions{}); err == nil {
		t.Fatal("duplicate user should surface at Seal")
	}
	b2 := NewBuilder().LoadXMLString("<a/>").AddMember("nogroup", "nouser")
	if _, err := b2.Seal(StoreOptions{}); err == nil {
		t.Fatal("bad membership should surface at Seal")
	}
}

func TestAttributePredicate(t *testing.T) {
	s := hospitalStore(t, StoreOptions{})
	defer s.Close()
	// Attribute nodes are child nodes tagged @name; the alice rule used
	// /hospital/ward[@name='A'].
	ws, err := s.QueryUnrestricted(`/hospital/ward[@name='A']`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 {
		t.Fatalf("ward A matches = %d", len(ws))
	}
}

func TestModesIsolation(t *testing.T) {
	s := hospitalStore(t, StoreOptions{})
	defer s.Close()
	// Granting read must not grant write: check via the raw matrix-free
	// interface.
	pats, _ := s.QueryUnrestricted("//patient")
	rd, _ := s.UserAccessible("alice", "read", pats[0].Node)
	wr, _ := s.UserAccessible("alice", "write", pats[0].Node)
	if !rd || wr {
		t.Fatalf("mode isolation broken: read=%v write=%v", rd, wr)
	}
}

func TestLargeDocumentThroughFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("large facade test in short mode")
	}
	var sb strings.Builder
	sb.WriteString("<lib>")
	for i := 0; i < 2000; i++ {
		sb.WriteString("<book><title>t</title><secret>s</secret></book>")
	}
	sb.WriteString("</lib>")
	s, err := NewBuilder().
		LoadXMLString(sb.String()).
		AddUser("reader").
		Grant("reader", "read", "/lib").
		Revoke("reader", "read", "//secret").
		Seal(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	books, err := s.QueryCtx(context.Background(), "reader", "read", "//book[title]", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(books) != 2000 {
		t.Fatalf("reader sees %d books", len(books))
	}
	secrets, _ := s.QueryCtx(context.Background(), "reader", "read", "//secret", QueryOptions{})
	if len(secrets) != 0 {
		t.Fatalf("reader sees %d secrets", len(secrets))
	}
}

// Property: across random documents, policies and queries, the facade
// answers as the model does — so it obeys the containment laws, pruned ⊆
// bindings ⊆ unrestricted — and again after Save/Open: a configuration of
// the facade harness on small documents.
func TestFacadeContainmentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		ms := newModelStore(t, rng, 20+rng.Intn(100), false, StoreOptions{PageSize: 128})
		ms.check(fmt.Sprintf("trial %d", trial))
		ms.step(rng, fmt.Sprintf("trial %d", trial), xmlmodel.Reopen)
		ms.close()
	}
}

// Concurrent queries against occasional updates must be linearizable-ish:
// no panics, no errors, and every answer set is one the store could
// produce. Run with -race to exercise the locking.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	s := hospitalStore(t, StoreOptions{})
	defer s.Close()
	done := make(chan error, 8)
	for g := 0; g < 6; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				if _, err := s.QueryCtx(context.Background(), "dave", "read", "//patient[name]", QueryOptions{}); err != nil {
					done <- err
					return
				}
				if _, err := s.QueryCtx(context.Background(), "betty", "read", "//amount", QueryOptions{Pruned: true}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 2; g++ {
		g := g
		go func() {
			for i := 0; i < 20; i++ {
				pats, err := s.QueryUnrestricted("//patient")
				if err != nil || len(pats) == 0 {
					done <- err
					return
				}
				target := pats[(i+g)%len(pats)].Node
				if err := s.SetAccess("alice", "read", target, i%2 == 0, true); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for k := 0; k < 8; k++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestExportVisible(t *testing.T) {
	s := hospitalStore(t, StoreOptions{})
	defer s.Close()

	// Dave (doctors): everything except billing subtrees.
	var out strings.Builder
	if err := s.ExportVisible("dave", "read", &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"<name>Ann</name>", "<name>Cid</name>", "<drug>aspirin</drug>", `ward name="A"`} {
		if !strings.Contains(got, want) {
			t.Fatalf("dave export missing %q:\n%s", want, got)
		}
	}
	for _, deny := range []string{"billing", "amount", "100"} {
		if strings.Contains(got, deny) {
			t.Fatalf("dave export leaked %q:\n%s", deny, got)
		}
	}
	// The exported view must be well-formed XML.
	if _, err := NewBuilder().LoadXMLString(got).AddUser("x").Seal(StoreOptions{}); err != nil {
		t.Fatalf("export does not reparse: %v\n%s", err, got)
	}

	// Alice's pruned view is empty: the hospital root is not granted to
	// her, and dissemination uses the pruned-subtree semantics.
	out.Reset()
	if err := s.ExportVisible("alice", "read", &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "" {
		t.Fatalf("alice export should be empty (inaccessible root), got %q", out.String())
	}

	// Betty: patients themselves are locally revoked, so patient subtrees
	// (including the billing she can read in place) vanish from the
	// disseminated view; the pharmacy stays.
	out.Reset()
	if err := s.ExportVisible("betty", "read", &out); err != nil {
		t.Fatal(err)
	}
	got = out.String()
	if strings.Contains(got, "patient") || strings.Contains(got, "amount") {
		t.Fatalf("betty export leaked patient content:\n%s", got)
	}
	if !strings.Contains(got, "<drug>aspirin</drug>") {
		t.Fatalf("betty export missing pharmacy:\n%s", got)
	}
}

func TestExportVisibleDeniedRoot(t *testing.T) {
	s, err := NewBuilder().
		LoadXMLString("<a><b/></a>").
		AddUser("u").
		Seal(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var out strings.Builder
	if err := s.ExportVisible("u", "read", &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "" {
		t.Fatalf("denied root should export nothing, got %q", out.String())
	}
}

// TestExportVisibleAttrRoundTrip exports attributes whose values need
// escaping and checks that the export reads back the same values.
func TestExportVisibleAttrRoundTrip(t *testing.T) {
	vals := []string{`a\b`, "\t", "\r\n", `"'`, "<&>", "]]>", "é日本\U0001F600", "\u0085"}
	b := xmltree.NewBuilder()
	b.Begin("r")
	for _, v := range vals {
		b.Begin("e")
		b.Attr("k", v)
		b.End()
	}
	b.End()
	var src strings.Builder
	if err := b.MustFinish().WriteXML(&src); err != nil {
		t.Fatal(err)
	}
	s, err := NewBuilder().LoadXMLString(src.String()).AddUser("u").PermitByDefault().Seal(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var out strings.Builder
	if err := s.ExportVisible("u", "read", &out); err != nil {
		t.Fatal(err)
	}
	back, err := xmltree.ParseString(out.String())
	if err != nil {
		t.Fatalf("export does not reparse: %v\n%s", err, out.String())
	}
	for i, v := range vals {
		if got := back.Value(xmltree.NodeID(2 + 2*i)); got != v {
			t.Errorf("%q exported as %s reads back %q", v, out.String(), got)
		}
	}
}

// countElems counts start tags of the given name, with or without
// attributes.
func countElems(doc, tag string) int {
	return strings.Count(doc, "<"+tag+">") + strings.Count(doc, "<"+tag+" ")
}

// Property: the export contains exactly as many elements of each tag as
// QueryPruned returns for //tag.
func TestExportVisibleMatchesPrunedView(t *testing.T) {
	s := hospitalStore(t, StoreOptions{})
	defer s.Close()
	for _, user := range []string{"dave", "betty", "alice"} {
		var out strings.Builder
		if err := s.ExportVisible(user, "read", &out); err != nil {
			t.Fatal(err)
		}
		got := out.String()
		for _, tag := range []string{"ward", "patient", "diagnosis", "billing", "amount", "drug"} {
			pruned, err := s.QueryCtx(context.Background(), user, "read", "//"+tag, QueryOptions{Pruned: true})
			if err != nil {
				t.Fatal(err)
			}
			if occ := countElems(got, tag); occ != len(pruned) {
				t.Fatalf("user %s tag %s: export has %d, pruned query %d\n%s",
					user, tag, occ, len(pruned), got)
			}
		}
	}
}

func TestBuilderLocalRulesAndDefaults(t *testing.T) {
	s, err := NewBuilder().
		LoadXMLString("<a><b><c/></b></a>").
		AddUser("u").
		AddUser("v").
		PermitByDefault().
		RevokeLocal("u", "read", "/a/b").
		GrantLocal("u", "read", "//c"). // no-op on top of default, exercises the path
		Seal(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// v has no rules: open world grants everything.
	ms, err := s.QueryCtx(context.Background(), "v", "read", "//c", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("open-world user sees %d", len(ms))
	}
	// u: b itself locally revoked, c stays accessible.
	ok, _ := s.UserAccessible("u", "read", 1)
	if ok {
		t.Fatal("local revoke failed")
	}
	ok, _ = s.UserAccessible("u", "read", 2)
	if !ok {
		t.Fatal("local revoke must not cascade")
	}
	if s.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", s.NumNodes())
	}
}

// Vacuum after updates changes no answer.
func TestStoreVacuum(t *testing.T) { hospitalRun(t, 4, 12, xmlmodel.SetAccess, xmlmodel.Vacuum) }
