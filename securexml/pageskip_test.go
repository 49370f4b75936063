package securexml

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dolxml/internal/nok"
	"dolxml/internal/query"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
)

// bigStore builds a document wide enough to span many pages at a small page
// size, with a user who can read everything except <secret> subtrees. A long
// run of <pad/> leaves sits between two book clusters so whole pages exist
// that hold no book or title at all — exactly what the path summary's class
// placement can prove skippable for /lib/book scans.
func bigStore(t *testing.T, opts StoreOptions) *Store {
	t.Helper()
	books := func(sb *strings.Builder, n int) {
		for i := 0; i < n; i++ {
			sb.WriteString("<book><title>t</title><secret>s</secret></book>")
		}
	}
	var sb strings.Builder
	sb.WriteString("<lib>")
	books(&sb, 250)
	for i := 0; i < 2000; i++ {
		sb.WriteString("<pad/>")
	}
	books(&sb, 250)
	sb.WriteString("</lib>")
	s, err := NewBuilder().
		LoadXMLString(sb.String()).
		AddUser("reader").
		Grant("reader", "read", "/lib").
		Revoke("reader", "read", "//secret").
		Seal(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDecodeCacheBytesOption(t *testing.T) {
	// Default budget: the cache is live and collects entries under load.
	s := bigStore(t, StoreOptions{PageSize: 256})
	if _, err := s.Query("reader", "read", "//book[title]"); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DecodeCache.Budget <= 0 || st.DecodeCache.Entries == 0 {
		t.Fatalf("default decode cache inactive: %+v", st.DecodeCache)
	}
	if st.SummaryBytes <= 0 {
		t.Fatalf("SummaryBytes = %d, want > 0", st.SummaryBytes)
	}
	s.Close()

	// Explicit budget is honored.
	s = bigStore(t, StoreOptions{PageSize: 256, DecodeCacheBytes: 1 << 14})
	if cs := s.DecodeCacheStats(); cs.Budget != 1<<14 {
		t.Fatalf("budget = %d, want %d", cs.Budget, 1<<14)
	}
	s.Close()

	// Negative disables caching entirely.
	s = bigStore(t, StoreOptions{PageSize: 256, DecodeCacheBytes: -1})
	defer s.Close()
	if _, err := s.Query("reader", "read", "//book[title]"); err != nil {
		t.Fatal(err)
	}
	cs := s.DecodeCacheStats()
	if cs.Budget != 0 || cs.Entries != 0 || cs.Bytes != 0 {
		t.Fatalf("disabled decode cache holds state: %+v", cs)
	}
}

func TestCursorSkipStatsAndDisable(t *testing.T) {
	s := bigStore(t, StoreOptions{PageSize: 256})
	defer s.Close()
	ctx := context.Background()

	// A path without a descendant predicate is answered from the class
	// postings and scans no children; this one scans lib's.
	drain := func(opts QueryOptions) ([]Match, SkipStats) {
		cur, err := s.QueryCursor(ctx, "reader", "read", "//lib[//pad]/book[title]", opts)
		if err != nil {
			t.Fatal(err)
		}
		var ms []Match
		for {
			m, ok, err := cur.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			ms = append(ms, m)
		}
		sk := cur.SkipStats()
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		return ms, sk
	}

	on, skOn := drain(QueryOptions{})
	off, skOff := drain(QueryOptions{DisableSummarySkip: true})
	if len(on) != 500 || len(off) != 500 {
		t.Fatalf("books: %d with struct skip, %d without, want 500", len(on), len(off))
	}
	for i := range on {
		if on[i].Node != off[i].Node {
			t.Fatalf("answer %d differs: %d vs %d", i, on[i].Node, off[i].Node)
		}
	}
	if skOff.StructPages != 0 {
		t.Fatalf("disabled run recorded %d structural skips", skOff.StructPages)
	}
	// The lib/book child scan crosses the <pad/> run: those pages hold no
	// book class, so the path summary must prove them skippable.
	if skOn.StructPages == 0 {
		t.Fatal("struct skip enabled but no structural skips recorded")
	}
}

// The DisableSummarySkip option must not change answers through the batch
// path either.
func TestQueryCtxDisableSummarySkip(t *testing.T) {
	s := bigStore(t, StoreOptions{PageSize: 256})
	defer s.Close()
	ctx := context.Background()
	on, err := s.QueryCtx(ctx, "reader", "read", "//book[title]", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := s.QueryCtx(ctx, "reader", "read", "//book[title]", QueryOptions{DisableSummarySkip: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(on) != len(off) {
		t.Fatalf("answers differ: %d vs %d", len(on), len(off))
	}
	for i := range on {
		if on[i].Node != off[i].Node {
			t.Fatalf("answer %d differs: %d vs %d", i, on[i].Node, off[i].Node)
		}
	}
}

// currentDoc rebuilds the store's current document (tags and structure)
// from its structure blocks, as the reference the naive matcher runs on.
func currentDoc(t *testing.T, s *Store) *xmltree.Document {
	t.Helper()
	st := s.cur.Load().st
	b := xmltree.NewBuilder()
	if err := st.WalkSubtree(0, func(ni nok.NodeInfo) bool {
		b.Begin(st.TagName(ni.Entry.Tag))
		for i := 0; i < ni.Entry.CloseCount; i++ {
			b.End()
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return b.MustFinish()
}

// maskedDoc is doc with every node keep rejects (nil keeps all) retagged
// to a name no pattern step uses: same node IDs, and the naive matcher can
// bind only kept nodes.
func maskedDoc(doc *xmltree.Document, keep []bool) *xmltree.Document {
	b := xmltree.NewBuilder()
	for n := 0; n < doc.Len(); n++ {
		tag := "\x00hidden"
		if keep == nil || keep[n] {
			tag = doc.Tag(xmltree.NodeID(n))
		}
		b.Begin(tag)
		for i := 0; i < doc.CloseCount(xmltree.NodeID(n)); i++ {
			b.End()
		}
	}
	return b.MustFinish()
}

// sameAfterReopen saves s into a fresh directory and holds the reopened copy
// against it: value refs, every node's value, and the Table 1 answers of u0
// with their values.
func sameAfterReopen(t *testing.T, s *Store, when string) {
	t.Helper()
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	re, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("%s: reopen: %v", when, err)
	}
	defer re.Close()
	live, back := s.cur.Load().st, re.cur.Load().st
	if want, got := live.Meta().ValueRefs, back.Meta().ValueRefs; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %d value refs came back as %d others", when, len(want), len(got))
	}
	nodes := make([]xmltree.NodeID, live.NumNodes())
	for n := range nodes {
		nodes[n] = xmltree.NodeID(n)
	}
	want, err := live.Values().ValuesCtx(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Values().ValuesCtx(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: the reopened store holds other values", when)
	}
	queries := make([]string, len(table1))
	for i, q := range table1 {
		queries[i] = q.expr
	}
	if got, want := fingerprint(t, re, []string{"u0"}, queries), fingerprint(t, s, []string{"u0"}, queries); got != want {
		t.Fatalf("%s: the reopened store answers\n%s\nwant\n%s", when, got, want)
	}
}

// After a random sequence of all eight update kinds and vacuums, every
// Table 1 query under every semantics must answer exactly what the naive
// matcher finds among the nodes the user may bind — with struct skip on,
// off, and with routing off — and again through a saved-and-reopened store.
// After every commit, moreover, a saved copy reopens with the same value
// refs (inserts, deletes and moves shift and renumber them; the sidecar
// packs them), the same values and the same answers, values included.
func TestAnswersMatchNaiveModelAfterRandomUpdates(t *testing.T) {
	const mode = "read"
	frags := []string{
		"<item><location>x</location><name>n</name><quantity>1</quantity><description><text>t<emph>e</emph></text></description></item>",
		"<parlist><listitem><parlist><listitem><text>t<keyword>k</keyword></text></listitem></parlist></listitem></parlist>",
		"<category><name>c</name><description><text>t<bold>b</bold></text></description></category>",
		"<fresh><leaf/></fresh>",
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var xb strings.Builder
		if err := xmark.Generate(xmark.Scaled(seed, 1500)).WriteXML(&xb); err != nil {
			t.Fatal(err)
		}
		s, err := NewBuilder().LoadXMLString(xb.String()).
			AddGroup("g0").AddGroup("g1").
			AddUser("u0").AddUser("u1").
			AddMember("g0", "u0").AddMember("g1", "u1").
			Grant("g0", mode, "/site").Revoke("g0", mode, "//mailbox").
			Grant("g1", mode, "/site").Revoke("g1", mode, "//annotation").
			Seal(StoreOptions{PageSize: 256 << uint(seed)})
		if err != nil {
			t.Fatal(err)
		}
		users, groups := []string{"u0", "u1"}, []string{"g0", "g1"}
		subjects := func() []string { return append(append([]string(nil), users...), groups...) }
		pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }

		for op := 0; op < 64; op++ {
			doc := currentDoc(t, s)
			node := func() NodeID { return NodeID(1 + rng.Intn(doc.Len()-1)) } // never the root
			var err error
			// Every kind comes up in the first eight operations; after that
			// access toggles dominate, as they shape what the askers see.
			kind := op
			if op >= 8 {
				kind = rng.Intn(16)
			}
			switch kind {
			default:
				// Mostly whole records of the seed subjects, so that each
				// asker loses some answers of each query and keeps others.
				target, whole := node(), rng.Intn(2) == 0
				if rng.Intn(4) > 0 {
					recs := doc.NodesWithTag(pick([]string{"item", "category", "listitem", "text"}))
					target, whole = NodeID(recs[rng.Intn(len(recs))]), true
				}
				who := pick([]string{"g0", "g1", "u0", "u1", pick(subjects())})
				err = s.SetAccess(who, mode, target, rng.Intn(3) == 0, whole)
			case 1:
				name := fmt.Sprintf("nu%d", op)
				err = s.AddUser(name)
				users = append(users, name)
			case 2:
				name := fmt.Sprintf("lu%d", op)
				err = s.AddUserLike(name, pick(users))
				users = append(users, name)
			case 3:
				name := fmt.Sprintf("ng%d", op)
				err = s.AddGroup(name)
				groups = append(groups, name)
			case 4:
				// Only into groups made after sealing: joining both seed groups
				// would let a user see everything either one may.
				err = s.AddMember(pick(groups[2:]), pick(users))
			case 5:
				err = s.InsertXML(node(), InvalidNode, pick(frags))
			case 6:
				if n := node(); doc.SubtreeSize(xmltree.NodeID(n)) < doc.Len()/10 {
					err = s.Delete(n)
				}
			case 7:
				n, dst := node(), node()
				if doc.SubtreeSize(xmltree.NodeID(n)) < doc.Len()/10 &&
					n != dst && !doc.IsAncestor(xmltree.NodeID(n), xmltree.NodeID(dst)) {
					err = s.Move(n, dst, InvalidNode)
				}
			case 8:
				err = s.Vacuum()
			}
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			sameAfterReopen(t, s, fmt.Sprintf("seed %d op %d (kind %d)", seed, op, kind))
		}

		check := func(s *Store, where string) {
			t.Helper()
			doc := currentDoc(t, s)
			type arm struct {
				label string
				user  string
				opts  QueryOptions
				keep  []bool
			}
			arms := []arm{{"unrestricted", "", QueryOptions{Unrestricted: true}, nil}}
			total := map[string]int{} // unrestricted answers per query
			narrowed := 0             // secure arms that see some but not all of them
			for _, u := range []string{"u0", "u1", users[len(users)-1]} {
				acc, vis := make([]bool, doc.Len()), make([]bool, doc.Len())
				for n := range acc {
					ok, err := s.UserAccessible(u, mode, NodeID(n))
					if err != nil {
						t.Fatal(err)
					}
					p := doc.Parent(xmltree.NodeID(n))
					acc[n] = ok
					vis[n] = ok && (p == xmltree.InvalidNode || vis[p])
				}
				arms = append(arms, arm{"bindings", u, QueryOptions{}, acc}, arm{"pruned", u, QueryOptions{Pruned: true}, vis})
			}
			for _, a := range arms {
				ref := maskedDoc(doc, a.keep)
				for _, q := range table1 {
					want := query.MatchDocument(ref, query.MustParse(q.expr))
					if a.user == "" {
						total[q.name] = len(want)
					} else if 0 < len(want) && len(want) < total[q.name] {
						narrowed++
					}
					for _, ab := range []struct {
						name             string
						noStruct, noPath bool
					}{{"default", false, false}, {"struct skip off", true, false}, {"routing off", false, true}} {
						opts := a.opts
						opts.DisableSummarySkip, opts.DisablePathSummary = ab.noStruct, ab.noPath
						ms, err := s.QueryCtx(context.Background(), a.user, mode, q.expr, opts)
						if err != nil {
							t.Fatal(err)
						}
						got := make([]xmltree.NodeID, len(ms))
						for i, m := range ms {
							got[i] = xmltree.NodeID(m.Node)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("seed %d %s: %s as %q %s, %s: %d answers, the naive model finds %d",
								seed, where, q.name, a.user, a.label, ab.name, len(got), len(want))
						}
					}
				}
			}
			if narrowed < 6 {
				t.Fatalf("seed %d %s: access control narrowed only %d answer sets; the update mix lost its bite", seed, where, narrowed)
			}
		}
		check(s, "live")
		dir := t.TempDir()
		if err := s.Save(dir); err != nil {
			t.Fatal(err)
		}
		s.Close()
		re, err := Open(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		check(re, "reopened")
		re.Close()
	}
}
