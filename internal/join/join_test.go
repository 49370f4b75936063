package join

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

func randomDoc(rng *rand.Rand, n int) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Begin("r")
	open := 1
	for i := 1; i < n; i++ {
		for open > 1 && rng.Intn(3) == 0 {
			b.End()
			open--
		}
		b.Begin([]string{"x", "y"}[rng.Intn(2)])
		open++
	}
	for ; open > 0; open-- {
		b.End()
	}
	return b.MustFinish()
}

func itemsFor(doc *xmltree.Document, nodes []xmltree.NodeID) []Item {
	var out []Item
	for _, n := range nodes {
		out = append(out, Item{Node: n, End: doc.End(n), Level: doc.Level(n)})
	}
	SortItems(out)
	return out
}

func TestSTDBasic(t *testing.T) {
	doc := xmltree.MustParseString(`<a><b><c/><b><c/></b></b><c/></a>`)
	// nodes: a0 b1 c2 b3 c4 c5
	ancs := itemsFor(doc, doc.NodesWithTag("b"))
	descs := itemsFor(doc, doc.NodesWithTag("c"))
	pairs := STD(ancs, descs)
	want := map[Pair]bool{
		{1, 2}: true, {1, 4}: true, {3, 4}: true,
	}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v", pairs)
	}
	for _, p := range pairs {
		if !want[p] {
			t.Fatalf("unexpected pair %v", p)
		}
	}
}

func TestSTDEmptyInputs(t *testing.T) {
	if got := STD(nil, []Item{{Node: 1}}); got != nil {
		t.Fatal("empty ancestors should produce no pairs")
	}
	if got := STD([]Item{{Node: 1, End: 5}}, nil); got != nil {
		t.Fatal("empty descendants should produce no pairs")
	}
}

func TestSelfOrDescendantSTD(t *testing.T) {
	doc := xmltree.MustParseString(`<a><b><b/></b></a>`)
	bs := itemsFor(doc, doc.NodesWithTag("b"))
	pairs := SelfOrDescendantSTD(bs, bs)
	// (1,1), (1,2), (2,2)
	if len(pairs) != 3 {
		t.Fatalf("pairs = %v", pairs)
	}
}

// Property: STD matches the quadratic oracle.
func TestSTDMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 2+rng.Intn(150))
		ancs := itemsFor(doc, doc.NodesWithTag("x"))
		descs := itemsFor(doc, doc.NodesWithTag("y"))
		got := STD(ancs, descs)
		want := map[Pair]bool{}
		for _, a := range ancs {
			for _, d := range descs {
				if doc.IsAncestor(a.Node, d.Node) {
					want[Pair{a.Node, d.Node}] = true
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for _, p := range got {
			if !want[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func buildSecure(t testing.TB, doc *xmltree.Document, m *acl.Matrix, pageSize int) *dol.SecureStore {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemPager(pageSize), 512)
	ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// secureOracle computes the valid pairs by brute force: AD relationship
// plus an all-accessible path including endpoints.
func secureOracle(doc *xmltree.Document, m *acl.Matrix, eff *bitset.Bitset, ancs, descs []Item) map[Pair]bool {
	want := map[Pair]bool{}
	for _, a := range ancs {
		for _, d := range descs {
			if !doc.IsAncestor(a.Node, d.Node) {
				continue
			}
			ok := true
			for v := d.Node; v != xmltree.InvalidNode; v = doc.Parent(v) {
				if !m.AccessibleAny(v, eff) {
					ok = false
				}
				if v == a.Node {
					break
				}
			}
			if ok {
				want[Pair{a.Node, d.Node}] = true
			}
		}
	}
	return want
}

func TestSecureSTDBasic(t *testing.T) {
	doc := xmltree.MustParseString(`<a><b><c/><d><c/></d></b></a>`)
	// nodes: a0 b1 c2 d3 c4
	m := acl.NewMatrix(doc.Len(), 1)
	for n := 0; n < doc.Len(); n++ {
		m.Set(xmltree.NodeID(n), 0, true)
	}
	m.Set(3, 0, false) // d inaccessible: path b -> inner c blocked
	ss := buildSecure(t, doc, m, 4096)
	eff := bitset.FromIndices(1, 0)
	ancs := itemsFor(doc, doc.NodesWithTag("b"))
	descs := itemsFor(doc, doc.NodesWithTag("c"))
	pairs, err := SecureSTD(context.Background(), ss, eff, ancs, descs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0] != (Pair{1, 2}) {
		t.Fatalf("pairs = %v, want only (1,2)", pairs)
	}
}

func TestSecureSTDEndpointInaccessible(t *testing.T) {
	doc := xmltree.MustParseString(`<a><b><c/></b></a>`)
	m := acl.NewMatrix(doc.Len(), 1)
	m.Set(0, 0, true)
	m.Set(2, 0, true) // b (node 1) inaccessible
	ss := buildSecure(t, doc, m, 4096)
	eff := bitset.FromIndices(1, 0)
	pairs, err := SecureSTD(context.Background(), ss, eff, itemsFor(doc, doc.NodesWithTag("b")), itemsFor(doc, doc.NodesWithTag("c")))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Fatalf("inaccessible ancestor endpoint must not join: %v", pairs)
	}
}

// Property: SecureSTD matches the brute-force oracle across page sizes and
// accessibility distributions.
func TestSecureSTDMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 2+rng.Intn(200))
		numSubjects := 1 + rng.Intn(3)
		m := acl.NewMatrix(doc.Len(), numSubjects)
		for n := 0; n < doc.Len(); n++ {
			for s := 0; s < numSubjects; s++ {
				if rng.Intn(4) > 0 {
					m.Set(xmltree.NodeID(n), acl.SubjectID(s), true)
				}
			}
		}
		pageSize := 64 + rng.Intn(200)
		pool := storage.NewBufferPool(storage.NewMemPager(pageSize), 512)
		ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{})
		if err != nil {
			return false
		}
		eff := bitset.FromIndices(numSubjects, rng.Intn(numSubjects))
		ancs := itemsFor(doc, doc.NodesWithTag("x"))
		descs := itemsFor(doc, doc.NodesWithTag("y"))
		got, err := SecureSTD(context.Background(), ss, eff, ancs, descs)
		if err != nil {
			return false
		}
		want := secureOracle(doc, m, eff, ancs, descs)
		if len(got) != len(want) {
			return false
		}
		for _, p := range got {
			if !want[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the same, on the access-control shape the directory shortcut is
// for. Subtree revokes with subtree grants nested inside them give long
// uniform runs, accessible pages below an inaccessible ancestor, and
// inaccessible subtrees that end on a page boundary; sparse candidate lists
// leave most uniform pages without a candidate to pop the level stack. An
// inaccessible level that closes inside a uniformly accessible page must
// not reach the pages after it.
func TestSecureSTDUniformRunsMatchOracle(t *testing.T) {
	uniform := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 200+rng.Intn(1200))
		m := acl.NewMatrix(doc.Len(), 1)
		for n := 0; n < doc.Len(); n++ {
			m.Set(xmltree.NodeID(n), 0, true)
		}
		for k := 2 + rng.Intn(6); k > 0; k-- {
			root := xmltree.NodeID(1 + rng.Intn(doc.Len()-1))
			allowed := k%3 == 0
			for n := root; n <= doc.End(root); n++ {
				m.Set(n, 0, allowed)
			}
		}
		ss := buildSecure(t, doc, m, 64+rng.Intn(200))
		for k := 0; k < ss.Store().NumPages(); k++ {
			if !ss.Store().PageInfoAt(k).ChangeBit {
				uniform++
			}
		}
		sparse := func(nodes []xmltree.NodeID) []Item {
			var keep []xmltree.NodeID
			for _, n := range nodes {
				if rng.Intn(4) == 0 {
					keep = append(keep, n)
				}
			}
			return itemsFor(doc, keep)
		}
		eff := bitset.FromIndices(1, 0)
		ancs, descs := sparse(doc.NodesWithTag("x")), sparse(doc.NodesWithTag("y"))
		got, err := SecureSTD(context.Background(), ss, eff, ancs, descs)
		if err != nil {
			t.Fatal(err)
		}
		want := secureOracle(doc, m, eff, ancs, descs)
		for _, p := range got {
			if !want[p] {
				t.Fatalf("seed %d: pair %v is not valid", seed, p)
			}
			delete(want, p)
		}
		for p := range want {
			t.Fatalf("seed %d: %d valid pairs missing, e.g. %v", seed, len(want), p)
		}
	}
	if uniform < 1000 {
		t.Fatalf("only %d uniform pages over all seeds: the shortcut was not exercised", uniform)
	}
}

// SecureSTD must physically read only pages whose change bit is set.
func TestSecureSTDReadsOnlyMixedPages(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	doc := randomDoc(rng, 3000)
	m := acl.NewMatrix(doc.Len(), 1)
	// Long uniform runs: grant access to the first half only.
	for n := 0; n < doc.Len()/2; n++ {
		m.Set(xmltree.NodeID(n), 0, true)
	}
	pool := storage.NewBufferPool(storage.NewMemPager(256), 512)
	ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mixed := 0
	for k := 0; k < ss.Store().NumPages(); k++ {
		if ss.Store().PageInfoAt(k).ChangeBit {
			mixed++
		}
	}
	if mixed == 0 || mixed > 2 {
		t.Fatalf("workload should have one or two mixed pages, got %d", mixed)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	eff := bitset.FromIndices(1, 0)
	ancs := itemsFor(doc, doc.NodesWithTag("x"))
	descs := itemsFor(doc, doc.NodesWithTag("y"))
	if _, err := SecureSTD(context.Background(), ss, eff, ancs, descs); err != nil {
		t.Fatal(err)
	}
	if misses := pool.Stats().Misses; misses > int64(mixed) {
		t.Fatalf("SecureSTD read %d pages; only %d mixed pages should require I/O", misses, mixed)
	}
}

func BenchmarkSTD(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	doc := benchDoc(rng, 50000)
	ancs := itemsFor(doc, doc.NodesWithTag("x"))
	descs := itemsFor(doc, doc.NodesWithTag("y"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		STD(ancs, descs)
	}
}

func BenchmarkSecureSTD(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	doc := benchDoc(rng, 50000)
	m := acl.NewMatrix(doc.Len(), 4)
	for n := 0; n < doc.Len(); n++ {
		if rng.Intn(5) > 0 {
			m.Set(xmltree.NodeID(n), acl.SubjectID(rng.Intn(4)), true)
		}
	}
	pool := storage.NewBufferPool(storage.NewMemPager(4096), 4096)
	ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	eff := bitset.FromIndices(4, 0)
	ancs := itemsFor(doc, doc.NodesWithTag("x"))
	descs := itemsFor(doc, doc.NodesWithTag("y"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SecureSTD(context.Background(), ss, eff, ancs, descs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDoc builds a random document with realistic bounded depth (~12) for
// benchmarks; the unconstrained randomDoc drifts toward path-shaped trees
// whose depth grows linearly with size, which misrepresents join and
// navigation costs on document-shaped data.
func benchDoc(rng *rand.Rand, n int) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Begin("r")
	depth := 1
	tags := []string{"x", "y", "z"}
	for i := 1; i < n; i++ {
		for depth > 1 && (depth >= 12 || rng.Intn(3) == 0) {
			b.End()
			depth--
		}
		b.Begin(tags[rng.Intn(len(tags))])
		depth++
	}
	for ; depth > 0; depth-- {
		b.End()
	}
	return b.MustFinish()
}

// The incremental joiners driven as the query pipeline drives them — an
// ancestor pushed only once the descendant at hand has reached it, one at a
// time — pair like the slice-driven forms and like the brute-force oracle,
// probe by probe.
func TestIncrementalJoinersMatchSliceForms(t *testing.T) {
	ctx := context.Background()
	pairs := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 20+rng.Intn(300))
		m := acl.NewMatrix(doc.Len(), 1)
		for n := 0; n < doc.Len(); n++ {
			m.Set(xmltree.NodeID(n), 0, rng.Intn(5) > 0)
		}
		// Subtree revokes make uniformly denied pages.
		for k := rng.Intn(3); k > 0; k-- {
			n := xmltree.NodeID(rng.Intn(doc.Len()))
			for v := n; v <= doc.End(n); v++ {
				m.Set(v, 0, false)
			}
		}
		ss := buildSecure(t, doc, m, 64+rng.Intn(200))
		eff := bitset.FromIndices(1, 0)
		ancs := itemsFor(doc, doc.NodesWithTag("x"))
		descs := itemsFor(doc, doc.NodesWithTag("y"))
		if rng.Intn(2) == 0 {
			descs = ancs // self join: a == d never pairs
		}

		wantSTD := STD(ancs, descs)
		wantEps, err := SecureSTD(ctx, ss, eff, ancs, descs)
		if err != nil {
			t.Fatal(err)
		}
		if oracle := secureOracle(doc, m, eff, ancs, descs); len(wantEps) != len(oracle) {
			t.Fatalf("seed %d: SecureSTD has %d pairs, the oracle %d", seed, len(wantEps), len(oracle))
		}
		pairs += len(wantSTD) + len(wantEps)
		var std STDJoiner
		eps := NewEpsJoiner(ss, eff)
		var gotSTD, gotEps []Pair
		for _, d := range descs {
			for ; len(ancs) > 0 && ancs[0].Node <= d.Node; ancs = ancs[1:] {
				std.Push(ancs[0])
				eps.Push(ancs[0])
			}
			gotSTD = append(gotSTD, std.Probe(d)...)
			ps, err := eps.Probe(ctx, d)
			if err != nil {
				t.Fatal(err)
			}
			gotEps = append(gotEps, ps...)
		}
		if !slices.Equal(gotSTD, wantSTD) {
			t.Fatalf("seed %d: incremental STD %v, STD %v", seed, gotSTD, wantSTD)
		}
		if !slices.Equal(gotEps, wantEps) {
			t.Fatalf("seed %d: incremental ε-STD %v, SecureSTD %v", seed, gotEps, wantEps)
		}
	}
	if pairs < 2000 {
		t.Fatalf("only %d pairs compared", pairs)
	}
}

// A uniformly denied page may climb above its first node's depth and open a
// new, shallower element that stays open into the next page: r/x/p/q…q (q
// denied, a deep chain), then a denied sibling z of p whose first children w
// are denied and whose later children y are not. Wherever the page boundaries
// fall, no (x, y) pair is valid — z lies between — and the pass has to know
// that from the directory alone once it has skipped the page holding z.
func TestSecureSTDDeniedPageOpensShallowerLevel(t *testing.T) {
	skipped := 0
	for chain := 3; chain < 40; chain += 2 {
		for kids := 2; kids < 40; kids += 3 {
			b := xmltree.NewBuilder()
			b.Begin("r")
			b.Begin("x")
			b.Begin("p")
			for i := 0; i < chain; i++ {
				b.Begin("q")
			}
			for i := 0; i <= chain; i++ {
				b.End()
			}
			b.Begin("z")
			for _, tag := range []string{"w", "y"} {
				for i := 0; i < kids; i++ {
					b.Begin(tag)
					b.End()
				}
			}
			b.End()
			b.End()
			b.End()
			doc := b.MustFinish()
			m := acl.NewMatrix(doc.Len(), 1)
			for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
				m.Set(n, 0, doc.Tag(n) != "q" && doc.Tag(n) != "z" && doc.Tag(n) != "w")
			}
			ss := buildSecure(t, doc, m, 64)
			st := ss.Store()
			if pi := st.PageInfoAt(st.PageIndexOf(doc.NodesWithTag("z")[0])); !pi.ChangeBit && pi.MinDepth < pi.StartDepth {
				skipped++
			}
			eff := bitset.FromIndices(1, 0)
			got, err := SecureSTD(context.Background(), ss, eff, itemsFor(doc, doc.NodesWithTag("x")), itemsFor(doc, doc.NodesWithTag("y")))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Fatalf("chain %d, %d children: %d pairs across the denied z, e.g. %v", chain, kids, len(got), got[0])
			}
		}
	}
	if skipped < 20 {
		t.Fatalf("z lay on a uniformly denied page that climbs above its start in only %d layouts", skipped)
	}
}
