package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/synthacl"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
)

// junkDoc builds a document whose root interleaves a few <a><hit/></a>
// targets with a long run of <junk/> leaves: at a small page size the run
// fills many blocks whose MinDepth equals the child-scan level, so only the
// path summary's class placement (not the depth directory) can prove them
// skippable.
func junkDoc(junk int) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Begin("r")
	b.Begin("a")
	b.Begin("hit")
	b.End()
	b.End()
	for i := 0; i < junk; i++ {
		b.Begin("junk")
		b.End()
	}
	b.Begin("a")
	b.Begin("hit")
	b.End()
	b.End()
	b.End()
	return b.MustFinish()
}

// wideTagDoc gives the root 300 children with 300 distinct tags — more
// than the 256-bit per-page tag bitmap this store once kept could hold
// exactly (it fell back to a Bloom filter there). The path summary has no
// width limit: every tag is its own class with exact block placement.
func wideTagDoc() *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Begin("root")
	for i := 0; i < 300; i++ {
		b.Begin(fmt.Sprintf("t%03d", i))
		b.End()
	}
	b.End()
	return b.MustFinish()
}

// coldPages evaluates from a cold pool and returns the result plus the
// physical pages read.
func (e *env) coldPages(t *testing.T, pt *PatternTree, opts Options) (*Result, int64) {
	t.Helper()
	if err := e.pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	e.pool.ResetStats()
	res, err := e.ev.Evaluate(pt, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, e.pool.Stats().Misses
}

// Struct skip on/off under default routing: identical answers, strictly
// fewer pages with it on, and every structural skip attributed to it.
func TestStructSkipReducesPages(t *testing.T) {
	for _, in := range []struct {
		name     string
		doc      *xmltree.Document
		pageSize int
		expr     string
		answers  int
	}{
		{"junk run", junkDoc(2000), 256, "/r/a[hit]", 2},
		{"300 distinct tags", wideTagDoc(), 128, "/root/t290", 1},
	} {
		e := newEnv(t, in.doc, allowAll(in.doc, 1), in.pageSize)
		pt := MustParse(in.expr)
		view := e.ss.ViewSubject(0)
		for _, cfg := range []struct {
			name string
			opts Options
		}{
			{"no view", Options{}},
			{"bindings", Options{View: view}},
			{"pruned", Options{View: view, Semantics: SemanticsPrunedSubtree}},
		} {
			name := in.name + "/" + cfg.name
			off := cfg.opts
			off.DisableSummarySkip = true
			resOff, pagesOff := e.coldPages(t, pt, off)
			resOn, pagesOn := e.coldPages(t, pt, cfg.opts)
			if len(resOn.Nodes) != in.answers {
				t.Fatalf("%s: got %d answers, want %d", name, len(resOn.Nodes), in.answers)
			}
			if !equalIDs(resOn.Nodes, resOff.Nodes) || resOn.Matches != resOff.Matches {
				t.Fatalf("%s: answers differ with struct skip: %v vs %v", name, resOn.Nodes, resOff.Nodes)
			}
			if pagesOn >= pagesOff {
				t.Fatalf("%s: struct skip read %d pages, disabled read %d", name, pagesOn, pagesOff)
			}
			if resOn.Skips.StructPages == 0 {
				t.Fatalf("%s: no structural skips recorded despite page reduction", name)
			}
			if resOff.Skips.StructPages != 0 {
				t.Fatalf("%s: disabled run recorded %d structural skips", name, resOff.Skips.StructPages)
			}
		}
	}
}

// Candidate rejection: when the deny bitmap covers a candidate's whole
// page, the matcher drops it before any block read, and the answer set is
// unchanged relative to the unassisted run.
func TestAccessMaskRejectsCandidates(t *testing.T) {
	b := xmltree.NewBuilder()
	b.Begin("r")
	for i := 0; i < 1500; i++ {
		b.Begin("x")
		b.End()
	}
	b.End()
	doc := b.MustFinish()
	m := allowAll(doc, 1)
	// Deny a long contiguous middle run so whole pages are denied.
	for n := 200; n < 1200; n++ {
		m.Set(xmltree.NodeID(n), 0, false)
	}
	e := newEnv(t, doc, m, 256)
	pt := MustParse("//x")
	view := e.ss.ViewSubject(0)

	resOn, pagesOn := e.coldPages(t, pt, Options{View: view})
	resOff, pagesOff := e.coldPages(t, pt, Options{View: view, DisablePageSkip: true, DisableSummarySkip: true})
	if !equalIDs(resOn.Nodes, resOff.Nodes) {
		t.Fatalf("answers differ: %d vs %d nodes", len(resOn.Nodes), len(resOff.Nodes))
	}
	if resOn.Skips.Candidates == 0 {
		t.Fatal("no candidates rejected from the deny bitmap")
	}
	if pagesOn >= pagesOff {
		t.Fatalf("mask run read %d pages, unassisted read %d", pagesOn, pagesOff)
	}
}

// Property: struct skip on, off and routing off, with and without a view,
// under both secure semantics, produce byte-identical results on random documents, patterns and ACLs.
func TestStructSkipEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 50+rng.Intn(400))
		const subjects = 3
		m := acl.NewMatrix(doc.Len(), subjects)
		for n := 0; n < doc.Len(); n++ {
			for s := 0; s < subjects; s++ {
				m.Set(xmltree.NodeID(n), acl.SubjectID(s), rng.Intn(100) < 70)
			}
		}
		pageSize := 96 + rng.Intn(300)
		e := newEnv(t, doc, m, pageSize)
		pt := randomPattern(rng)
		view := e.ss.ViewSubject(acl.SubjectID(rng.Intn(subjects)))

		base := []Options{
			{},
			{View: view},
			{View: view, Semantics: SemanticsPrunedSubtree},
		}
		for bi, opts := range base {
			opts.DisablePathSummary = true
			want, err := e.ev.Evaluate(pt, opts)
			if err != nil {
				t.Fatalf("seed %d base %d: %v", seed, bi, err)
			}
			for _, structOff := range []bool{false, true} {
				on := opts
				on.DisablePathSummary = false
				on.DisableSummarySkip = structOff
				got, err := e.ev.Evaluate(pt, on)
				if err != nil {
					t.Fatalf("seed %d base %d: %v", seed, bi, err)
				}
				if !equalIDs(got.Nodes, want.Nodes) || got.Matches != want.Matches {
					t.Fatalf("seed %d base %d structOff %v (page %d): routing changed the result: %v/%d vs %v/%d",
						seed, bi, structOff, pageSize, got.Nodes, got.Matches, want.Nodes, want.Matches)
				}
			}
		}
	}
}

// Table 1 and a structurally unsatisfiable twig counted in pages, from a cold
// pool each run, under both secure semantics, over an XMark document whose one
// subject sees 70 % of the nodes. A Limit stops the scans, so no limit reads
// more pages than a larger one; struct skip and path routing change no answer
// and never cost a page, and each saves what it is for.
func TestTable1PageCounts(t *testing.T) {
	doc := xmark.Generate(xmark.Scaled(1, 12000))
	visible := synthacl.Synthetic(doc, synthacl.SynthConfig{
		Seed: 24, PropagationRatio: 0.3, AccessibilityRatio: 0.7, ForceRootAccessible: true,
	})
	m := acl.NewMatrix(doc.Len(), 1)
	for n := 0; n < doc.Len(); n++ {
		m.Set(xmltree.NodeID(n), 0, visible.Test(n))
	}
	// Every tag of Qunsat exists, in an order no root-to-leaf path has: a
	// person holds no parlist. Only the path summary can prove it empty.
	queries := append(table1[:len(table1):len(table1)],
		struct{ name, xpath string }{"Qunsat", "/site/people/person/parlist"})

	for _, pageSize := range []int{1024, 4096} {
		e := newEnv(t, doc, m, pageSize)
		view := e.ss.ViewSubject(0)
		structSaved := 0
		for _, q := range queries {
			pt := MustParse(q.xpath)
			for _, sem := range []Semantics{SemanticsBindings, SemanticsPrunedSubtree} {
				name := fmt.Sprintf("%s/semantics %d/%d B pages", q.name, sem, pageSize)
				opts := Options{View: view, Semantics: sem}
				full, pages := e.coldPages(t, pt, opts)

				var limited []int64
				for _, limit := range []int{1, 10, 100} {
					o := opts
					o.Limit = limit
					res, p := e.coldPages(t, pt, o)
					if want := min(limit, len(full.Nodes)); len(res.Nodes) != want {
						t.Errorf("%s limit %d: %d answers, want %d", name, limit, len(res.Nodes), want)
					}
					limited = append(limited, p)
				}
				limited = append(limited, pages)
				if !slices.IsSorted(limited) {
					t.Errorf("%s: limits 1, 10, 100 and none read %v pages; a smaller limit read more", name, limited)
				}
				// The scan hands its rows over one at a time under a Limit:
				// Q4 meets limit 10 in the 4 pages limit 1 reads, 5 if it
				// ran a batch ahead of its consumer.
				if q.name == "Q4" && sem == SemanticsBindings && pageSize == 4096 && limited[1] > 4 {
					t.Errorf("%s: limit 10 read %d pages, want 4", name, limited[1])
				}

				// ablated runs the query with one mechanism off: the answers
				// must not move and the full run must not have read more.
				ablated := func(what string, o Options) (*Result, int64) {
					res, p := e.coldPages(t, pt, o)
					if !equalIDs(full.Nodes, res.Nodes) || full.Matches != res.Matches {
						t.Errorf("%s: %s changed the answers (%d/%d vs %d/%d)",
							name, what, len(full.Nodes), full.Matches, len(res.Nodes), res.Matches)
					}
					if pages > p {
						t.Errorf("%s read %d pages with %s, %d without", name, pages, what, p)
					}
					return res, p
				}
				o := opts
				o.DisableSummarySkip = true
				if _, flatPages := ablated("struct skip", o); pages < flatPages && sem == SemanticsBindings {
					structSaved++
				}
				o = opts
				o.DisablePathSummary = true
				unrouted, unroutedPages := ablated("path routing", o)
				// Both arms start from the same postings, so the one that
				// removed more of them scans fewer.
				on, off := full.Skips, unrouted.Skips
				if on.PathCandidates+on.JoinCandidates < off.PathCandidates+off.JoinCandidates {
					t.Errorf("%s scans more candidates with path routing: %d+%d removed, %d+%d without", name,
						on.PathCandidates, on.JoinCandidates, off.PathCandidates, off.JoinCandidates)
				}
				if off.PathCandidates != 0 || off.PathEmpty != 0 {
					t.Errorf("%s with routing off: %d candidates rejected by path, PathEmpty %d", name, off.PathCandidates, off.PathEmpty)
				}
				switch q.name {
				case "Q5", "Q6":
					// Every parlist of Q4 lies on a path that nests another
					// at this scale, so routing has nothing to reject there.
					if on.PathCandidates == 0 {
						t.Errorf("%s: path routing rejected no candidate", name)
					}
				case "Qunsat":
					if pages != 0 || len(full.Nodes) != 0 || on.PathEmpty != 1 {
						t.Errorf("%s: %d pages, %d answers, PathEmpty %d with path routing; want 0, 0, 1", name, pages, len(full.Nodes), on.PathEmpty)
					}
					if unroutedPages == 0 {
						t.Errorf("%s read no page without path routing either", name)
					}
				}
			}
		}
		// Child scans cross blocks that hold none of their classes in Q1–Q3;
		// Q4–Q6 have no child scan below the root.
		if pageSize == 1024 && structSaved < 2 {
			t.Errorf("struct skip saved pages on %d queries at %d B pages; want at least 2", structSaved, pageSize)
		}
	}
}

func equalIDs(a, b []xmltree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Table 1's twigs, Q5 under a limit and the unsatisfiable twig on the served
// index, as index plans, against the ε-NoK matcher and its joins on the same
// store, under both secure semantics at 1 and 4 KiB pages: the same answers
// and Matches, no more pages read from a cold pool, no more for Q5 under a
// limit than for Q5, and no more pool Gets than there are blocks holding a
// posting of a class whose access is not uniform — the only postings whose
// decision needs their block — or, under pruned semantics, a guard of one.
func TestIndexPlanPageCounts(t *testing.T) {
	doc := xmark.Generate(xmark.Scaled(1, 12000))
	visible := synthacl.Synthetic(doc, synthacl.SynthConfig{
		Seed: 24, PropagationRatio: 0.3, AccessibilityRatio: 0.7, ForceRootAccessible: true,
	})
	m := acl.NewMatrix(doc.Len(), 1)
	for n := 0; n < doc.Len(); n++ {
		m.Set(xmltree.NodeID(n), 0, visible.Test(n))
	}
	type twig struct {
		name, xpath string
		limit       int
	}
	var queries []twig
	for _, q := range table1 {
		queries = append(queries, twig{q.name, q.xpath, 0})
	}
	queries = append(queries, twig{"Q5lim", "//listitem//keyword", 10}, twig{"Qunsat", "/site/people/person/parlist", 0})
	blockReads, guarded := 0, 0
	for _, pageSize := range []int{1024, 4096} {
		e := newEnv(t, doc, m, pageSize)
		served := NewEvaluatorAt(e.servedSnapshot(t))
		view := e.ss.ViewSubject(0)
		for _, sem := range []Semantics{SemanticsBindings, SemanticsPrunedSubtree} {
			q5Pages := int64(-1)
			for _, q := range queries {
				name := fmt.Sprintf("%s/semantics %d/%d B pages", q.name, sem, pageSize)
				pt := MustParse(q.xpath)
				opts := Options{View: view, Semantics: sem, Limit: q.limit}
				want, matcherPages := e.coldPages(t, pt, opts)
				c, err := served.compile(pt, opts)
				if err != nil {
					t.Fatal(err)
				}
				if c.index == nil && !c.empty() {
					t.Fatalf("%s: no index plan on the served index", name)
				}
				mixed := map[int]bool{}
				if c.index != nil {
					postings := c.index.sweep
					if sem == SemanticsPrunedSubtree {
						postings = append(slices.Clip(postings), c.index.guardPostings()...)
						guarded += len(c.index.guardPostings())
					}
					for _, sp := range postings {
						if c.route.verdict(sp.class) == vMixed {
							mixed[e.ss.Store().PageIndexOf(sp.Node)] = true
						}
					}
				}
				if err := e.pool.DropAll(); err != nil {
					t.Fatal(err)
				}
				e.pool.ResetStats()
				got, err := served.Evaluate(pt, opts)
				if err != nil {
					t.Fatal(err)
				}
				st := e.pool.Stats()
				if !equalIDs(got.Nodes, want.Nodes) || got.Matches != want.Matches {
					t.Fatalf("%s: %d answers (%d matches), the matcher's %d (%d)", name, len(got.Nodes), got.Matches, len(want.Nodes), want.Matches)
				}
				if st.Misses > matcherPages {
					t.Errorf("%s: the index plan read %d pages, the matcher %d", name, st.Misses, matcherPages)
				}
				switch q.name {
				case "Q5":
					q5Pages = st.Misses
				case "Q5lim":
					if st.Misses > q5Pages {
						t.Errorf("%s: %d pages under the limit, %d without", name, st.Misses, q5Pages)
					}
				}
				if st.Gets > int64(len(mixed)) {
					t.Errorf("%s: %d pool Gets, %d blocks hold a posting of a mixed class", name, st.Gets, len(mixed))
				}
				if e.pool.Pinned() != 0 {
					t.Errorf("%s: %d frames pinned", name, e.pool.Pinned())
				}
				blockReads += int(st.Gets)
				t.Logf("%s: %d answers, %d pages (matcher %d), %d Gets, %d mixed blocks", name, len(got.Nodes), st.Misses, matcherPages, st.Gets, len(mixed))
			}
		}
	}
	if blockReads == 0 || guarded == 0 {
		t.Error("no index plan decided a posting on its block, or none had a guard")
	}
}
