package query

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/synthacl"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
)

// junkDoc builds a document whose root interleaves a few <a><hit/></a>
// targets with a long run of <junk/> leaves, so that /r/junk/hit names tags
// the document has in an order no path has.
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

// coldPages evaluates from a cold pool and returns the result plus the
// physical pages read.
func (e *env) coldPages(t *testing.T, pt *PatternTree, opts Options) (*Result, int64) {
	t.Helper()
	if err := e.pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	e.pool.ResetStats()
	res, err := e.ev.EvaluateCtx(context.Background(), pt, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, e.pool.Stats().Misses
}

// §3.3 on the paper's engine: when the deny bitmap covers a candidate's
// whole page, the matcher drops it before any block read (//x), and a child
// scan passes over the denied pages from the directory alone (/r/x); the
// answer set is unchanged relative to the unassisted run.
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
	view := e.ss.ViewSubject(0)
	for _, expr := range []string{"//x", "/r/x"} {
		pt := MustParse(expr)
		resOn, pagesOn := e.coldPages(t, pt, Options{View: view})
		resOff, pagesOff := e.coldPages(t, pt, Options{View: view, DisablePageSkip: true})
		if !equalIDs(resOn.Nodes, resOff.Nodes) {
			t.Fatalf("%s: answers differ: %d vs %d nodes", expr, len(resOn.Nodes), len(resOff.Nodes))
		}
		if sk := resOn.Skips; expr == "//x" && sk.Candidates == 0 || expr == "/r/x" && sk.AccessPages == 0 {
			t.Fatalf("%s: nothing skipped on the deny bitmap: %+v", expr, sk)
		}
		if pagesOn >= pagesOff {
			t.Fatalf("%s: mask run read %d pages, unassisted read %d", expr, pagesOn, pagesOff)
		}
	}
}

// Table 1 and a structurally unsatisfiable twig counted in pages, from a cold
// pool each run, under both secure semantics, over an XMark document whose one
// subject sees 70 % of the nodes, on the paper's engine (a B+-tree tag index
// has no index plan). A Limit stops the scans, so no limit reads more pages
// than a larger one. §3.3 page skipping and the path summary change no
// answer and never cost a page (this ACL denies no whole page, so the deny
// bitmap saves none here), and the path summary proves Qunsat empty
// without reading one.
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
				o.DisablePageSkip = true
				if unskipped, p := ablated("page skipping", o); pages < p && full.Skips.AccessPages+full.Skips.Candidates == 0 {
					t.Errorf("%s: %d pages saved, no skip or reject recorded", name, p-pages)
				} else if sk := unskipped.Skips; sk.AccessPages+sk.Candidates != 0 {
					t.Errorf("%s: skipping disabled, yet %+v", name, sk)
				}
				o = opts
				o.DisablePathSummary = true
				off, offPages := ablated("the path summary", o)
				if off.Skips.PathEmpty != 0 || off.Skips.PathClasses != 0 {
					t.Errorf("%s with the path summary off: PathEmpty %d, %d classes", name, off.Skips.PathEmpty, off.Skips.PathClasses)
				}
				if q.name == "Qunsat" {
					if pages != 0 || len(full.Nodes) != 0 || full.Skips.PathEmpty != 1 {
						t.Errorf("%s: %d pages, %d answers, PathEmpty %d with the path summary; want 0, 0, 1", name, pages, len(full.Nodes), full.Skips.PathEmpty)
					}
					if offPages == 0 {
						t.Errorf("%s read no page without the path summary either", name)
					}
				} else if offPages != pages {
					// A scan takes only the emptiness proof from the summary.
					t.Errorf("%s: %d pages with the path summary, %d without", name, pages, offPages)
				}
			}
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
				got, err := served.EvaluateCtx(context.Background(), pt, opts)
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
