package query

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/obs"
	"dolxml/internal/storage"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// newExplainEnv builds the store on one pool and the tag/value index on a
// second one: index postings lookups go through btree readers that record
// no trace events, so the reconciliation invariant (operator pins sum to
// the store pool's Gets delta) needs them off the store pool — the same
// separation securexml's snapshot layer maintains.
func newExplainEnv(t testing.TB, doc *xmltree.Document, m *acl.Matrix, pageSize int) *env {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemPager(pageSize), 1024)
	ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{StoreValues: true})
	if err != nil {
		t.Fatal(err)
	}
	ipool := storage.NewBufferPool(storage.NewMemPager(pageSize), 1024)
	idx, err := btree.BuildFromDocument(ipool, doc)
	if err != nil {
		t.Fatal(err)
	}
	return &env{doc: doc, m: m, ss: ss, ev: NewEvaluator(ss.Store(), idx), pool: pool}
}

// Explain of an unsatisfiable pattern must report the short-circuit and
// pin no store page; an executed run under a trace must confirm the same
// zero-page property.
func TestExplainUnsatisfiableZeroPages(t *testing.T) {
	doc := junkDoc(500)
	e := newExplainEnv(t, doc, allowAll(doc, 1), 256)
	if e.ev.store.Paths() == nil {
		t.Fatal("store has no path summary")
	}
	ctx := context.Background()
	// Both tags exist in the document, but no <hit> has a <junk> parent:
	// only the path summary can prove the query empty.
	pt := MustParse("/r/junk/hit")

	before := e.pool.Stats()
	plan, err := e.ev.Explain(ctx, pt, Options{View: e.ss.ViewSubject(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Unsatisfiable {
		t.Fatalf("plan not marked unsatisfiable: %+v", plan)
	}
	if len(plan.Operators) != 0 {
		t.Fatalf("unsatisfiable plan has %d operators", len(plan.Operators))
	}
	if d := poolDelta(e.pool, before); d.Gets != 0 {
		t.Fatalf("EXPLAIN pinned %d store pages", d.Gets)
	}

	// The executed form of the same short-circuit: a traced run records no
	// page pin at all.
	tr := obs.NewTrace()
	res, err := e.ev.EvaluateCtx(ctx, pt, Options{View: e.ss.ViewSubject(0), Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 0 {
		t.Fatalf("unsatisfiable query returned %d nodes", len(res.Nodes))
	}
	if tr.PageReads() != 0 {
		t.Fatalf("unsatisfiable run pinned %d pages", tr.PageReads())
	}
	if res.Skips.PathEmpty != 1 {
		t.Fatalf("PathEmpty = %d, want 1", res.Skips.PathEmpty)
	}
}

// The plan's operator pipeline must mirror what open builds: one scan per
// NoK subtree, the root-path filter only under pruned semantics, one join
// per cut edge — over a sort exactly where its link is not the root of the
// subtree joined just before — dedup always, limit when set.
func TestExplainOperatorShape(t *testing.T) {
	doc := miniXMark(t)
	e := newExplainEnv(t, doc, allowAll(doc, 1), 512)
	ctx := context.Background()
	view := e.ss.ViewSubject(0)

	for _, tc := range []struct {
		expr   string
		opts   Options
		filter bool
		sorts  []string // the sort operators: label, link step, input, consumer
	}{
		{"/site/regions/africa/item[location][name]", Options{}, false, nil},
		{"//item[location]", Options{View: view}, false, nil},
		{"//item[location]", Options{View: view, Semantics: SemanticsPrunedSubtree}, true, nil},
		// The link is not the root of its subtree.
		{"/site/categories//description", Options{View: view, Limit: 2}, false,
			[]string{"sort1 /categories scan0 join1"}},
		// Chains merge as they arrive.
		{"//parlist//listitem//keyword", Options{View: view}, false, nil},
		// The second join's link is joined a second time.
		{"//parlist[//listitem]//keyword", Options{View: view, Semantics: SemanticsPrunedSubtree}, true,
			[]string{"sort2 //parlist join1 join2"}},
		{"//category[name]/description//bold", Options{}, false,
			[]string{"sort1 /description scan0 join1"}},
	} {
		pt := MustParse(tc.expr)
		plan, err := e.ev.Explain(ctx, pt, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		subs := pt.Decompose()
		var scans, joins, filters, dedups, limits int
		var sorts []string
		for k, op := range plan.Operators {
			switch op.Kind {
			case "sort":
				// A sort sits directly under its join, as the join's left input.
				next := plan.Operators[k+1]
				if next.Kind != "join" || next.Inputs[0] != op.Op || next.Subtree != op.Subtree {
					t.Errorf("%s: %s is followed by %+v", tc.expr, op.Op, next)
				}
				sorts = append(sorts, fmt.Sprintf("%s %s %s %s", op.Op, op.Root, op.Inputs[0], next.Op))
			case "scan":
				scans++
			case "join":
				joins++
			case "filter":
				filters++
			case "dedup":
				dedups++
			case "limit":
				limits++
			}
		}
		if scans != len(subs) || joins != len(subs)-1 || dedups != 1 {
			t.Errorf("%s: got %d scans / %d joins / %d dedups for %d subtrees",
				tc.expr, scans, joins, dedups, len(subs))
		}
		if !reflect.DeepEqual(sorts, tc.sorts) {
			t.Errorf("%s: sort operators %q, want %q", tc.expr, sorts, tc.sorts)
		}
		var sb strings.Builder
		if err := plan.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(sb.String(), "sort by "); got != len(tc.sorts) {
			t.Errorf("%s: the text plan shows %d sorts, want %d:\n%s", tc.expr, got, len(tc.sorts), sb.String())
		}
		wantFilters := 0
		if tc.filter {
			wantFilters = 1
		}
		if filters != wantFilters {
			t.Errorf("%s: got %d filters, want %d", tc.expr, filters, wantFilters)
		}
		wantLimits := 0
		if tc.opts.Limit > 0 {
			wantLimits = 1
		}
		if limits != wantLimits {
			t.Errorf("%s: got %d limits, want %d", tc.expr, limits, wantLimits)
		}
		if len(plan.Nodes) != pt.Len() {
			t.Errorf("%s: plan has %d nodes, pattern has %d", tc.expr, len(plan.Nodes), pt.Len())
		}
	}
}

// ANALYZE attribution must partition the trace exactly: the per-operator
// pins sum to the store pool's Gets delta with nothing left in the
// residual bucket at the evaluator level, and the skip/reject totals
// equal the result's own accounting.
func TestAnalyzeAttributionReconciles(t *testing.T) {
	doc := miniXMark(t)
	e := newExplainEnv(t, doc, allowAll(doc, 1), 512)
	ctx := context.Background()
	view := e.ss.ViewSubject(0)

	exprs := []string{
		"/site/regions/africa/item[location][name][quantity]",
		"//item[location]",
		"/site/categories/category[name]/description/text/bold",
		"//parlist//parlist",
	}
	for _, expr := range exprs {
		for _, opts := range []Options{
			{},
			{View: view},
			{View: view, Semantics: SemanticsPrunedSubtree},
		} {
			name := fmt.Sprintf("%s/sem=%d/view=%v", expr, opts.Semantics, opts.View != nil)
			pt := MustParse(expr)

			plan, err := e.ev.Explain(ctx, pt, opts)
			if err != nil {
				t.Fatalf("%s: explain: %v", name, err)
			}
			tr := obs.NewTrace()
			opts.Trace = tr
			before := e.pool.Stats()
			res, err := e.ev.EvaluateCtx(ctx, pt, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			d := poolDelta(e.pool, before)

			an := AnalyzeTrace(plan, tr.Events(), tr.Dropped())
			tot := an.Totals()
			if tot.Pins != d.Gets || tot.Hits != d.Hits {
				t.Errorf("%s: attributed pins/hits %d/%d != pool delta %d/%d",
					name, tot.Pins, tot.Hits, d.Gets, d.Hits)
			}
			// Every pin at the evaluator level happens under some
			// operator's context: the residual bucket must be empty.
			if an.Other.Pins != 0 {
				t.Errorf("%s: %d pins in the residual bucket", name, an.Other.Pins)
			}
			if got, want := tot.SkipAccess, res.Skips.AccessPages; got != want {
				t.Errorf("%s: attributed skips %d != result skips %d", name, got, want)
			}
			if got, want := tot.CandRejects, res.Skips.Candidates; got != want {
				t.Errorf("%s: attributed rejects %d != result rejects %d", name, got, want)
			}
			if tr.Dropped() != 0 {
				t.Errorf("%s: trace dropped %d events", name, tr.Dropped())
			}
		}
	}
}

// Randomized reconciliation: attribution stays exact on arbitrary
// documents, patterns, ACLs and page sizes.
func TestAnalyzeAttributionRandom(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := xmlmodel.Doc(rng, 80+rng.Intn(300), xmlmodel.Mixed)
		const subjects = 2
		m := acl.NewMatrix(doc.Len(), subjects)
		for n := 0; n < doc.Len(); n++ {
			for s := 0; s < subjects; s++ {
				m.Set(xmltree.NodeID(n), acl.SubjectID(s), rng.Intn(100) < 70)
			}
		}
		e := newExplainEnv(t, doc, m, 96+rng.Intn(300))
		pt := MustParse(xmlmodel.Twig(rng, doc))
		opts := Options{}
		if rng.Intn(3) > 0 {
			opts.View = e.ss.ViewSubject(acl.SubjectID(rng.Intn(subjects)))
			if rng.Intn(2) == 0 {
				opts.Semantics = SemanticsPrunedSubtree
			}
		}
		plan, err := e.ev.Explain(ctx, pt, opts)
		if err != nil {
			t.Fatalf("seed %d: explain: %v", seed, err)
		}
		tr := obs.NewTrace()
		opts.Trace = tr
		before := e.pool.Stats()
		if _, err := e.ev.EvaluateCtx(ctx, pt, opts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d := poolDelta(e.pool, before)
		if plan.Unsatisfiable || plan.EmptyAccess {
			if d.Gets != 0 {
				t.Errorf("seed %d: short-circuited query pinned %d pages", seed, d.Gets)
			}
			continue
		}
		an := AnalyzeTrace(plan, tr.Events(), tr.Dropped())
		if tot := an.Totals(); tot.Pins != d.Gets || an.Other.Pins != 0 {
			t.Errorf("seed %d: attributed %d pins (residual %d), pool delta %d",
				seed, tot.Pins, an.Other.Pins, d.Gets)
		}
	}
}

// poolDelta returns the pool's gets and hits since before.
func poolDelta(pool *storage.BufferPool, before storage.PoolStats) storage.PoolStats {
	s := pool.Stats()
	return storage.PoolStats{Gets: s.Gets - before.Gets, Hits: s.Hits - before.Hits}
}
