package query

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dolxml/internal/btree"
	"dolxml/internal/nok"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// servedIndex is the tag index a served snapshot keeps for st: flat runs
// grouped by path class, with value runs over them (nil when st stores no
// values).
func servedIndex(t testing.TB, st *nok.Store) (*btree.Runs, ValueIndex) {
	t.Helper()
	x, err := st.ClassExtents()
	if err != nil {
		t.Fatal(err)
	}
	sum := st.Paths()
	tags := make([]int32, sum.NumNodes())
	for c := range tags {
		tags[c] = sum.NodeAt(int32(c)).Tag
	}
	runs, err := btree.NewClassRuns(x.Postings, st.NumTags(), btree.Classes{Of: x.Classes, Tag: tags, Numbering: sum.Numbering()})
	if err != nil {
		t.Fatal(err)
	}
	vs := st.Values()
	if vs == nil {
		return runs, nil
	}
	return runs, btree.NewValueRuns(runs, func(nodes []xmltree.NodeID) ([]string, error) {
		return vs.ValuesCtx(context.Background(), nodes)
	})
}

// servedSnapshot is what the facade hands NewEvaluatorAt for the env's
// store: the served index and an empty plan memo.
func (e *env) servedSnapshot(t testing.TB) Snapshot {
	runs, vi := servedIndex(t, e.ss.Store())
	return Snapshot{Store: e.ss.Store(), Index: runs, Values: vi, Masks: NewMaskCache(nil, nil), Seq: 1}
}

// Bindings semantics needs no guards: a plan answered under it builds none,
// and the first request under pruned semantics builds them.
func TestGuardsOnlyUnderPrunedSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	doc := xmlmodel.Doc(rng, 400, xmlmodel.Deep)
	e := newEnv(t, doc, xmlmodel.ACL(rng, doc, 1), 256)
	ev := NewEvaluatorAt(e.servedSnapshot(t))
	opts := Options{View: e.ss.ViewSubject(0)}
	for _, sem := range []Semantics{SemanticsBindings, SemanticsPrunedSubtree} {
		opts.Semantics = sem
		if _, err := ev.EvaluateCtx(context.Background(), MustParse("//a//b"), opts); err != nil {
			t.Fatal(err)
		}
		c, err := ev.compile(MustParse("//a//b"), opts)
		if err != nil || c.index == nil {
			t.Fatalf("no index plan (%v)", err)
		}
		if built := c.index.guardClasses != nil; built != (sem == SemanticsPrunedSubtree) {
			t.Fatalf("under semantics %d the guard classes are built: %v", sem, built)
		}
	}
}

// Class runs numbered otherwise than the store's path summary — here a
// summary rebuilt since they were grouped — are never read: compile and
// open fail and read no page, while the paper's engine, which reads no
// class, still answers over them.
func TestClassRunsOfAnotherNumberingFail(t *testing.T) {
	doc := miniXMark(t)
	e := newEnv(t, doc, allowAll(doc, 1), 256)
	sn := e.servedSnapshot(t)
	pt := MustParse(table1[0].xpath)
	opts := Options{View: e.ss.ViewSubject(0)}
	ev := NewEvaluatorAt(sn)
	if c, err := ev.compile(pt, opts); err != nil || c.index == nil {
		t.Fatalf("no index plan over the runs' own numbering (%v)", err)
	}
	want, err := ev.EvaluateCtx(context.Background(), pt, opts)
	if err != nil || len(want.Nodes) == 0 {
		t.Fatalf("%d answers, %v", len(want.Nodes), err)
	}
	if err := e.ss.Store().RebuildPathSummary(); err != nil {
		t.Fatal(err)
	}
	sn.Masks = NewMaskCache(nil, nil)
	ev = NewEvaluatorAt(sn)
	if _, err := ev.compile(pt, opts); err == nil || !strings.Contains(err.Error(), "numbered") {
		t.Fatalf("compile over another numbering's class runs: %v", err)
	}
	gets := e.pool.Stats().Gets
	if a, err := ev.open(context.Background(), pt, opts); err == nil {
		a.p.Close()
		t.Fatal("open over another numbering's class runs succeeded")
	}
	if n := e.pool.Stats().Gets - gets; n != 0 {
		t.Fatalf("the failed open read %d pages", n)
	}
	opts.DisablePathSummary = true
	got, err := ev.EvaluateCtx(context.Background(), pt, opts)
	if err != nil || !slices.Equal(got.Nodes, want.Nodes) {
		t.Fatalf("the paper's engine answers %v after the rebuild, %v before (%v)", got.Nodes, want.Nodes, err)
	}
}

// On a served snapshot Table 1's twigs, Q5 under a limit and a descendant
// root with a predicate explain as one index operator (under a limit), with
// its guards under pruned semantics; a descendant predicate, and every plan
// of the DisablePathSummary arm, keep the scans and joins.
func TestServedPlansExplainAsIndex(t *testing.T) {
	e := burstEnv(t)
	ev := NewEvaluatorAt(e.servedSnapshot(t))
	ctx := context.Background()
	for _, q := range []struct {
		xpath string
		limit int
		index bool
	}{
		{table1[3].xpath, 0, true},
		{table1[4].xpath, 0, true},
		{table1[4].xpath, 10, true},
		{table1[5].xpath, 0, true},
		{"//item[location]", 0, true},
		{"//parlist[//listitem]//keyword", 0, false},
	} {
		for _, sem := range []Semantics{SemanticsBindings, SemanticsPrunedSubtree} {
			for _, off := range []bool{false, true} {
				opts := Options{View: e.ss.ViewSubject(0), Semantics: sem, Limit: q.limit, DisablePathSummary: off}
				plan, err := ev.Explain(ctx, MustParse(q.xpath), opts)
				if err != nil {
					t.Fatal(err)
				}
				var kinds []string
				for _, op := range plan.Operators {
					kinds = append(kinds, op.Kind)
				}
				isIndex := slices.Contains(kinds, "index")
				if isIndex != (q.index && !off) || !isIndex && !slices.Contains(kinds, "scan") {
					t.Fatalf("%s (semantics %d, no path summary %v): operators %v", q.xpath, sem, off, kinds)
				}
				if isIndex && (plan.Operators[0].Guards > 0) != (sem == SemanticsPrunedSubtree && q.xpath != "//item[location]") {
					t.Errorf("%s (semantics %d): %d guards", q.xpath, sem, plan.Operators[0].Guards)
				}
				if isIndex && q.limit > 0 && kinds[len(kinds)-1] != "limit" {
					t.Errorf("%s: operators %v end without the limit", q.xpath, kinds)
				}
			}
		}
	}
}
