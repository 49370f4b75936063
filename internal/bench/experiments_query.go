package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"dolxml/internal/acl"
	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/query"
	"dolxml/internal/storage"
	"dolxml/internal/synthacl"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
)

// Table1 is the paper's benchmark query workload. Q1–Q3 are the three NoK
// pattern-tree classes (branches at the end, in the middle, single path);
// Q4–Q6 are ancestor-descendant structural joins with close, medium and
// distant descendants.
//
// Note: the paper's text lists Q3 as
// "/site/categories/category/name[description/text/bold]" but describes it
// as "a single path"; the predicate form is Q2's class, so we take Q3 as
// the single path through the same elements (see EXPERIMENTS.md).
var Table1 = []struct {
	Name string
	Expr string
}{
	{"Q1", "/site/regions/africa/item[location][name][quantity]"},
	{"Q2", "/site/categories/category[name]/description/text/bold"},
	{"Q3", "/site/categories/category/description/text/bold"},
	{"Q4", "//parlist//parlist"},
	{"Q5", "//listitem//keyword"},
	{"Q6", "//item//emph"},
}

// queryEnv is a built store + index + evaluator over one ACL labeling.
type queryEnv struct {
	doc  *xmltree.Document
	pool *storage.BufferPool
	ss   *dol.SecureStore
	ev   *query.Evaluator
}

// singleSubjectACL labels doc for one subject with the §5 synthetic
// generator (propagation ratio 30 %, root forced accessible so anchored
// queries are not trivially empty).
func singleSubjectACL(doc *xmltree.Document, seed int64, accPct int) *acl.Matrix {
	accSet := synthacl.Synthetic(doc, synthacl.SynthConfig{
		Seed:                seed,
		PropagationRatio:    0.3,
		AccessibilityRatio:  float64(accPct) / 100,
		ForceRootAccessible: true,
	})
	m := acl.NewMatrix(doc.Len(), 1)
	for n := 0; n < doc.Len(); n++ {
		if accSet.Test(n) {
			m.Set(xmltree.NodeID(n), 0, true)
		}
	}
	return m
}

func buildQueryEnv(cfg Config, doc *xmltree.Document, m *acl.Matrix) (*queryEnv, error) {
	pool := storage.NewBufferPool(storage.NewMemPager(cfg.PageSize), cfg.PoolPages)
	ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{})
	if err != nil {
		return nil, err
	}
	idx, err := btree.BuildFromDocument(pool, doc)
	if err != nil {
		return nil, err
	}
	return &queryEnv{doc: doc, pool: pool, ss: ss, ev: query.NewEvaluator(ss.Store(), idx)}, nil
}

// timeQuery measures one evaluation configuration: cold-cache page misses
// for the first run, then the best of runs warm timings.
func (e *queryEnv) timeQuery(pt *query.PatternTree, opts query.Options, runs int) (elapsed time.Duration, answers int, pages int64, err error) {
	if err := e.pool.DropAll(); err != nil {
		return 0, 0, 0, err
	}
	e.pool.ResetStats()
	res, err := e.ev.EvaluateCtx(context.Background(), pt, opts)
	if err != nil {
		return 0, 0, 0, err
	}
	pages = e.pool.Stats().Misses
	answers = len(res.Nodes)
	best := time.Duration(1<<62 - 1)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if _, err := e.ev.EvaluateCtx(context.Background(), pt, opts); err != nil {
			return 0, 0, 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, answers, pages, nil
}

// Fig7 reproduces Figure 7(a–c): ε-NoK vs non-secure NoK on Q1–Q3 as the
// percentage of accessible nodes sweeps 50–80 %, reporting the
// processing-time ratio and the answers-returned ratio.
//
// Paper shape: the time ratio hovers around 1.02 (≤ ~1.2 worst case) and
// does not depend on the accessibility ratio, because access checks cost
// no extra I/O; the answers ratio tracks the accessibility ratio; at low
// accessibility the secure evaluator can even win via page skipping.
func Fig7(cfg Config) []*Table {
	doc := xmark.Generate(xmark.Scaled(cfg.Seed, cfg.XMarkNodes))
	accPcts := []int{50, 60, 70, 80}
	trials := cfg.ACLTrials
	if trials < 1 {
		trials = 1
	}
	queries := Table1[:3]

	type cell struct {
		plainTime, secTime   time.Duration
		plainAns, secAns     int
		plainPages, secPages int64
	}
	cells := make([][]cell, len(queries)) // [query][accIdx]
	for i := range cells {
		cells[i] = make([]cell, len(accPcts))
	}

	// Build each (accessibility, trial) environment once and run all
	// three queries over it.
	var buildErr error
	for ai, accPct := range accPcts {
		for trial := 0; trial < trials; trial++ {
			m := singleSubjectACL(doc, cfg.Seed+int64(accPct)+int64(trial)*1000, accPct)
			env, err := buildQueryEnv(cfg, doc, m)
			if err != nil {
				buildErr = err
				break
			}
			view := env.ss.ViewSubject(0)
			for qi, q := range queries {
				pt := query.MustParse(q.Expr)
				plainTime, plainAns, plainPages, err := env.timeQuery(pt, query.Options{}, cfg.QueryRuns)
				if err != nil {
					buildErr = err
					break
				}
				secTime, secAns, secPages, err := env.timeQuery(pt, query.Options{View: view}, cfg.QueryRuns)
				if err != nil {
					buildErr = err
					break
				}
				c := &cells[qi][ai]
				c.plainTime += plainTime
				c.secTime += secTime
				c.plainAns += plainAns
				c.secAns += secAns
				c.plainPages += plainPages
				c.secPages += secPages
			}
		}
	}

	var tables []*Table
	for qi, q := range queries {
		t := &Table{
			ID:    "fig7" + string('a'+rune(qi)),
			Title: fmt.Sprintf("ε-NoK vs NoK, %s = %s (XMark, %d nodes)", q.Name, q.Expr, doc.Len()),
			Columns: []string{"access%", "timeRatio", "answersRatio",
				"secAnswers", "plainAnswers", "secPages", "plainPages"},
		}
		if buildErr != nil {
			t.Notes = append(t.Notes, "ERROR: "+buildErr.Error())
			tables = append(tables, t)
			continue
		}
		for ai, accPct := range accPcts {
			c := cells[qi][ai]
			ansRatio := 0.0
			if c.plainAns > 0 {
				ansRatio = float64(c.secAns) / float64(c.plainAns)
			}
			t.AddRow(fmt.Sprintf("%d", accPct),
				fmt.Sprintf("%.3f", float64(c.secTime)/float64(c.plainTime)),
				fmt.Sprintf("%.3f", ansRatio),
				fmt.Sprintf("%d", c.secAns/trials),
				fmt.Sprintf("%d", c.plainAns/trials),
				fmt.Sprintf("%d", c.secPages/int64(trials)),
				fmt.Sprintf("%d", c.plainPages/int64(trials)))
		}
		t.Notes = append(t.Notes,
			"paper: time ratio ≈ 1.02, independent of accessibility; answers ratio tracks accessibility")
		tables = append(tables, t)
	}
	return tables
}

// Joins reproduces the §4.2 structural-join experiments on Q4–Q6: the
// non-secure STD baseline, secure evaluation under the bindings (Cho et
// al.) semantics, and the ε-STD pruned-subtree (Gabillon–Bruno) semantics.
//
// Paper claim: ε-STD aggressively prunes unsecured matches while loading
// each page at most once, regardless of the accessibility distribution.
func Joins(cfg Config) []*Table {
	doc := xmark.Generate(xmark.Scaled(cfg.Seed, cfg.XMarkNodes))
	var tables []*Table
	for _, q := range Table1[3:] {
		t := &Table{
			ID:    "join" + q.Name,
			Title: fmt.Sprintf("structural join, %s = %s (XMark, %d nodes)", q.Name, q.Expr, doc.Len()),
			Columns: []string{"access%", "plainAns", "bindAns", "prunedAns",
				"bindTimeRatio", "prunedTimeRatio", "prunedPages", "plainPages"},
		}
		pt := query.MustParse(q.Expr)
		for _, accPct := range []int{50, 70, 90} {
			m := singleSubjectACL(doc, cfg.Seed+int64(accPct)+7, accPct)
			env, err := buildQueryEnv(cfg, doc, m)
			if err != nil {
				t.Notes = append(t.Notes, "ERROR: "+err.Error())
				break
			}
			view := env.ss.ViewSubject(0)
			plainTime, plainAns, plainPages, err := env.timeQuery(pt, query.Options{}, cfg.QueryRuns)
			if err != nil {
				t.Notes = append(t.Notes, "ERROR: "+err.Error())
				break
			}
			bindTime, bindAns, _, err := env.timeQuery(pt, query.Options{View: view}, cfg.QueryRuns)
			if err != nil {
				t.Notes = append(t.Notes, "ERROR: "+err.Error())
				break
			}
			prunedTime, prunedAns, prunedPages, err := env.timeQuery(pt,
				query.Options{View: view, Semantics: query.SemanticsPrunedSubtree}, cfg.QueryRuns)
			if err != nil {
				t.Notes = append(t.Notes, "ERROR: "+err.Error())
				break
			}
			t.AddRow(fmt.Sprintf("%d", accPct),
				fmt.Sprintf("%d", plainAns),
				fmt.Sprintf("%d", bindAns),
				fmt.Sprintf("%d", prunedAns),
				fmt.Sprintf("%.3f", float64(bindTime)/float64(plainTime)),
				fmt.Sprintf("%.3f", float64(prunedTime)/float64(plainTime)),
				fmt.Sprintf("%d", prunedPages),
				fmt.Sprintf("%d", plainPages))
		}
		t.Notes = append(t.Notes,
			"pruned semantics answers ⊆ bindings semantics answers ⊆ plain answers")
		tables = append(tables, t)
	}
	return tables
}

// Ablation quantifies the §3.3 page-skipping optimization on its own: the
// same secure ε-NoK evaluation with and without directory-based skipping
// of fully inaccessible pages, across low accessibility ratios where whole
// pages are denied. DESIGN.md calls this design choice out; the paper
// credits it for the secure evaluator beating the non-secure one at low
// accessibility.
func Ablation(cfg Config) *Table {
	// Item-dominated instance: each region's item list spans many pages,
	// so a contiguous denied range can cover whole pages.
	doc := xmark.Generate(xmark.Config{
		Seed:            cfg.Seed,
		Items:           cfg.XMarkNodes / 90,
		Categories:      20,
		People:          20,
		OpenAuctions:    10,
		ClosedAuctions:  10,
		MaxParlistDepth: 2,
	})
	t := &Table{
		ID:    "ablation",
		Title: fmt.Sprintf("page-skip ablation, Q1 secure evaluation (XMark, %d nodes)", doc.Len()),
		Columns: []string{"access%", "pagesWithSkip", "pagesNoSkip",
			"timeWithSkip", "timeNoSkip", "answersEqual"},
	}
	pt := query.MustParse(Table1[0].Expr)
	// Page skipping pays off when a *contiguous* run of siblings spanning
	// whole pages is denied — e.g. an "archived items hidden" policy. Deny
	// the middle (100−accPct)% of every region's item list.
	for _, accPct := range []int{5, 10, 20, 40} {
		m := acl.NewMatrix(doc.Len(), 1)
		for n := 0; n < doc.Len(); n++ {
			m.Set(xmltree.NodeID(n), 0, true)
		}
		for _, region := range []string{"africa", "asia", "australia", "europe", "namerica", "samerica"} {
			for _, r := range doc.NodesWithTag(region) {
				items := doc.Children(r)
				if len(items) < 4 {
					continue
				}
				keep := len(items) * accPct / 100
				lo := items[keep/2+1]
				hi := doc.End(items[len(items)-1-keep/2-1])
				for n := lo; n <= hi; n++ {
					m.Set(n, 0, false)
				}
			}
		}
		env, err := buildQueryEnv(cfg, doc, m)
		if err != nil {
			t.Notes = append(t.Notes, "ERROR: "+err.Error())
			return t
		}
		view := env.ss.ViewSubject(0)
		skipTime, skipAns, skipPages, err := env.timeQuery(pt, query.Options{View: view}, cfg.QueryRuns)
		if err != nil {
			t.Notes = append(t.Notes, "ERROR: "+err.Error())
			return t
		}
		noTime, noAns, noPages, err := env.timeQuery(pt,
			query.Options{View: view, DisablePageSkip: true}, cfg.QueryRuns)
		if err != nil {
			t.Notes = append(t.Notes, "ERROR: "+err.Error())
			return t
		}
		t.AddRow(fmt.Sprintf("%d", accPct),
			fmt.Sprintf("%d", skipPages),
			fmt.Sprintf("%d", noPages),
			skipTime.Round(time.Microsecond).String(),
			noTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%v", skipAns == noAns))
	}
	t.Notes = append(t.Notes,
		"skipping must never change answers; it saves page reads at low accessibility")
	return t
}

// Updates reproduces the §3.4 analysis: accessibility updates touch only
// the affected region's pages, subtree updates cost about N/B page writes,
// and every update grows the transition count by at most 2 (Prop. 1).
func Updates(cfg Config) *Table {
	doc := xmark.Generate(xmark.Scaled(cfg.Seed, cfg.XMarkNodes/4))
	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	const subjects = 8
	m := acl.NewMatrix(doc.Len(), subjects)
	for s := 0; s < subjects; s++ {
		accSet := synthacl.Synthetic(doc, synthacl.SynthConfig{
			Seed:               cfg.Seed + int64(s),
			PropagationRatio:   0.1,
			AccessibilityRatio: 0.5,
		})
		for n := 0; n < doc.Len(); n++ {
			if accSet.Test(n) {
				m.Set(xmltree.NodeID(n), acl.SubjectID(s), true)
			}
		}
	}
	pool := storage.NewBufferPool(storage.NewMemPager(cfg.PageSize), cfg.PoolPages)
	ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{})
	t := &Table{
		ID:      "updates",
		Title:   fmt.Sprintf("update locality and Proposition 1 (XMark, %d nodes, %d subjects)", doc.Len(), subjects),
		Columns: []string{"operation", "count", "avgPagesWritten", "maxTransGrowth", "prop1Violations"},
	}
	if err != nil {
		t.Notes = append(t.Notes, "ERROR: "+err.Error())
		return t
	}

	measure := func(name string, count int, op func() (xmltree.NodeID, int)) {
		var pagesSum int64
		maxGrowth := 0
		violations := 0
		for i := 0; i < count; i++ {
			before, err := ss.TransitionCount()
			if err != nil {
				t.Notes = append(t.Notes, "ERROR: "+err.Error())
				return
			}
			w0 := pool.Pager().Stats().Writes
			if err := pool.FlushAll(); err != nil {
				t.Notes = append(t.Notes, "ERROR: "+err.Error())
				return
			}
			w0 = pool.Pager().Stats().Writes
			_, expected := op()
			if err := pool.FlushAll(); err != nil {
				t.Notes = append(t.Notes, "ERROR: "+err.Error())
				return
			}
			pagesSum += pool.Pager().Stats().Writes - w0
			after, err := ss.TransitionCount()
			if err != nil {
				t.Notes = append(t.Notes, "ERROR: "+err.Error())
				return
			}
			growth := after - before
			if growth > maxGrowth {
				maxGrowth = growth
			}
			if growth > expected {
				violations++
			}
		}
		t.AddRow(name, fmt.Sprintf("%d", count),
			fmt.Sprintf("%.1f", float64(pagesSum)/float64(count)),
			fmt.Sprintf("%d", maxGrowth),
			fmt.Sprintf("%d", violations))
	}

	measure("node accessibility flip", 50, func() (xmltree.NodeID, int) {
		n := xmltree.NodeID(rng.Intn(doc.Len()))
		s := acl.SubjectID(rng.Intn(subjects))
		if err := ss.SetNodeAccess(n, s, rng.Intn(2) == 0); err != nil {
			panic(err)
		}
		return n, 2
	})
	measure("subtree accessibility flip", 30, func() (xmltree.NodeID, int) {
		n := xmltree.NodeID(rng.Intn(doc.Len()))
		s := acl.SubjectID(rng.Intn(subjects))
		if err := ss.SetSubtreeAccess(n, s, rng.Intn(2) == 0); err != nil {
			panic(err)
		}
		return n, 2
	})
	measure("subtree delete", 10, func() (xmltree.NodeID, int) {
		n := xmltree.NodeID(1 + rng.Intn(ss.Store().NumNodes()-1))
		if err := ss.DeleteSubtree(n); err != nil {
			panic(err)
		}
		return n, 2
	})
	// The N/B claim: flipping ever-larger subtrees writes proportionally
	// many consecutive pages. Pick targets near each size bucket.
	for _, target := range []int{100, 1000, 5000} {
		target := target
		var best xmltree.NodeID
		bestDiff := 1 << 30
		for n := 0; n < doc.Len(); n++ {
			d := doc.SubtreeSize(xmltree.NodeID(n)) - target
			if d < 0 {
				d = -d
			}
			if d < bestDiff {
				bestDiff = d
				best = xmltree.NodeID(n)
			}
		}
		size := doc.SubtreeSize(best)
		measure(fmt.Sprintf("subtree flip (~%d nodes)", size), 4, func() (xmltree.NodeID, int) {
			if err := ss.SetSubtreeAccess(best, acl.SubjectID(rng.Intn(subjects)), rng.Intn(2) == 0); err != nil {
				panic(err)
			}
			return best, 2
		})
	}
	t.Notes = append(t.Notes,
		"Proposition 1: each accessibility or structural update adds at most 2 transition nodes",
		"subtree updates write ~N/B consecutive pages (N = subtree size, B = nodes/page)")
	return t
}
