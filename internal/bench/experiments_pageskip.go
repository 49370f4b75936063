package bench

import (
	"fmt"
	"hash/fnv"
	"time"

	"dolxml/internal/query"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
)

// coldQuery runs one evaluation from a cold buffer pool, returning the full
// result (including skip counters) and the physical pages read. The decoded-
// block cache deliberately stays warm: its hits still acquire the page
// through the pool, so the Misses counter remains an honest page-read count.
func (e *queryEnv) coldQuery(pt *query.PatternTree, opts query.Options) (*query.Result, int64, time.Duration, error) {
	if err := e.pool.DropAll(); err != nil {
		return nil, 0, 0, err
	}
	e.pool.ResetStats()
	start := time.Now()
	res, err := e.ev.Evaluate(pt, opts)
	if err != nil {
		return nil, 0, 0, err
	}
	return res, e.pool.Stats().Misses, time.Since(start), nil
}

func equalNodes(a, b []xmltree.NodeID) bool {
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

// PageSkip measures structure-aware page skipping — the path summary's
// per-block class bitsets fused with the access deny bitmap — on the
// Table 1 workload: every query runs under both secure semantics with the
// structural bits on and off (DisableSummarySkip), path routing on in both
// arms as it is wherever the engine is served, from a cold pool each time.
// The guarantees under test: answers are byte-identical either way, and
// the enabled runs never read more pages — strictly fewer wherever a child
// scan crosses blocks that hold none of its classes (Q1–Q3 boundary pages;
// Q4–Q6 have no child scans below the root, so their delta is zero by
// construction). Any breach is recorded as a "VIOLATION:" note, which
// `dolbench -strict` turns into a failure. The second table is pageCensus.
func PageSkip(cfg Config) []*Table {
	// Quarter-size blocks sharpen page granularity: with the default 4 KiB
	// blocks a handful of pages holds entire XMark sections and there is
	// little boundary to skip at bench scale.
	small := cfg
	small.PageSize = cfg.PageSize / 4
	if small.PageSize < 256 {
		small.PageSize = 256
	}

	doc := xmark.Generate(xmark.Scaled(cfg.Seed, cfg.XMarkNodes))
	m := singleSubjectACL(doc, cfg.Seed+23, 70)

	t := &Table{
		ID: "pageskip",
		Title: fmt.Sprintf("structure-aware page skipping, Q1–Q6 × semantics × struct skip (XMark, %d nodes, %d B pages)",
			doc.Len(), small.PageSize),
		Columns: []string{"query", "semantics", "structSkip",
			"pages", "skipStruct", "skipAccess", "time", "answers"},
	}

	env, err := buildQueryEnv(small, doc, m)
	if err != nil {
		t.Notes = append(t.Notes, "ERROR: "+err.Error())
		return []*Table{t}
	}
	view := env.ss.ViewSubject(0)

	semantics := []struct {
		name string
		opts query.Options
	}{
		{"bindings", query.Options{View: view}},
		{"pruned", query.Options{View: view, Semantics: query.SemanticsPrunedSubtree}},
	}

	for _, q := range Table1 {
		pt := query.MustParse(q.Expr)
		for _, sem := range semantics {
			var res [2]*query.Result // [0] = struct skip on, [1] = off
			var pages [2]int64
			for i, disable := range []bool{false, true} {
				opts := sem.opts
				opts.DisableSummarySkip = disable
				var elapsed time.Duration
				res[i], pages[i], elapsed, err = env.coldQuery(pt, opts)
				if err != nil {
					t.Notes = append(t.Notes, "ERROR: "+err.Error())
					return []*Table{t}
				}
				label := "on"
				if disable {
					label = "off"
				}
				t.AddRow(q.Name, sem.name, label,
					fmt.Sprintf("%d", pages[i]),
					fmt.Sprintf("%d", res[i].Skips.StructPages),
					fmt.Sprintf("%d", res[i].Skips.AccessPages),
					elapsed.Round(time.Microsecond).String(),
					fmt.Sprintf("%d", len(res[i].Nodes)))
			}
			if !equalNodes(res[0].Nodes, res[1].Nodes) {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"VIOLATION: %s/%s answers differ with struct skip enabled", q.Name, sem.name))
			}
			if pages[0] > pages[1] {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"VIOLATION: %s/%s read %d pages with struct skip vs %d without",
					q.Name, sem.name, pages[0], pages[1]))
			}
		}
	}
	t.Notes = append(t.Notes,
		"struct skip on must never read more pages than off, with byte-identical answers",
		"Q4–Q6 run descendant-axis candidate matching with no child scans, so their page counts match by design")
	return []*Table{t, pageCensus(cfg, doc)}
}

// censusShapes extends Table 1 with wildcard steps, nested predicates and
// a wildcard root, which the path summary and a per-page tag set treat
// differently.
var censusShapes = []string{
	"/site/regions/*/item[mailbox/mail]/name",
	"/site/*/person[address/city]/emailaddress",
	"//*[from][to]",
	"/site/open_auctions/open_auction[bidder/increase]/annotation/description/text",
	"//closed_auction[price]//listitem/text/keyword",
}

// pageCensus runs Table 1 plus censusShapes under default options at four
// page sizes and two accessibility ratios, with and without a view under
// both semantics, and reports per (page size, ACL) the pages read and the
// pages skipped structurally, with a digest over the per-cell figures so
// two commits can be compared cell by cell (EXPERIMENTS.md): it must not
// move unless page skipping itself changes.
func pageCensus(cfg Config, doc *xmltree.Document) *Table {
	var pts []*query.PatternTree
	for _, q := range Table1 {
		pts = append(pts, query.MustParse(q.Expr))
	}
	for _, expr := range censusShapes {
		pts = append(pts, query.MustParse(expr))
	}
	t := &Table{
		ID: "pageskip_census",
		Title: fmt.Sprintf("default-options page census, %d queries × semantics × view per row (XMark, %d nodes)",
			len(pts), doc.Len()),
		Columns: []string{"pageSize", "acl%", "structCells", "pages", "skipStruct", "digest"},
	}
	for _, pageSize := range []int{256, 512, 1024, 4096} {
		for _, acc := range []int{30, 70} {
			c := cfg
			c.PageSize = pageSize
			env, err := buildQueryEnv(c, doc, singleSubjectACL(doc, cfg.Seed+23, acc))
			if err != nil {
				t.Notes = append(t.Notes, "ERROR: "+err.Error())
				return t
			}
			view := env.ss.ViewSubject(0)
			var structCells, pagesSum, structSum int64
			digest := fnv.New32a()
			for _, pt := range pts {
				for _, opts := range []query.Options{
					{}, {Semantics: query.SemanticsPrunedSubtree},
					{View: view}, {View: view, Semantics: query.SemanticsPrunedSubtree},
				} {
					res, pages, _, err := env.coldQuery(pt, opts)
					if err != nil {
						t.Notes = append(t.Notes, "ERROR: "+err.Error())
						return t
					}
					if res.Skips.StructPages > 0 {
						structCells++
					}
					pagesSum += pages
					structSum += res.Skips.StructPages
					fmt.Fprintf(digest, "%d,%d,%d;", pages, res.Skips.StructPages, len(res.Nodes))
				}
			}
			t.AddRow(fmt.Sprint(pageSize), fmt.Sprint(acc), fmt.Sprint(structCells),
				fmt.Sprint(pagesSum), fmt.Sprint(structSum), fmt.Sprintf("%08x", digest.Sum32()))
		}
	}
	t.Notes = append(t.Notes,
		"digest is FNV-1a over every cell's pages, skipStruct and answer count in run order: equal digests mean equal cells")
	return t
}
