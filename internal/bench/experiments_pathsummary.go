package bench

import (
	"fmt"
	"time"

	"dolxml/internal/query"
	"dolxml/internal/xmark"
)

// unsatisfiableQuery pairs every tag with an existing one, but in an order
// no XMark root-to-leaf path realizes: person subtrees never contain a
// parlist. A tag-existence check cannot prove it empty; only the path
// summary can, so the routed arm must answer from zero pages.
const unsatisfiableQuery = "/site/people/person/parlist"

// PathSummary measures path-summary routing on the Table 1 workload: every
// query runs under both secure semantics, with routing enabled and
// disabled, from a cold pool each time.
// The disabled arm skips pages on access grounds only, so the deltas show
// everything the path summary adds on top of the deny bitmap: structural
// dead pages, path-class candidate filtering, and pre-resolved access
// verdicts.
//
// The guarantees under test, each breach recorded as a "VIOLATION:" note
// (failing `dolbench -strict`):
//   - answers are byte-identical across routing on/off;
//   - routing never reads more pages than the access-mask-only arm;
//   - on the descendant twigs Q4–Q6, whose index candidates scatter over
//     the whole document, routing prunes candidates: on at least two of the
//     three it rejects postings (pathCands > 0, and 0 with routing off)
//     under both semantics, and on every row the scans start from no more
//     candidates than in the access-mask-only arm;
//   - the structurally unsatisfiable query is answered from zero pages
//     with the compile-time empty short-circuit reporting it.
//
// The descendant twigs are gated on candidates, not on a strict page
// reduction: the structural semi-join reads the index postings alone, so it
// runs in both arms, and there it also removes the postings routing rejects
// (a listitem on a path with no keyword below it holds no keyword posting
// either) — joinCands counts what it removes after routing, and the arms
// read the same pages. The rooted twigs Q1–Q3 are reported but gated only on
// never-more: the boundary pages their child scans skip are the pageskip
// experiment's subject. The on/off page ratio is still recorded per row for
// regression tracking.
func PathSummary(cfg Config) []*Table {
	// Quarter-size blocks, as in the pageskip experiment: page skipping
	// needs more blocks than XMark sections to have boundaries to skip.
	small := cfg
	small.PageSize = cfg.PageSize / 4
	if small.PageSize < 256 {
		small.PageSize = 256
	}

	doc := xmark.Generate(xmark.Scaled(cfg.Seed, cfg.XMarkNodes))
	m := singleSubjectACL(doc, cfg.Seed+23, 70)

	t := &Table{
		ID: "pathsummary",
		Title: fmt.Sprintf("path-summary routing, Q1–Q6 × semantics (XMark, %d nodes, %d B pages)",
			doc.Len(), small.PageSize),
		Columns: []string{"query", "semantics", "path",
			"pages", "pathCands", "joinCands", "classes", "time", "answers"},
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

	// routedTwigs counts the descendant twigs on which routing rejected
	// postings under both semantics.
	routedTwigs := 0
	for _, q := range Table1 {
		pt := query.MustParse(q.Expr)
		descendantTwig := q.Name == "Q4" || q.Name == "Q5" || q.Name == "Q6"
		routes := descendantTwig
		for _, sem := range semantics {
			type arm struct {
				res   *query.Result
				pages int64
			}
			var arms [2]arm // [0] = routing on, [1] = off
			for i, disable := range []bool{false, true} {
				opts := sem.opts
				opts.DisablePathSummary = disable
				res, pages, elapsed, err := env.coldQuery(pt, opts)
				if err != nil {
					t.Notes = append(t.Notes, "ERROR: "+err.Error())
					return []*Table{t}
				}
				arms[i] = arm{res: res, pages: pages}
				label := "on"
				if disable {
					label = "off"
				}
				t.AddRow(q.Name, sem.name, label,
					fmt.Sprintf("%d", pages),
					fmt.Sprintf("%d", res.Skips.PathCandidates),
					fmt.Sprintf("%d", res.Skips.JoinCandidates),
					fmt.Sprintf("%d", res.Skips.PathClasses),
					elapsed.Round(time.Microsecond).String(),
					fmt.Sprintf("%d", len(res.Nodes)))
			}
			if !equalNodes(arms[0].res.Nodes, arms[1].res.Nodes) {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"VIOLATION: %s/%s answers differ with path routing enabled",
					q.Name, sem.name))
			}
			if arms[0].pages > arms[1].pages {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"VIOLATION: %s/%s read %d pages with path routing vs %d without",
					q.Name, sem.name, arms[0].pages, arms[1].pages))
			}
			if !descendantTwig {
				continue
			}
			// Both arms start from the same postings, so the arm that
			// removed more of them scans fewer.
			on, off := arms[0].res.Skips, arms[1].res.Skips
			if on.PathCandidates+on.JoinCandidates < off.PathCandidates+off.JoinCandidates {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"VIOLATION: %s/%s scans more candidates with path routing: %d+%d removed vs %d+%d without",
					q.Name, sem.name, on.PathCandidates, on.JoinCandidates, off.PathCandidates, off.JoinCandidates))
			}
			if on.PathCandidates == 0 || off.PathCandidates != 0 {
				routes = false
			}
		}
		if routes {
			routedTwigs++
		}
	}

	if routedTwigs < 2 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"VIOLATION: path routing rejected candidates on only %d of the descendant twigs Q4-Q6; want at least 2", routedTwigs))
	}

	// The unsatisfiable twig: routing must prove it empty at compile time
	// and pin nothing; the access-mask-only arm shows the pages saved.
	pt := query.MustParse(unsatisfiableQuery)
	for i, disable := range []bool{false, true} {
		opts := query.Options{View: view, DisablePathSummary: disable}
		res, pages, elapsed, err := env.coldQuery(pt, opts)
		if err != nil {
			t.Notes = append(t.Notes, "ERROR: "+err.Error())
			return []*Table{t}
		}
		label := "on"
		if disable {
			label = "off"
		}
		t.AddRow("Qunsat", "bindings", label,
			fmt.Sprintf("%d", pages),
			fmt.Sprintf("%d", res.Skips.PathCandidates),
			fmt.Sprintf("%d", res.Skips.JoinCandidates),
			fmt.Sprintf("%d", res.Skips.PathClasses),
			elapsed.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", len(res.Nodes)))
		if len(res.Nodes) != 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"VIOLATION: unsatisfiable query returned %d answers (path=%s)", len(res.Nodes), label))
		}
		if i == 0 {
			if pages != 0 {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"VIOLATION: unsatisfiable query pinned %d pages with path routing; want 0", pages))
			}
			if res.Skips.PathEmpty != 1 {
				t.Notes = append(t.Notes,
					"VIOLATION: unsatisfiable query did not report the compile-time empty short-circuit")
			}
		}
	}

	t.Notes = append(t.Notes,
		"path routing on must never read more pages than off, with byte-identical answers",
		"descendant twigs Q4-Q6: routing must reject postings (pathCands) on at least two of them and never leave more candidates to scan; the semi-join on the index postings (joinCands) runs in both arms and also removes what routing rejects, so their pages are equal; rooted twigs Q1-Q3 are gated on never-more only (their boundary pages are the pageskip experiment's subject)",
		fmt.Sprintf("Qunsat is %s: every tag exists, no root-to-leaf path matches", unsatisfiableQuery))
	return []*Table{t}
}
