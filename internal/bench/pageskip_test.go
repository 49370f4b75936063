package bench

import (
	"fmt"
	"testing"

	"dolxml/internal/query"
	"dolxml/internal/xmark"
)

// Struct skip on/off under default routing, asserted at bench scale: every
// Table 1 query returns byte-identical answers either way, under both
// secure semantics; from a cold pool the
// enabled runs never read more pages, and strictly fewer for the child-scan
// queries Q1–Q3 at 256–1024 B pages.
func TestPageSkipEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale equivalence in short mode")
	}
	cfg := QuickConfig()
	doc := xmark.Generate(xmark.Scaled(cfg.Seed, cfg.XMarkNodes))
	m := singleSubjectACL(doc, cfg.Seed+23, 70)
	for _, pageSize := range []int{256, 512, 1024} {
		cfg.PageSize = pageSize
		env, err := buildQueryEnv(cfg, doc, m)
		if err != nil {
			t.Fatal(err)
		}
		view := env.ss.ViewSubject(0)

		semantics := []struct {
			name string
			opts query.Options
		}{
			{"bindings", query.Options{View: view}},
			{"pruned", query.Options{View: view, Semantics: query.SemanticsPrunedSubtree}},
		}

		for qi, q := range Table1 {
			pt := query.MustParse(q.Expr)
			for _, sem := range semantics {
				name := fmt.Sprintf("%s/%s/%dB", q.Name, sem.name, pageSize)
				off := sem.opts
				off.DisableSummarySkip = true
				want, pagesOff, _, err := env.coldQuery(pt, off)
				if err != nil {
					t.Fatalf("%s off: %v", name, err)
				}
				on := sem.opts
				got, pagesOn, _, err := env.coldQuery(pt, on)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !equalNodes(got.Nodes, want.Nodes) || got.Matches != want.Matches {
					t.Errorf("%s: struct skip changed answers (%d/%d vs %d/%d)",
						name, len(got.Nodes), got.Matches, len(want.Nodes), want.Matches)
				}
				if pagesOn > pagesOff || qi < 3 && pagesOn == pagesOff {
					t.Errorf("%s: struct skip read %d pages, disabled read %d", name, pagesOn, pagesOff)
				}
			}
		}
	}
}

// The pageskip experiment table itself must carry no VIOLATION notes and
// show a strict page reduction for at least two queries (the CI smoke
// mirrors the first half via dolbench -strict).
func TestPageSkipShape(t *testing.T) {
	tb := runQuick(t, "pageskip")[0]
	for _, note := range tb.Notes {
		if len(note) >= 9 && note[:9] == "VIOLATION" {
			t.Error(note)
		}
	}
	// Rows interleave on/off per query×semantics; compare adjacent pairs.
	improved := map[string]bool{}
	for i := 0; i+1 < len(tb.Rows); i += 2 {
		on, offRow := tb.Rows[i], tb.Rows[i+1]
		if on[0] != offRow[0] || on[2] != "on" || offRow[2] != "off" {
			t.Fatalf("row pairing broken at %d: %v / %v", i, on, offRow)
		}
		pOn := cellInt(t, on[3])
		pOff := cellInt(t, offRow[3])
		if pOn > pOff {
			t.Errorf("%s/%s: %d pages on vs %d off", on[0], on[1], pOn, pOff)
		}
		if pOn < pOff {
			improved[on[0]] = true
		}
		if on[7] != offRow[7] {
			t.Errorf("%s/%s: answer counts differ (%s vs %s)", on[0], on[1], on[7], offRow[7])
		}
	}
	if len(improved) < 2 {
		t.Errorf("only %d queries improved; want a strict page reduction on at least 2", len(improved))
	}
}
