package bench

import (
	"context"
	"fmt"
	"time"

	"dolxml/internal/query"
	"dolxml/internal/xmark"
)

// StreamingLimits are the Options.Limit settings the streaming experiment
// sweeps; 0 means unlimited (full drain).
var StreamingLimits = []int{1, 10, 100, 0}

// Streaming measures the cursor pipeline's early-termination property:
// every Table 1 query (Q1–Q6) runs under the bindings semantics at
// increasing answer limits over one cold-cache in-memory store, reporting
// the time to the first answer, the time to drain the cursor, the pages
// read (cold-cache buffer-pool misses), and the answers returned. The
// reproduction target: at Limit = 1 both time-to-first and pages read sit
// strictly below the unlimited drain on page-bound queries — the limited
// cursor stops pulling, so the scans stop fetching pages. A query reads the
// same page sequence whatever its limit and stops in it where the limit is
// met, so a smaller limit never reads more pages: a breach is a "VIOLATION:"
// note (failing `dolbench -strict`).
//
// The emitted rows are machine-readable via the -json flag of cmd/dolbench
// (BENCH_streaming.json).
func Streaming(cfg Config) []*Table {
	doc := xmark.Generate(xmark.Scaled(cfg.Seed, cfg.XMarkNodes))
	t := &Table{
		ID: "streaming",
		Title: fmt.Sprintf("cursor pipeline early termination, Q1–Q6 (XMark, %d nodes)",
			doc.Len()),
		Columns: []string{"query", "limit", "first-answer", "drain", "pages", "answers"},
	}
	m := singleSubjectACL(doc, cfg.Seed+17, 70)
	env, err := buildQueryEnv(cfg, doc, m)
	if err != nil {
		t.Notes = append(t.Notes, "ERROR: "+err.Error())
		return []*Table{t}
	}
	view := env.ss.ViewSubject(0)
	ctx := context.Background()
	for _, q := range Table1 {
		pt := query.MustParse(q.Expr)
		prevPages := int64(0)
		for _, limit := range StreamingLimits {
			opts := query.Options{View: view, Limit: limit}
			first, total, answers, pages, err := env.streamQuery(ctx, pt, opts)
			if err != nil {
				t.Notes = append(t.Notes, "ERROR: "+err.Error())
				return []*Table{t}
			}
			if pages < prevPages {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"VIOLATION: %s limit %d read %d pages, a smaller limit read %d", q.Name, limit, pages, prevPages))
			}
			prevPages = pages
			limitLabel := fmt.Sprintf("%d", limit)
			if limit == 0 {
				limitLabel = "inf"
			}
			t.AddRow(q.Name, limitLabel,
				first.Round(time.Microsecond).String(),
				total.Round(time.Microsecond).String(),
				fmt.Sprintf("%d", pages),
				fmt.Sprintf("%d", answers))
		}
	}
	t.Notes = append(t.Notes,
		"cold cache per row: pages = buffer-pool misses over open + drain + close",
		"limit=inf drains the full answer set; smaller limits stop the cursor early",
		"bindings semantics, in-memory pager")
	return []*Table{t}
}

// streamQuery opens the cursor pipeline cold and measures time to the
// first answer, total drain time, answers returned, and pages read.
func (e *queryEnv) streamQuery(ctx context.Context, pt *query.PatternTree, opts query.Options) (first, total time.Duration, answers int, pages int64, err error) {
	if err := e.pool.DropAll(); err != nil {
		return 0, 0, 0, 0, err
	}
	e.pool.ResetStats()
	start := time.Now()
	a, err := e.ev.Open(ctx, pt, opts)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer a.Close()
	for {
		_, ok, err := a.Next(ctx)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if !ok {
			break
		}
		answers++
		if answers == 1 {
			first = time.Since(start)
		}
	}
	total = time.Since(start)
	if err := a.Close(); err != nil {
		return 0, 0, 0, 0, err
	}
	pages = e.pool.Stats().Misses
	return first, total, answers, pages, nil
}
