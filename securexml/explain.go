package securexml

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"dolxml/internal/query"
)

// Plan is the structured form of one query's compiled evaluation plan:
// the pattern tree annotated with skip-mask and path-routing state, the
// path-summary embedding verdict, and the operator pipeline evaluation
// would build — computed by Store.Explain with zero execution. It
// marshals to JSON (the /explain payload) and renders as an indented
// text tree.
type Plan struct {
	p *query.Plan
}

// Unsatisfiable reports the path-summary short-circuit: the pattern has
// no embedding in the document's path summary, so evaluation returns
// empty without pinning a single page.
func (p *Plan) Unsatisfiable() bool { return p.p.Unsatisfiable }

// EmptyAccess reports the access-side short-circuit: every path class a
// pattern node can bind is uniformly denied to the subject.
func (p *Plan) EmptyAccess() bool { return p.p.EmptyAccess }

// Operators returns the number of pipeline operators the plan builds (0
// for a short-circuited plan).
func (p *Plan) Operators() int { return len(p.p.Operators) }

// MarshalJSON exposes the full plan structure.
func (p *Plan) MarshalJSON() ([]byte, error) { return json.Marshal(p.p) }

// WriteJSON writes the plan as indented JSON.
func (p *Plan) WriteJSON(w io.Writer) error { return p.p.WriteJSON(w) }

// WriteText renders the plan as an indented text tree.
func (p *Plan) WriteText(w io.Writer) error { return p.p.WriteText(w) }

// String renders the plan via WriteText.
func (p *Plan) String() string {
	var sb strings.Builder
	p.WriteText(&sb)
	return sb.String()
}

// Explain compiles the query exactly as QueryCtx would — same snapshot
// acquisition, subject view, skip-mask and path-routing compilation, and
// operator selection — and returns the plan without executing anything.
// An unsatisfiable or uniformly denied query reports its short-circuit
// without pinning any store page.
func (s *Store) Explain(ctx context.Context, user, mode, xpath string, opts QueryOptions) (*Plan, error) {
	p, err := s.prepare(nil, user, mode, xpath, opts)
	if err != nil {
		return nil, err
	}
	defer s.unprepare(&p)
	plan, err := p.ev.Explain(ctx, p.pt, p.qo)
	if err != nil {
		return nil, err
	}
	return &Plan{p: plan}, nil
}

// QueryAnalysis receives the outcome of an ANALYZE run: set
// QueryOptions.Analyze to a zero QueryAnalysis and QueryCtx fills it with
// the plan plus per-operator attribution folded from a forced full trace
// — pages pinned, pool hits, skips by cause, candidate rejections, join
// probes and span time per plan operator, with the per-operator page
// counts summing exactly to the buffer pool's pin delta for the query.
type QueryAnalysis struct {
	an *query.Analysis
}

// Ready reports whether the analysis has been filled by a query.
func (qa *QueryAnalysis) Ready() bool { return qa != nil && qa.an != nil }

// Plan returns the analyzed query's plan (nil before the query ran).
func (qa *QueryAnalysis) Plan() *Plan {
	if !qa.Ready() {
		return nil
	}
	return &Plan{p: qa.an.Plan}
}

// TotalPages returns the total pages pinned across every attribution
// bucket — the left-hand side of the reconciliation invariant.
func (qa *QueryAnalysis) TotalPages() int64 {
	if !qa.Ready() {
		return 0
	}
	return qa.an.Totals().Pins
}

// MarshalJSON exposes the full analysis structure.
func (qa *QueryAnalysis) MarshalJSON() ([]byte, error) {
	if !qa.Ready() {
		return []byte("null"), nil
	}
	return json.Marshal(qa.an)
}

// WriteJSON writes the analysis as indented JSON.
func (qa *QueryAnalysis) WriteJSON(w io.Writer) error {
	if !qa.Ready() {
		return fmt.Errorf("securexml: analysis not filled; run the query first")
	}
	return qa.an.WriteJSON(w)
}

// WriteText renders the plan followed by the per-operator attribution
// table.
func (qa *QueryAnalysis) WriteText(w io.Writer) error {
	if !qa.Ready() {
		return fmt.Errorf("securexml: analysis not filled; run the query first")
	}
	return qa.an.WriteText(w)
}

// fingerprintFor normalizes one parsed query to its flight-recorder
// fingerprint: the canonical pattern render plus the semantics and the
// options that change the plan. Two textually different XPath strings
// with the same pattern share a fingerprint.
func fingerprintFor(pt *query.PatternTree, opts QueryOptions) string {
	var b strings.Builder
	b.WriteString(pt.String())
	switch {
	case opts.Unrestricted:
		b.WriteString("|unrestricted")
	case opts.Pruned:
		b.WriteString("|pruned")
	default:
		b.WriteString("|bindings")
	}
	if opts.Limit > 0 {
		fmt.Fprintf(&b, "|limit=%d", opts.Limit)
	}
	if opts.DisableSummarySkip {
		b.WriteString("|nosummary")
	}
	if opts.DisablePathSummary {
		b.WriteString("|nopath")
	}
	return b.String()
}

// QueryFingerprint returns the normalized fingerprint the flight
// recorder keys the query under — useful for correlating access-log
// lines with /debug/queries aggregates.
func QueryFingerprint(xpath string, opts QueryOptions) (string, error) {
	pt, err := query.Parse(xpath)
	if err != nil {
		return "", err
	}
	return fingerprintFor(pt, opts), nil
}
