package query

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"strings"

	"dolxml/internal/obs"
)

// explain.go renders the value compile returns — flags, shape, route, mask
// and the per-subtree candidate decisions — into a structured
// Plan (EXPLAIN), and folds a traced run's event stream into per-operator
// attribution reconciled exactly against the registry deltas (ANALYZE). It
// decides nothing itself: Open instantiates its cursors from the same
// compiled value.
//
// Operator identity rides on trace events as an op label (obs.TraceEvent
// .Op): Open stamps each scan's context, each join, and the
// pruned-subtree path filter with a handle from Trace.ForOp, so every
// buffer-pool pin, skip, reject and probe lands in exactly one
// operator bucket. Events recorded outside any operator (the facade's
// parse span, answer conversion, snapshot pin) fold into the residual
// bucket — the partition stays exact by construction, which is what lets
// the ANALYZE invariant "per-operator page counts sum to the pool's pin
// delta" hold without any second accounting system.

// Operator labels. Plan.Operators[].Op uses the same strings the stamped
// trace events carry, so the ANALYZE fold joins them directly.
func opScan(i int) string { return fmt.Sprintf("scan%d", i) }
func opJoin(i int) string { return fmt.Sprintf("join%d", i) }
func opSort(i int) string { return fmt.Sprintf("sort%d", i) }

const (
	opFilter = "filter"
	opDedup  = "dedup"
	opLimit  = "limit"
	// OpOutput is the label the facade stamps on answer-conversion work —
	// the answers' value pages, and their blocks only when the returning
	// step is "*" (Result.Tag is AnyTag) — so it attributes to the output
	// step rather than the residual bucket.
	OpOutput = "output"
)

// Plan is the structured form of one query's compiled evaluation plan:
// the pattern tree annotated with mask and routing state, the embedding
// verdict, and the operator pipeline Open builds. It marshals to JSON and
// renders as an indented text tree; building it performs no execution and
// pins no store pages.
type Plan struct {
	// Query is the canonical pattern render (PatternTree.String).
	Query string `json:"query"`
	// Semantics is "bindings", "pruned", or "unsecured" (no view).
	Semantics string `json:"semantics"`
	// Limit is the answer limit (0 = none).
	Limit int `json:"limit,omitempty"`
	// PathRouting / StructSkip / AccessSkip record which halves of the
	// skip machinery are active for this query.
	PathRouting bool `json:"path_routing"`
	StructSkip  bool `json:"struct_skip"`
	AccessSkip  bool `json:"access_skip"`
	// TotalPages is the store's page count — the denominator for every
	// dead-page figure below.
	TotalPages int `json:"total_pages"`
	// Unsatisfiable is set when the path summary admits no embedding of
	// the pattern: the plan is the 0-page short-circuit and Operators is
	// empty.
	Unsatisfiable bool `json:"unsatisfiable,omitempty"`
	// EmptyAccess is set when every class some pattern node can bind is
	// uniformly denied to the view — same short-circuit, access-side.
	EmptyAccess bool `json:"empty_access,omitempty"`
	// PreResolvedClasses counts path classes whose access verdict was
	// resolved once from a uniform code instead of per node.
	PreResolvedClasses int64 `json:"preresolved_classes,omitempty"`
	// AccessDeniedPages is the view's page-deny bitmap population.
	AccessDeniedPages int `json:"access_denied_pages"`
	// Nodes is the annotated pattern tree, by PatternNode id (preorder).
	Nodes []PlanNode `json:"nodes"`
	// Operators is the pipeline bottom-up: per-subtree scans, the
	// pruned-subtree path filter, one join per cut edge (over a sort where
	// its left input is not ordered by the link), dedup, limit.
	Operators []PlanOp `json:"operators,omitempty"`
}

// PlanNode annotates one pattern node with its compiled mask and routing
// state.
type PlanNode struct {
	ID   int    `json:"id"`
	Step string `json:"step"`
	// Subtree is the NoK subtree the node belongs to.
	Subtree   int  `json:"subtree"`
	Returning bool `json:"returning,omitempty"`
	// StructDeadPages counts pages the node's child scans may skip because
	// the path summary places none of their classes there; FusedDeadPages
	// the same after fusing the view's deny bitmap (what evaluation
	// actually consults).
	StructDeadPages int `json:"struct_dead_pages"`
	FusedDeadPages  int `json:"fused_dead_pages"`
	// ClassesDown / ClassesMatched are the path-summary embedding sets
	// (matched ⊆ down); zero when routing is off.
	ClassesDown    int `json:"classes_down,omitempty"`
	ClassesMatched int `json:"classes_matched,omitempty"`
	// PreAllowChildren / PreAllowRoot are the uniform-class access
	// preresolution verdicts: child scans (or root-candidate checks) skip
	// per-node access checks entirely.
	PreAllowChildren bool `json:"pre_allow_children,omitempty"`
	PreAllowRoot     bool `json:"pre_allow_root,omitempty"`
	// ValueIndex says the node's value test is a lookup in the value-index
	// postings the plan holds, not a read of the node's stored value.
	ValueIndex bool  `json:"value_index,omitempty"`
	Children   []int `json:"children,omitempty"`
}

// PlanOp is one pipeline operator.
type PlanOp struct {
	// Op is the attribution label stamped on the operator's trace events.
	Op string `json:"op"`
	// Kind is "scan", "filter", "sort", "join", "dedup", or "limit".
	Kind string `json:"kind"`
	// Subtree is the NoK subtree index for scans, joins and sorts (else -1).
	Subtree int `json:"subtree"`
	// Root is the subtree root's pattern step for scans and joins; for a
	// sort, the step of the link it orders by.
	Root string `json:"root,omitempty"`
	// Algorithm names the operator variant: "nok" / "eps-nok" for scans,
	// "std" / "eps-std" for joins and the path filter.
	Algorithm string `json:"algorithm,omitempty"`
	// Candidates counts the root candidates the scan matches;
	// RejectedByPath the postings path routing rejected before any I/O, and
	// RejectedByJoin those the structural semi-join removed after it.
	Candidates     int    `json:"candidates,omitempty"`
	RejectedByPath int    `json:"rejected_by_path,omitempty"`
	RejectedByJoin int    `json:"rejected_by_join,omitempty"`
	CandidateSrc   string `json:"candidate_source,omitempty"`
	// Limit is the answer bound for the limit operator.
	Limit int `json:"limit,omitempty"`
	// Inputs are the op labels feeding this operator (render tree edges).
	Inputs []string `json:"inputs,omitempty"`
}

// stepString renders one pattern node as its XPath step.
func stepString(p *PatternNode) string {
	s := p.Axis.String() + p.Tag
	if p.Value != "" {
		s += fmt.Sprintf("[.=%q]", p.Value)
	}
	return s
}

// popcountSet counts set bits across a bitmap.
func popcountSet(w []uint64) int {
	n := 0
	for _, word := range w {
		n += bits.OnesCount64(word)
	}
	return n
}

// Explain compiles the pattern under the given options and renders the
// plan without executing it. Compilation reads the tag and value indexes
// only, so no store page is pinned.
func (ev *Evaluator) Explain(ctx context.Context, t *PatternTree, opts Options) (*Plan, error) {
	c, err := ev.compile(t, opts)
	if err != nil {
		return nil, err
	}
	return c.plan(), nil
}

// plan renders the compiled value.
func (c *compiled) plan() *Plan {
	t, subs, opts := c.t, c.subs, c.opts
	secure := opts.View != nil
	pruned := secure && opts.Semantics == SemanticsPrunedSubtree
	sem := "unsecured"
	if pruned {
		sem = "pruned"
	} else if secure {
		sem = "bindings"
	}
	plan := &Plan{
		Query:         c.query,
		Semantics:     sem,
		Limit:         opts.Limit,
		PathRouting:   c.pathOn,
		StructSkip:    c.structSkip,
		AccessSkip:    c.accessSkip,
		TotalPages:    c.numPages,
		Unsatisfiable: c.emptyStruct,
		Nodes:         make([]PlanNode, t.Len()),
	}
	if c.route != nil {
		plan.PreResolvedClasses = c.route.preResolved
		plan.EmptyAccess = c.route.emptyAccess
	}

	for i := range subs {
		var walk func(p *PatternNode)
		walk = func(p *PatternNode) {
			plan.Nodes[p.id].Subtree = i
			for _, k := range nokChildren(p) {
				walk(k)
			}
		}
		walk(subs[i].Root)
	}
	for _, p := range t.nodes {
		pn := &plan.Nodes[p.id]
		pn.ID, pn.Step, pn.Returning = p.id, stepString(p), p.Returning
		for _, k := range p.Children {
			pn.Children = append(pn.Children, k.id)
		}
	}
	if c.empty() {
		return plan
	}
	if c.mask != nil {
		plan.AccessDeniedPages = popcountSet(c.mask.access)
	}
	for _, p := range t.nodes {
		pn := &plan.Nodes[p.id]
		if c.structSkip {
			pn.StructDeadPages = popcountSet(c.dead[p.id])
		}
		if c.pathOn {
			pn.ClassesDown = popcountSet(c.down[p.id])
			pn.ClassesMatched = popcountSet(c.matched[p.id])
		}
		pn.ValueIndex = c.values[p.id] != nil
		pn.FusedDeadPages = popcountSet(c.mask.nodeBits(p))
		if c.route != nil {
			pn.PreAllowChildren = c.route.preAllow[p.id]
			pn.PreAllowRoot = c.route.preAllowRoot[p.id]
		}
	}

	// Operator pipeline, bottom-up as Open assembles it.
	scanAlg, joinAlg := "nok", "std"
	if secure {
		scanAlg = "eps-nok"
	}
	if pruned {
		joinAlg = "eps-std"
	}
	var topLabel string
	for i, sp := range c.scans {
		root := stepString(subs[i].Root)
		plan.Operators = append(plan.Operators, PlanOp{
			Op:             opScan(i),
			Kind:           "scan",
			Subtree:        i,
			Root:           root,
			Algorithm:      scanAlg,
			Candidates:     len(sp.cands),
			RejectedByPath: len(sp.routed),
			RejectedByJoin: sp.rejectedJoin,
			CandidateSrc:   sp.source,
		})
		switch {
		case i > 0:
			if c.sortLeft(i) {
				plan.Operators = append(plan.Operators, PlanOp{
					Op: opSort(i), Kind: "sort", Subtree: i, Root: stepString(subs[i].Link), Inputs: []string{topLabel},
				})
				topLabel = opSort(i)
			}
			plan.Operators = append(plan.Operators, PlanOp{
				Op:        opJoin(i),
				Kind:      "join",
				Subtree:   i,
				Root:      root,
				Algorithm: joinAlg,
				Inputs:    []string{topLabel, opScan(i)},
			})
			topLabel = opJoin(i)
		case pruned:
			plan.Operators = append(plan.Operators, PlanOp{
				Op:        opFilter,
				Kind:      "filter",
				Algorithm: "eps-std",
				Inputs:    []string{opScan(0)},
			})
			topLabel = opFilter
		default:
			topLabel = opScan(0)
		}
	}
	plan.Operators = append(plan.Operators, PlanOp{
		Op: opDedup, Kind: "dedup", Subtree: -1, Inputs: []string{topLabel},
	})
	if opts.Limit > 0 {
		plan.Operators = append(plan.Operators, PlanOp{
			Op: opLimit, Kind: "limit", Subtree: -1, Limit: opts.Limit, Inputs: []string{opDedup},
		})
	}
	return plan
}

// WriteJSON writes the plan as indented JSON.
func (p *Plan) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

// WriteText renders the plan as an indented text tree: header, annotated
// pattern, and the operator pipeline top-down.
func (p *Plan) WriteText(w io.Writer) error {
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr("query %s  semantics=%s", p.Query, p.Semantics)
	if p.Limit > 0 {
		pr(" limit=%d", p.Limit)
	}
	pr("\n")
	pr("skip: access=%v struct=%v path-routing=%v  pages=%d access-denied=%d",
		p.AccessSkip, p.StructSkip, p.PathRouting, p.TotalPages, p.AccessDeniedPages)
	if p.PreResolvedClasses > 0 {
		pr(" preresolved-classes=%d", p.PreResolvedClasses)
	}
	pr("\n")
	if p.Unsatisfiable {
		pr("result: EMPTY — pattern has no embedding in the path summary (0 pages)\n")
	}
	if p.EmptyAccess {
		pr("result: EMPTY — every bindable path class uniformly denied (0 pages)\n")
	}
	pr("pattern:\n")
	var walkNode func(id, depth int)
	walkNode = func(id, depth int) {
		n := p.Nodes[id]
		pr("%s%s", strings.Repeat("  ", depth+1), n.Step)
		if n.Returning {
			pr(" (returning)")
		}
		pr(" [subtree=%d", n.Subtree)
		if n.FusedDeadPages > 0 || n.StructDeadPages > 0 {
			pr(" dead: struct=%d fused=%d", n.StructDeadPages, n.FusedDeadPages)
		}
		if n.ClassesDown > 0 || n.ClassesMatched > 0 {
			pr(" classes: down=%d matched=%d", n.ClassesDown, n.ClassesMatched)
		}
		if n.PreAllowChildren {
			pr(" pre-allow-children")
		}
		if n.PreAllowRoot {
			pr(" pre-allow-root")
		}
		if n.ValueIndex {
			pr(" value-index")
		}
		pr("]\n")
		for _, c := range n.Children {
			walkNode(c, depth+1)
		}
	}
	if len(p.Nodes) > 0 {
		walkNode(0, 0)
	}
	if len(p.Operators) == 0 {
		return err
	}
	byOp := map[string]*PlanOp{}
	consumed := map[string]bool{}
	for i := range p.Operators {
		byOp[p.Operators[i].Op] = &p.Operators[i]
		for _, in := range p.Operators[i].Inputs {
			consumed[in] = true
		}
	}
	pr("plan:\n")
	var walkOp func(op *PlanOp, depth int)
	walkOp = func(op *PlanOp, depth int) {
		pr("%s%s", strings.Repeat("  ", depth+1), op.Kind)
		switch op.Kind {
		case "scan":
			pr(" %s %s candidates=%d via %s", op.Root, op.Algorithm, op.Candidates, op.CandidateSrc)
			if op.RejectedByPath > 0 {
				pr(" (rejected-by-path=%d)", op.RejectedByPath)
			}
			if op.RejectedByJoin > 0 {
				pr(" (rejected-by-join=%d)", op.RejectedByJoin)
			}
		case "sort":
			pr(" by %s", op.Root)
		case "join":
			pr(" %s link=%s", op.Algorithm, op.Root)
		case "filter":
			pr(" root-path %s", op.Algorithm)
		case "limit":
			pr(" %d", op.Limit)
		}
		pr("  [op=%s]\n", op.Op)
		for _, in := range op.Inputs {
			if child := byOp[in]; child != nil {
				walkOp(child, depth+1)
			}
		}
	}
	for i := len(p.Operators) - 1; i >= 0; i-- {
		if !consumed[p.Operators[i].Op] {
			walkOp(&p.Operators[i], 0)
		}
	}
	return err
}

// OpStats is one operator's attribution bucket after the ANALYZE fold.
type OpStats struct {
	Op string `json:"op"`
	// Pins / Hits / Decodes count buffer-pool page acquisitions the
	// operator performed, pool hits among them, and block decodes.
	Pins    int64 `json:"pins"`
	Hits    int64 `json:"hits"`
	Decodes int64 `json:"decodes,omitempty"`
	// SkipAccess / SkipStruct count pages the operator's scans skipped,
	// by cause; CandRejects root candidates rejected pre-I/O (deny bitmap
	// or path routing).
	SkipAccess  int64 `json:"skip_access,omitempty"`
	SkipStruct  int64 `json:"skip_struct,omitempty"`
	CandRejects int64 `json:"cand_rejects,omitempty"`
	// Probes / ProbePairs count structural-join probes and their pairs.
	Probes     int64 `json:"probes,omitempty"`
	ProbePairs int64 `json:"probe_pairs,omitempty"`
	// Emits counts answers leaving the pipeline (residual bucket: the
	// facade records them).
	Emits int64 `json:"emits,omitempty"`
	// SpanUs sums span durations stamped with this op.
	SpanUs int64 `json:"span_us,omitempty"`
}

// add folds one event into the bucket.
func (s *OpStats) add(e obs.TraceEvent) {
	switch e.Kind {
	case obs.EvPagePin:
		s.Pins++
		if e.Hit {
			s.Hits++
		}
	case obs.EvPageDecode:
		s.Decodes++
	case obs.EvPageSkipAccess:
		s.SkipAccess++
	case obs.EvPageSkipStruct:
		s.SkipStruct++
	case obs.EvCandidateReject:
		s.CandRejects++
	case obs.EvJoinProbe:
		s.Probes++
		s.ProbePairs += e.N
	case obs.EvEmit:
		s.Emits++
	default:
		if e.Dur > 0 {
			s.SpanUs += e.Dur.Microseconds()
		}
	}
}

// Analysis is the outcome of ANALYZE: the plan plus per-operator
// attribution folded from the executed query's trace. Every trace event
// lands in exactly one bucket (a plan operator, or Other for facade
// work), so the totals reconcile exactly against the buffer pool and
// registry deltas — the invariant the `dolbench -exp explain` strict gate
// holds.
type Analysis struct {
	Plan *Plan `json:"plan"`
	// Ops is aligned with Plan.Operators.
	Ops []OpStats `json:"ops"`
	// Other is the residual bucket: events recorded outside any operator
	// (parse and open spans, snapshot pins, answer conversion, emits).
	Other OpStats `json:"other"`
	// SpanUs sums op-less span durations by kind (parse,
	// compile_skip_mask, open_pipeline).
	SpanUs map[string]int64 `json:"span_us,omitempty"`
	// Events / Dropped describe the folded trace; a non-zero Dropped
	// voids the exact-reconciliation guarantee.
	Events  int   `json:"events"`
	Dropped int64 `json:"dropped,omitempty"`
}

// AnalyzeTrace folds a completed traced run into per-operator buckets.
func AnalyzeTrace(plan *Plan, events []obs.TraceEvent, dropped int64) *Analysis {
	an := &Analysis{
		Plan:    plan,
		Ops:     make([]OpStats, len(plan.Operators)),
		SpanUs:  map[string]int64{},
		Events:  len(events),
		Dropped: dropped,
	}
	an.Other.Op = "other"
	byLabel := map[string]*OpStats{}
	for i := range plan.Operators {
		an.Ops[i].Op = plan.Operators[i].Op
		byLabel[plan.Operators[i].Op] = &an.Ops[i]
	}
	for _, e := range events {
		b := byLabel[e.Op]
		if b == nil {
			b = &an.Other
			if e.Dur > 0 && e.Op == "" {
				an.SpanUs[string(e.Kind)] += e.Dur.Microseconds()
			}
		}
		b.add(e)
	}
	return an
}

// Totals sums every bucket (operators plus residual) — the left-hand side
// of the reconciliation invariant.
func (an *Analysis) Totals() OpStats {
	var t OpStats
	t.Op = "total"
	for _, b := range append(an.Ops, an.Other) {
		t.Pins += b.Pins
		t.Hits += b.Hits
		t.Decodes += b.Decodes
		t.SkipAccess += b.SkipAccess
		t.SkipStruct += b.SkipStruct
		t.CandRejects += b.CandRejects
		t.Probes += b.Probes
		t.ProbePairs += b.ProbePairs
		t.Emits += b.Emits
	}
	return t
}

// WriteJSON writes the analysis as indented JSON.
func (an *Analysis) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(an)
}

// WriteText renders the plan followed by the attribution table.
func (an *Analysis) WriteText(w io.Writer) error {
	if err := an.Plan.WriteText(w); err != nil {
		return err
	}
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr("attribution (%d events", an.Events)
	if an.Dropped > 0 {
		pr(", %d DROPPED — totals not exact", an.Dropped)
	}
	pr("):\n")
	pr("  %-8s %6s %6s %7s %6s %6s %7s %7s %7s\n",
		"op", "pins", "hits", "decodes", "skipA", "skipS", "rejects", "probes", "span_us")
	row := func(b OpStats) {
		pr("  %-8s %6d %6d %7d %6d %6d %7d %7d %7d\n",
			b.Op, b.Pins, b.Hits, b.Decodes, b.SkipAccess, b.SkipStruct, b.CandRejects, b.Probes, b.SpanUs)
	}
	for _, b := range an.Ops {
		row(b)
	}
	row(an.Other)
	row(an.Totals())
	for _, k := range []string{"parse", "compile_skip_mask", "open_pipeline"} {
		if us, ok := an.SpanUs[k]; ok {
			pr("  span %-18s %dus\n", k, us)
		}
	}
	return err
}
