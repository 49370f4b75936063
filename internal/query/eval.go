package query

import (
	"context"
	"slices"

	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/join"
	"dolxml/internal/nok"
	"dolxml/internal/obs"
	"dolxml/internal/xmltree"
)

// Semantics selects the secure-evaluation semantics.
type Semantics int

const (
	// SemanticsBindings is the Cho et al. semantics used throughout §4:
	// a result is valid when every data node bound by the pattern match
	// is accessible; inaccessible nodes elsewhere (including on the
	// ancestor-descendant paths between NoK subtrees) do not disqualify
	// it.
	SemanticsBindings Semantics = iota
	// SemanticsPrunedSubtree is the Gabillon–Bruno semantics of §4.2: a
	// subtree rooted at an inaccessible node can contribute nothing, so
	// every node on the path from the document root through all join
	// edges to the bound nodes must be accessible. Joins use ε-STD.
	SemanticsPrunedSubtree
)

// Options configure an evaluation.
type Options struct {
	// View enables secure evaluation for the given subject view; nil
	// evaluates without access control.
	View *dol.SubjectView
	// Semantics selects the secure semantics (ignored when View is nil).
	Semantics Semantics
	// DisablePageSkip turns off the §3.3 page-skipping optimization, for
	// ablation experiments.
	DisablePageSkip bool
	// DisableSummarySkip turns off the structure-aware half of the fused
	// skip mask: child scans then skip pages only on access-control
	// grounds, never because the path summary places none of the pattern's
	// classes on them. For ablation experiments; answers are identical
	// either way.
	DisableSummarySkip bool
	// DisablePathSummary turns off path-summary routing: unsatisfiable
	// patterns are then discovered by scanning, candidate postings are not
	// filtered by path class, scans skip pages on access grounds only (the
	// structural dead pages derive from the path summary), and
	// uniform-class access verdicts are checked per node again. For
	// ablation experiments; answers are identical either way.
	DisablePathSummary bool
	// Limit, when positive, stops evaluation after that many distinct
	// answers: the cursor pipeline terminates early and the pages beyond
	// the last match needed are never read. Result.Matches then counts
	// only the tuples consumed before the limit was reached.
	Limit int
	// Trace, when non-nil, records the evaluation's span and page events:
	// skip-mask compilation, every page skipped (with cause), candidate
	// rejections, join probes, and emitted answers.
	// Carry the same trace in the ctx passed to Open/Next (obs.WithTrace)
	// so buffer-pool pin events are attributed too — the securexml facade
	// does both.
	Trace *obs.Trace
}

// Result is the outcome of evaluating a twig query.
type Result struct {
	// Nodes are the distinct bindings of the returning pattern node, in
	// document order — the "answers returned" of Figure 7.
	Nodes []xmltree.NodeID
	// Tag is the tag code of every node in Nodes — the one the pattern's
	// returning step names and the matcher tested each of them against —
	// or AnyTag when that step is "*" and only the nodes' blocks can say.
	Tag int32
	// Matches counts the combined pattern-match tuples before returning-
	// node deduplication.
	Matches int
	// Skips reports how many page reads the fused skip mask avoided.
	Skips SkipStats
	// Plan is the plan the evaluation ran, as Explain renders it.
	Plan *Plan
}

// AnyTag is the Result.Tag of a pattern whose returning step is "*".
const AnyTag int32 = -1

// Evaluator evaluates twig queries against one NoK store using a tag
// index for NoK-subtree root candidates, and optionally a value index for
// value-constrained roots ("B+ trees on the subtree root's value or tag
// names", §4.1).
type Evaluator struct {
	store  *nok.Store
	index  TagIndex
	vindex ValueIndex
	// masks, when non-nil, memoizes plan shapes for the snapshot identified
	// by seq (see Snapshot.Masks).
	masks *MaskCache
	seq   uint64
}

// TagIndex hands out the postings of every node with a tag, in document
// order: a *btree.Tree, or the flat runs a served snapshot keeps. The slice
// may be shared between callers and is read-only.
type TagIndex interface {
	Postings(tag int32) ([]btree.Posting, error)
}

// ValueIndex hands out the postings of the nodes with a tag and an exact
// text value, in document order, shared and read-only like a TagIndex's: a
// *btree.ValueTree, or a served snapshot's value runs.
type ValueIndex interface {
	ValuePostings(tag int32, value string) ([]btree.Posting, error)
}

// NewEvaluator returns an evaluator over the given store and tag index.
func NewEvaluator(store *nok.Store, index TagIndex) *Evaluator {
	return &Evaluator{store: store, index: index}
}

// Snapshot bundles the immutable structures one query evaluates against: a
// frozen structure store plus the tag and value indexes built from it. The
// facade pins one snapshot per query (or per repeatable-read session) and
// threads it through the evaluator and cursor pipeline, so evaluation
// never assumes "the current store" and concurrent updates cannot change
// an in-flight query's view.
type Snapshot struct {
	// Store is the frozen structure store (pages, directory, path summary,
	// codes); it must not be mutated while the snapshot is in use.
	Store *nok.Store
	// Index is the tag index over Store.
	Index TagIndex
	// Values is the optional (tag, value) index over Store; nil disables
	// value-constraint index lookups.
	Values ValueIndex
	// Masks, when non-nil, memoizes the view-independent half of query
	// plans for this snapshot; Seq is the publishing sequence stamped on
	// cache entries (every commit bumps it, so stale shapes can never hit).
	Masks *MaskCache
	Seq   uint64
}

// NewEvaluatorAt returns an evaluator bound to one immutable snapshot.
func NewEvaluatorAt(sn Snapshot) *Evaluator {
	return &Evaluator{store: sn.Store, index: sn.Index, vindex: sn.Values, masks: sn.Masks, seq: sn.Seq}
}

// WithValueIndex attaches a (tag, value) index consulted when a NoK
// subtree root carries a value constraint, shrinking its candidate list
// from all same-tag nodes to exact matches. Returns the evaluator for
// chaining.
func (ev *Evaluator) WithValueIndex(vt ValueIndex) *Evaluator {
	ev.vindex = vt
	return ev
}

// Evaluate runs the pattern tree under the given options: it decomposes
// the pattern into NoK subtrees, matches each with (ε-)NoK pattern
// matching, and combines the matches with (ε-)STD structural joins.
func (ev *Evaluator) Evaluate(t *PatternTree, opts Options) (*Result, error) {
	return ev.EvaluateCtx(context.Background(), t, opts)
}

// EvaluateCtx is Evaluate with cancellation and early termination: it
// opens the cursor pipeline, drains it (up to opts.Limit answers when
// set), and assembles the Result. Cancelling ctx aborts the evaluation at
// the next page-fetch boundary with ctx's error; no buffer-pool frames
// stay pinned.
func (ev *Evaluator) EvaluateCtx(ctx context.Context, t *PatternTree, opts Options) (*Result, error) {
	a, err := ev.Open(ctx, t, opts)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	var nodes []xmltree.NodeID
	for {
		n, ok, err := a.Next(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	return &Result{Nodes: nodes, Tag: a.Tag(), Matches: a.Matches(), Skips: a.SkipStats(), Plan: a.c.plan()}, nil
}

// Answers is a streaming cursor over a query's answers: the distinct
// bindings of the returning pattern node, in discovery order (not document
// order — sort after draining if document order matters). It is the public
// face of the operator pipeline, which runs on the goroutine that calls Next;
// Close must be called, no matter how far the cursor was drained.
type Answers struct {
	// p is the root of the operator tree.
	p Cursor
	// c is the plan the pipeline was instantiated from.
	c       *compiled
	matches *int
}

// Open builds the cursor pipeline for the pattern tree without draining
// it. ctx governs the whole lifetime of the returned cursor: cancelling it
// aborts the scans at their next page-fetch boundary.
func (ev *Evaluator) Open(ctx context.Context, t *PatternTree, opts Options) (*Answers, error) {
	defer opts.Trace.Span(obs.EvOpen)()
	c, err := ev.compile(t, opts)
	if err != nil {
		return nil, err
	}
	if c.empty() {
		opts.Trace.Mark(obs.EvPathEmpty)
		return &Answers{p: emptyCursor{}, c: c, matches: new(int)}, nil
	}
	subs := c.subs
	m := ev.newMatcher(c)

	// Assemble the operator tree bottom-up: per-subtree scans, the
	// pruned-subtree root-path filter on the top subtree, one
	// structural-join operator per cut edge, then dedup and limit.
	var cur Cursor
	for i := range subs {
		// Stamp this subtree's scan operator on every page pin the scan
		// performs.
		sctx := ctx
		if scanTr := opts.Trace.ForOp(opScan(i)); scanTr != nil {
			sctx = obs.WithTrace(ctx, scanTr)
		}
		var rc Cursor = newMatchCursor(sctx, ev.store, m, c, i)
		if i == 0 {
			if opts.View != nil && opts.Semantics == SemanticsPrunedSubtree {
				rc = &pathFilterCursor{view: opts.View, in: rc, cur: ev.store.NewCursor(), opTrace: opTrace{tr: opts.Trace.ForOp(opFilter)}}
			}
			cur = rc
		} else {
			if c.sortLeft(i) {
				cur = &sortCursor{in: cur, slot: c.linkSlot[i]}
			}
			jc := &joinCursor{
				cur:      ev.store.NewCursor(),
				opTrace:  opTrace{tr: opts.Trace.ForOp(opJoin(i))},
				left:     cur,
				right:    rc,
				linkSlot: c.linkSlot[i],
				base:     c.base[i],
				nSlots:   len(c.slots[i]),
			}
			if opts.View != nil && opts.Semantics == SemanticsPrunedSubtree {
				jc.eps = join.NewEpsJoiner(opts.View.Store(), opts.View.Effective())
			}
			cur = jc
		}
	}
	dd := &dedupCursor{in: cur, retSlot: c.retSlot, seen: map[xmltree.NodeID]bool{}}
	var top Cursor = dd
	if opts.Limit > 0 {
		top = &limitCursor{in: dd, remaining: opts.Limit}
	}
	return &Answers{p: top, c: c, matches: &dd.matches}, nil
}

// newMatcher returns the immutable matcher of plan c, shared by its scans.
func (ev *Evaluator) newMatcher(c *compiled) *matcher {
	m := &matcher{
		store:  ev.store,
		values: ev.store.Values(),
		view:   c.opts.View,
		masks:  c.mask,
		trace:  c.opts.Trace,
	}
	m.prepare(c)
	return m
}

// emptyCursor is the pipeline of a query proven empty at compile time.
type emptyCursor struct{}

func (emptyCursor) Next(ctx context.Context) (Tuple, error) { return nil, nil }
func (emptyCursor) Close() error                            { return nil }

// Next returns the next distinct answer; ok is false once the stream is
// exhausted or the Limit was reached.
func (a *Answers) Next(ctx context.Context) (n xmltree.NodeID, ok bool, err error) {
	// Asked here once per answer, and by each scan once per batch: a
	// cancelled consumer gets ctx's error even while matched tuples remain.
	if err := ctx.Err(); err != nil {
		return xmltree.InvalidNode, false, err
	}
	tp, err := a.p.Next(ctx)
	if err != nil || tp == nil {
		return xmltree.InvalidNode, false, err
	}
	n = tp[a.c.retSlot].node
	a.c.opts.Trace.Emit(int64(n))
	return n, true, nil
}

// Tag is the tag code of every answer (see Result.Tag), or AnyTag.
func (a *Answers) Tag() int32 { return a.c.retTag }

// Matches counts the combined pattern-match tuples consumed so far — after
// a full drain, the Result.Matches of Evaluate.
func (a *Answers) Matches() int { return *a.matches }

// SkipStats snapshots how many page reads the query's fused skip mask has
// avoided so far, by cause, plus the path-routing outcomes fixed at Open.
// Zero when skipping was disabled.
func (a *Answers) SkipStats() SkipStats {
	s := a.c.mask.stats()
	if a.c.route != nil {
		s.PathClasses = a.c.route.preResolved
	}
	if a.c.empty() {
		s.PathEmpty = 1
		return s
	}
	for _, sp := range a.c.scans {
		s.PathCandidates += int64(len(sp.routed))
		s.JoinCandidates += int64(sp.rejectedJoin)
	}
	return s
}

// Close unwinds the scans suspended mid-match. No buffer-pool pin outlives
// it (none outlives a Next). Idempotent.
func (a *Answers) Close() error { return a.p.Close() }
