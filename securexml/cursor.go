package securexml

import (
	"context"

	"dolxml/internal/nok"
	"dolxml/internal/obs"
	"dolxml/internal/query"
	"dolxml/internal/xmltree"
)

// QueryOptions refine query execution for QueryCtx and QueryCursor.
type QueryOptions struct {
	// Pruned selects the Gabillon–Bruno semantics (§4.2): subtrees rooted
	// at inaccessible nodes contribute nothing. Ignored when Unrestricted.
	Pruned bool
	// Unrestricted evaluates without access control (administrative use);
	// the user and mode arguments are ignored.
	Unrestricted bool
	// Limit, when positive, stops evaluation after that many answers. The
	// cursor pipeline terminates early: pages beyond the last needed match
	// are never read.
	Limit int
	// Parallelism is accepted and ignored: a query runs on the goroutine
	// that asked for it. The field goes when ROADMAP item 1 unfreezes
	// benchmark/, the one place that still assigns it.
	Parallelism int
	// DisableSummarySkip is accepted and ignored: scans skip pages on
	// access grounds only. The field goes when ROADMAP item 1 unfreezes
	// benchmark/, the one place that still assigns it.
	DisableSummarySkip bool
	// DisablePathSummary runs the paper's engine alone: no compile-time
	// empty-query proof from the path summary and no index plan, so every
	// query is ε-NoK scans joined by (ε-)STD. For ablation; answers are
	// identical either way, only the pages read and access checks performed
	// differ.
	DisablePathSummary bool
	// Trace, when set, receives the query's timestamped event log: every
	// span, page pin, page skip (with cause), candidate rejection, join
	// probe and emitted answer. Tracing is off (zero cost beyond nil
	// checks) when unset, unless StoreOptions.SlowQueryThreshold forces an
	// internal trace.
	Trace *QueryTrace
	// Analyze, when set, turns the query into ANALYZE: a full event trace
	// is forced on (even without Trace), and after execution the analysis
	// is filled with the compiled plan plus per-operator attribution —
	// pages, pool hits, skips, rejects, probes and span time per plan
	// operator, reconciling exactly with the pool's pin delta. Ignored by
	// QueryCursor (a streaming drain has no single completion point).
	Analyze *QueryAnalysis
	// Snapshot, when set, evaluates the query against that pinned
	// repeatable-read state (see Store.Snapshot) instead of the current
	// one: a sequence of queries sharing a Snapshot sees one committed
	// state regardless of concurrent updates.
	Snapshot *Snapshot
}

// QueryCtx evaluates the XPath expression as the given user under the
// given action mode, honoring ctx: cancellation aborts the evaluation at
// the next page-fetch boundary with ctx's error, leaving no page pinned.
// With opts.Limit set, at most that many answers are returned.
func (s *Store) QueryCtx(ctx context.Context, user, mode, xpath string, opts QueryOptions) ([]Match, error) {
	return s.run(ctx, user, mode, xpath, opts)
}

// QueryCursor is a streaming cursor over a query's answers: Next pulls one
// answer at a time through the operator pipeline, so the first answer
// surfaces — and, with an early Close, the only pages read are — before
// the full result is computed. Answers arrive in discovery order, not
// document order.
//
// The cursor pins its snapshot from QueryCursor until Close: updates
// proceed concurrently (they never wait for readers), but the cursor keeps
// answering from the state it pinned, and the pages of that state stay
// quarantined from reuse until the pin drops. Close is idempotent and must
// be called exactly once regardless of how far the cursor was drained.
type QueryCursor struct {
	s *Store
	// p holds the snapshot pin and the effective trace (the caller's, or the
	// slow-query log's internal one), which must ride every ctx handed to the
	// pipeline so page pins during Next are attributed to this query.
	p prepared
	a *query.Answers
	// cur reads the answers' blocks for their tags when the returning step
	// is "*" (see answerTag).
	cur     *nok.Cursor
	done    bool
	xpath   string
	answers int64
	finish  func(fp, xpath string, answers int64, err error)
}

// QueryCursor opens a streaming cursor for the XPath expression as the
// given user under the given action mode. ctx governs the cursor's whole
// lifetime. On error no snapshot pin is retained.
func (s *Store) QueryCursor(ctx context.Context, user, mode, xpath string, opts QueryOptions) (*QueryCursor, error) {
	tr, finish := s.startQuery(opts.Trace.inner(), false)
	p, err := s.prepare(tr, user, mode, xpath, opts)
	if err == nil {
		var a *query.Answers
		if a, err = p.ev.Open(obs.WithTrace(ctx, tr), p.pt, p.qo); err == nil {
			return &QueryCursor{s: s, p: p, a: a, cur: p.ref.sn.st.NewCursor(), xpath: xpath, finish: finish}, nil
		}
		s.unprepare(&p)
	}
	finish(p.fp, xpath, 0, err)
	return nil, err
}

// Next returns the next answer; ok is false once the stream is exhausted
// or the Limit was reached. After an error or ok == false, only Close may
// be called.
func (c *QueryCursor) Next(ctx context.Context) (m Match, ok bool, err error) {
	ctx = obs.WithTrace(ctx, c.p.qo.Trace)
	n, ok, err := c.a.Next(ctx)
	if err != nil || !ok {
		return Match{}, false, err
	}
	c.s.queryAnswers.Inc()
	c.answers++
	return matchAt(ctx, c.p.ref.sn.st, c.cur, n, c.a.Tag())
}

// Matches counts the combined pattern-match tuples consumed so far (the
// Result.Matches of a full drain).
func (c *QueryCursor) Matches() int { return c.a.Matches() }

// SkipStats reports how many page reads the query's skip mask has avoided
// so far. Valid until Close; snapshot before closing.
func (c *QueryCursor) SkipStats() SkipStats {
	sk := c.a.SkipStats()
	return SkipStats{
		AccessPages: sk.AccessPages,
		Candidates:  sk.Candidates,
		PathClasses: sk.PathClasses,
		PathEmpty:   sk.PathEmpty,
	}
}

// Close stops the pipeline, releases its page pins and the cursor's
// snapshot pin. Idempotent.
func (c *QueryCursor) Close() error {
	if c.done {
		return nil
	}
	c.done = true
	// The cursor's contribution to the store-wide counters lands here,
	// once, so partial drains still account their skips and matches.
	c.s.queryMatches.Add(int64(c.a.Matches()))
	c.s.recordSkips(c.a.SkipStats())
	err := c.a.Close()
	c.s.unprepare(&c.p)
	c.p.qo.Trace.Mark(obs.EvDone)
	c.finish(c.p.fp, c.xpath, c.answers, err)
	return err
}

// matchAt converts one result node ID to a Match record against the
// query's pinned store, honoring ctx; tag and cur are answerTag's.
func matchAt(ctx context.Context, st *nok.Store, cur *nok.Cursor, n xmltree.NodeID, tag int32) (Match, bool, error) {
	code, err := answerTag(ctx, cur, n, tag)
	if err != nil {
		return Match{}, false, err
	}
	m := Match{Node: NodeID(n), Tag: st.TagName(code)}
	if vs := st.Values(); vs != nil {
		v, err := vs.ValueCtx(ctx, n)
		if err != nil {
			return Match{}, false, err
		}
		m.Value = v
	}
	return m, true, nil
}
