package query

import (
	"context"
	"sync"
	"sync/atomic"

	"dolxml/internal/dol"
	"dolxml/internal/join"
	"dolxml/internal/nok"
	"dolxml/internal/obs"
	"dolxml/internal/xmltree"
)

// Tuple is one row of the operator pipeline: a full-width binding vector
// with one slot per tracked pattern node (see tupleLayout). Unset
// slots hold binding{xmltree.InvalidNode, 0}.
type Tuple []binding

// Cursor is a pull-based pipeline operator in the Volcano style. Next
// returns the next tuple, or (nil, nil) once the input is exhausted; after
// an error or exhaustion the cursor must not be advanced again. Close
// stops any producer goroutines and releases their resources; it is
// idempotent and must be called no matter how far the cursor was drained.
type Cursor interface {
	Next(ctx context.Context) (Tuple, error)
	Close() error
}

// matchMsg carries one produced tuple (or a producer error) through a
// bounded channel.
type matchMsg struct {
	t   Tuple
	err error
}

// matchBuf bounds the run-ahead of match producers: small enough that a
// Limit-terminated query stops its page reads shortly after the limit is
// hit, large enough to decouple producer I/O from consumer processing.
const matchBuf = 8

// chanCursor adapts a push-style producer goroutine to the pull Cursor
// interface through a bounded channel. The producer starts lazily on the
// first Next, must honor its context, and the channel is closed when it
// returns — so a join whose left side is empty never starts its right
// producer at all.
type chanCursor struct {
	pctx    context.Context
	cancel  context.CancelFunc
	start   func(ctx context.Context, out chan<- matchMsg)
	once    sync.Once
	started bool
	out     chan matchMsg
	wg      sync.WaitGroup
	closed  bool
}

func newChanCursor(parent context.Context, start func(ctx context.Context, out chan<- matchMsg)) *chanCursor {
	pctx, cancel := context.WithCancel(parent)
	return &chanCursor{pctx: pctx, cancel: cancel, start: start, out: make(chan matchMsg, matchBuf)}
}

func (c *chanCursor) launch() {
	c.once.Do(func() {
		c.started = true
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer close(c.out)
			c.start(c.pctx, c.out)
		}()
	})
}

func (c *chanCursor) Next(ctx context.Context) (Tuple, error) {
	// Checked before the select so a cancelled consumer gets ctx's error
	// deterministically, even while buffered tuples remain.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.launch()
	select {
	case msg, ok := <-c.out:
		if !ok {
			return nil, nil
		}
		return msg.t, msg.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close cancels the producer's context, then drains the channel until the
// producer closes it — unblocking any in-flight send — and waits for the
// goroutine to exit, so every buffer-pool pin the producer held is
// released before Close returns.
func (c *chanCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.cancel()
	if c.started {
		for range c.out {
		}
		c.wg.Wait()
	}
	return nil
}

// sendMsg sends on the bounded channel, abandoning the send when the
// producer's context is cancelled. Reports whether the send happened.
func sendMsg(ctx context.Context, out chan<- matchMsg, msg matchMsg) bool {
	select {
	case out <- msg:
		return true
	case <-ctx.Done():
		return false
	}
}

// newMatchCursor returns a cursor producing subtree i's matches as tuples,
// in candidate order. Matches stream out of the ε-NoK matcher as they are
// found (npmStream), so the first tuple surfaces before the candidate scan
// finishes — the early-termination property Limit relies on. When the plan
// chose to fan out, the scan runs across a worker pool.
func newMatchCursor(parent context.Context, store *nok.Store, m *matcher, c *compiled, i int, sp scanPlan) Cursor {
	if sp.parallel {
		return newParallelMatchCursor(parent, store, m, c, i, sp)
	}
	sub := c.subs[i]
	return newChanCursor(parent, func(ctx context.Context, out chan<- matchMsg) {
		cur := store.NewCursor()
		for _, cand := range sp.cands {
			stopped, err := m.matchCandidate(ctx, cur, sub, cand, func(sm subtreeMatch) bool {
				return sendMsg(ctx, out, matchMsg{t: c.tupleFrom(i, sm)})
			})
			if err != nil {
				sendMsg(ctx, out, matchMsg{err: err})
				return
			}
			if stopped {
				return
			}
		}
	})
}

// newParallelMatchCursor fans candidate matching out over a worker pool
// that feeds the cursor incrementally: workers claim candidate chunks from
// an atomic counter and deposit each chunk's matches into its own slot; an
// emitter forwards the slots in chunk order into the bounded output
// channel, so the tuple stream is byte-identical to the sequential scan.
// A semaphore caps how many chunks may be claimed beyond what the emitter
// has forwarded, so a consumer that stops pulling (Limit, cancellation)
// stops the workers' page reads after bounded run-ahead instead of
// matching every candidate.
func newParallelMatchCursor(parent context.Context, store *nok.Store, m *matcher, c *compiled, i int, sp scanPlan) Cursor {
	sub := c.subs[i]
	cands, workers, chunks := sp.cands, sp.workers, sp.chunks
	bounds := func(k int) (int, int) {
		return k * len(cands) / chunks, (k + 1) * len(cands) / chunks
	}
	return newChanCursor(parent, func(ctx context.Context, out chan<- matchMsg) {
		type chunkRes struct {
			ms  []subtreeMatch
			err error
		}
		slots := make([]chan chunkRes, chunks)
		for k := range slots {
			slots[k] = make(chan chunkRes, 1)
		}
		// Run-ahead bound: at most 2*workers chunks claimed beyond the
		// emitter's progress. Tokens are released by the emitter; a worker
		// that grabs a token after the last chunk was claimed keeps it,
		// which is harmless — no chunk is left for anyone to wait on.
		sem := make(chan struct{}, workers*2)
		var next atomic.Int64
		var wg sync.WaitGroup
		defer wg.Wait()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cur := store.NewCursor()
				for {
					select {
					case sem <- struct{}{}:
					case <-ctx.Done():
						return
					}
					k := int(next.Add(1)) - 1
					if k >= chunks {
						return
					}
					lo, hi := bounds(k)
					ms, err := m.matchSubtree(ctx, cur, sub, cands[lo:hi])
					slots[k] <- chunkRes{ms, err} // cap 1: never blocks
				}
			}()
		}
		// Merge events attribute to this scan's operator when the pipeline
		// stamped one on the producer context, else to the plain trace.
		mergeTr := obs.TraceFromContext(ctx)
		if mergeTr == nil {
			mergeTr = m.trace
		}
		for k := 0; k < chunks; k++ {
			var res chunkRes
			select {
			case res = <-slots[k]:
			case <-ctx.Done():
				return
			}
			if res.err != nil {
				sendMsg(ctx, out, matchMsg{err: res.err})
				return
			}
			mergeTr.MergeChunk(k, len(res.ms))
			for _, sm := range res.ms {
				if !sendMsg(ctx, out, matchMsg{t: c.tupleFrom(i, sm)}) {
					return
				}
			}
			<-sem
		}
	})
}

// pathFilterCursor implements the Gabillon–Bruno root-path check on the
// top subtree's matches (pruned-subtree semantics): a match passes only if
// every node from the document root down to the match root is accessible.
// It probes an incremental ε-STD join with the document root as the lone
// ancestor; since input tuples arrive in candidate (document) order, the
// joiner's resumable page pass never reads past the last match probed.
type pathFilterCursor struct {
	view *dol.SubjectView
	in   Cursor
	// cur reads the match roots' blocks for their subtree ends.
	cur *nok.Cursor
	// tr is the operator's trace handle; the filter's own page reads run
	// under a context stamped with it (cached per incoming context so the
	// per-tuple path does not allocate).
	tr      *obs.Trace
	inCtx   context.Context
	wrapped context.Context

	opened        bool
	eps           *join.EpsJoiner
	lastRoot      xmltree.NodeID
	lastRootValid bool
	lastPass      bool
}

// opCtx returns ctx stamped with the filter's operator handle.
func (pc *pathFilterCursor) opCtx(ctx context.Context) context.Context {
	if pc.tr == nil {
		return ctx
	}
	if ctx != pc.inCtx {
		pc.inCtx = ctx
		pc.wrapped = obs.WithTrace(ctx, pc.tr)
	}
	return pc.wrapped
}

func (pc *pathFilterCursor) Next(ctx context.Context) (Tuple, error) {
	fctx := pc.opCtx(ctx)
	for {
		t, err := pc.in.Next(ctx)
		if err != nil || t == nil {
			return nil, err
		}
		root := t[0] // slot 0 is the top subtree's root binding
		pass := false
		switch {
		case pc.lastRootValid && root.node == pc.lastRoot:
			pass = pc.lastPass
		case root.node == 0:
			// The document root itself, when matched, is valid iff
			// accessible (it has no proper-ancestor path to check).
			info, err := pc.cur.Info(fctx, 0)
			if err != nil {
				return nil, err
			}
			pass = pc.view.CodeAllowed(info.Code)
		default:
			if !pc.opened {
				rootEnd, err := pc.cur.SubtreeEnd(fctx, 0)
				if err != nil {
					return nil, err
				}
				pc.eps = join.NewEpsJoiner(pc.view.Store(), pc.view.Effective(),
					[]join.Item{{Node: 0, End: rootEnd, Level: 0}})
				pc.opened = true
			}
			end, err := pc.cur.SubtreeEnd(fctx, root.node)
			if err != nil {
				return nil, err
			}
			pairs, err := pc.eps.Probe(fctx, join.Item{Node: root.node, End: end, Level: root.level})
			if err != nil {
				return nil, err
			}
			pass = len(pairs) > 0
		}
		pc.lastRoot, pc.lastRootValid, pc.lastPass = root.node, true, pass
		if pass {
			return t, nil
		}
	}
}

func (pc *pathFilterCursor) Close() error { return pc.in.Close() }

// joinCursor combines the accumulated left tuples with subtree i's match
// stream via an incremental structural join on (link binding, subtree-root
// binding) — STD, or ε-STD under pruned-subtree semantics. The left side
// is small (already filtered/joined tuples) and is drained on the first
// Next; the right side streams, and because its match roots arrive in
// strictly increasing document order the stateful joiner is probed once
// per distinct root, with the ε-STD page pass stopping at the last root
// probed.
type joinCursor struct {
	opts  Options
	left  Cursor
	right Cursor
	// cur reads the blocks of the ancestor and right-root bindings for
	// their subtree ends.
	cur      *nok.Cursor
	linkSlot int
	base     int
	nSlots   int
	// tr is the operator's trace handle; the join's own page reads (the
	// ancestor and right-root SubtreeEnd lookups, the ε-STD page pass) run
	// under a context stamped with it.
	tr      *obs.Trace
	inCtx   context.Context
	wrapped context.Context

	opened      bool
	leftTuples  []Tuple
	tuplesByAnc map[xmltree.NodeID][]int

	std *join.STDJoiner
	eps *join.EpsJoiner

	lastRoot      xmltree.NodeID
	lastRootValid bool
	lastAncs      []xmltree.NodeID

	buf       []Tuple
	bufIdx    int
	rightDone bool
}

// opCtx returns ctx stamped with the join's operator handle.
func (jc *joinCursor) opCtx(ctx context.Context) context.Context {
	if jc.tr == nil {
		return ctx
	}
	if ctx != jc.inCtx {
		jc.inCtx = ctx
		jc.wrapped = obs.WithTrace(ctx, jc.tr)
	}
	return jc.wrapped
}

func (jc *joinCursor) open(ctx context.Context) error {
	defer jc.tr.Span(obs.EvJoinOpen)()
	jctx := jc.opCtx(ctx)
	jc.opened = true
	for {
		t, err := jc.left.Next(ctx)
		if err != nil {
			return err
		}
		if t == nil {
			break
		}
		jc.leftTuples = append(jc.leftTuples, t)
	}
	if len(jc.leftTuples) == 0 {
		// Empty join: never start the right producer.
		jc.rightDone = true
		return nil
	}
	// Distinct ancestor candidates from the link slot.
	ancSet := map[xmltree.NodeID]join.Item{}
	jc.tuplesByAnc = map[xmltree.NodeID][]int{}
	for ti, tp := range jc.leftTuples {
		b := tp[jc.linkSlot]
		jc.tuplesByAnc[b.node] = append(jc.tuplesByAnc[b.node], ti)
		if _, ok := ancSet[b.node]; ok {
			continue
		}
		end, err := jc.cur.SubtreeEnd(jctx, b.node)
		if err != nil {
			return err
		}
		ancSet[b.node] = join.Item{Node: b.node, End: end, Level: b.level}
	}
	ancs := make([]join.Item, 0, len(ancSet))
	for _, it := range ancSet {
		ancs = append(ancs, it)
	}
	join.SortItems(ancs)
	if jc.opts.View != nil && jc.opts.Semantics == SemanticsPrunedSubtree {
		jc.eps = join.NewEpsJoiner(jc.opts.View.Store(), jc.opts.View.Effective(), ancs)
	} else {
		jc.std = join.NewSTDJoiner(ancs)
	}
	return nil
}

func (jc *joinCursor) Next(ctx context.Context) (Tuple, error) {
	if !jc.opened {
		if err := jc.open(ctx); err != nil {
			return nil, err
		}
	}
	for {
		if jc.bufIdx < len(jc.buf) {
			t := jc.buf[jc.bufIdx]
			jc.bufIdx++
			return t, nil
		}
		jc.buf, jc.bufIdx = jc.buf[:0], 0
		if jc.rightDone {
			return nil, nil
		}
		rt, err := jc.right.Next(ctx)
		if err != nil {
			return nil, err
		}
		if rt == nil {
			jc.rightDone = true
			return nil, nil
		}
		root := rt[jc.base]
		if !jc.lastRootValid || root.node != jc.lastRoot {
			jctx := jc.opCtx(ctx)
			end, err := jc.cur.SubtreeEnd(jctx, root.node)
			if err != nil {
				return nil, err
			}
			d := join.Item{Node: root.node, End: end, Level: root.level}
			var pairs []join.Pair
			if jc.eps != nil {
				pairs, err = jc.eps.Probe(jctx, d)
				if err != nil {
					return nil, err
				}
			} else {
				pairs = jc.std.Probe(d)
			}
			jc.tr.JoinProbe(int64(root.node), len(pairs))
			jc.lastRoot, jc.lastRootValid = root.node, true
			jc.lastAncs = jc.lastAncs[:0]
			for _, p := range pairs {
				jc.lastAncs = append(jc.lastAncs, p.Anc)
			}
		}
		// Expand: one output per (left tuple whose link binds a paired
		// ancestor), with subtree i's slots taken from the right tuple.
		for _, anc := range jc.lastAncs {
			for _, ti := range jc.tuplesByAnc[anc] {
				tp := jc.leftTuples[ti]
				ntp := make(Tuple, len(tp))
				copy(ntp, tp)
				copy(ntp[jc.base:jc.base+jc.nSlots], rt[jc.base:jc.base+jc.nSlots])
				jc.buf = append(jc.buf, ntp)
			}
		}
	}
}

func (jc *joinCursor) Close() error {
	err := jc.left.Close()
	if err2 := jc.right.Close(); err == nil {
		err = err2
	}
	return err
}

// dedupCursor passes through only the first tuple per distinct
// returning-node binding, counting every input tuple (Result.Matches).
type dedupCursor struct {
	in      Cursor
	retSlot int
	seen    map[xmltree.NodeID]bool
	matches int
}

func (dc *dedupCursor) Next(ctx context.Context) (Tuple, error) {
	for {
		t, err := dc.in.Next(ctx)
		if err != nil || t == nil {
			return nil, err
		}
		dc.matches++
		n := t[dc.retSlot].node
		if !dc.seen[n] {
			dc.seen[n] = true
			return t, nil
		}
	}
}

func (dc *dedupCursor) Close() error { return dc.in.Close() }

// limitCursor stops the stream after n tuples — the early-termination
// operator behind Options.Limit.
type limitCursor struct {
	in        Cursor
	remaining int
}

func (lc *limitCursor) Next(ctx context.Context) (Tuple, error) {
	if lc.remaining <= 0 {
		return nil, nil
	}
	t, err := lc.in.Next(ctx)
	if err != nil || t == nil {
		return nil, err
	}
	lc.remaining--
	return t, nil
}

func (lc *limitCursor) Close() error { return lc.in.Close() }

// pipeline is the root of an opened operator tree. Close cancels the
// pipeline context first, so producers blocked on sends or page fetches
// unwind, then closes the operator tree (which waits for them).
type pipeline struct {
	Cursor
	cancel context.CancelFunc
	closed bool
}

func (p *pipeline) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	p.cancel()
	return p.Cursor.Close()
}
