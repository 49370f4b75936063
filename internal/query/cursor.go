package query

import (
	"cmp"
	"context"
	"slices"
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
// slots hold unbound.
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

// matchMsg carries one batch of produced tuples (never empty), or a
// producer error, through a bounded channel.
type matchMsg struct {
	ts  []Tuple
	err error
}

// matchBuf bounds the run-ahead of match producers, in messages: small
// enough that a Limit-terminated query stops its page reads shortly after
// the limit is hit, large enough to decouple producer I/O from consumer
// processing.
const matchBuf = 8

// matchBatch is how many rows a match producer collects before handing them
// over. A plan with a Limit hands over every row by itself instead (see
// compiled.batchRows), so that matchBuf bounds its run-ahead in tuples.
const matchBatch = 64

// batchRows is the number of rows per match hand-off under this plan.
func (c *compiled) batchRows() int {
	if c.opts.Limit > 0 {
		return 1
	}
	return matchBatch
}

// rowBatch collects the rows a matcher completes into one flat chunk of
// bindings. Rows are values: a batch holds no page pin.
type rowBatch struct {
	width, rows int // bindings per row; rows a fresh chunk has room for
	flat        []binding
}

// add copies row to the end of the chunk and returns the row count.
func (b *rowBatch) add(row []binding) int {
	if b.flat == nil {
		b.flat = make([]binding, 0, b.rows*b.width)
	}
	b.flat = append(b.flat, row...)
	return len(b.flat) / b.width
}

// take returns the collected rows as tuples over the chunk, which the batch
// lets go of; nil when there are none.
func (b *rowBatch) take() []Tuple {
	if len(b.flat) == 0 {
		return nil
	}
	ts := make([]Tuple, len(b.flat)/b.width)
	for k := range ts {
		ts[k] = b.flat[k*b.width : (k+1)*b.width : (k+1)*b.width]
	}
	b.flat = nil
	return ts
}

// chanCursor adapts a push-style producer goroutine to the pull Cursor
// interface through a bounded channel of tuple batches. The producer starts
// lazily on the first Next, must honor its context, and the channel is
// closed when it returns — so a join whose left side is empty never starts
// its right producer at all.
type chanCursor struct {
	pctx    context.Context
	cancel  context.CancelFunc
	start   func(ctx context.Context, out chan<- matchMsg)
	once    sync.Once
	started bool
	out     chan matchMsg
	// pending is what remains of the batch received last.
	pending []Tuple
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
	// Checked first so a cancelled consumer gets ctx's error
	// deterministically, even while received tuples remain.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(c.pending) == 0 {
		c.launch()
		select {
		case msg, ok := <-c.out:
			if !ok || msg.err != nil {
				return nil, msg.err
			}
			c.pending = msg.ts
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	t := c.pending[0]
	c.pending = c.pending[1:]
	return t, nil
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
// in candidate order. Rows stream out of the ε-NoK matcher as they are
// found (npm) and go to the consumer a batch at a time — one at a time
// under a Limit, so the first tuple surfaces before the candidate scan
// finishes: the early-termination property Limit relies on. When the plan
// chose to fan out, the scan runs across a worker pool.
func newMatchCursor(parent context.Context, store *nok.Store, m *matcher, c *compiled, i int, sp scanPlan) Cursor {
	if sp.parallel {
		return newParallelMatchCursor(parent, store, m, c, i, sp)
	}
	root := &m.nodes[c.subs[i].Root.id]
	return newChanCursor(parent, func(ctx context.Context, out chan<- matchMsg) {
		b := rowBatch{width: c.width, rows: c.batchRows()}
		ms := m.newState(store.NewCursor(), func(row []binding) bool {
			return b.add(row) < b.rows || sendMsg(ctx, out, matchMsg{ts: b.take()})
		})
		for _, cand := range sp.cands {
			if err := ms.matchCandidate(ctx, root, cand); err != nil {
				sendMsg(ctx, out, matchMsg{err: err})
				return
			}
			if ms.stopped {
				return
			}
		}
		if ts := b.take(); ts != nil {
			sendMsg(ctx, out, matchMsg{ts: ts})
		}
	})
}

// newParallelMatchCursor fans candidate matching out over a worker pool
// that feeds the cursor incrementally: workers claim candidate chunks from
// an atomic counter and deposit each chunk's rows, one flat chunk, into its
// own slot; an emitter forwards the slots in chunk order into the bounded
// output channel, so the tuple stream is byte-identical to the sequential
// scan. A semaphore caps how many chunks may be claimed beyond what the
// emitter has forwarded, so a consumer that stops pulling (Limit,
// cancellation) stops the workers' page reads after bounded run-ahead
// instead of matching every candidate.
func newParallelMatchCursor(parent context.Context, store *nok.Store, m *matcher, c *compiled, i int, sp scanPlan) Cursor {
	root := &m.nodes[c.subs[i].Root.id]
	cands, workers, chunks := sp.cands, sp.workers, sp.chunks
	bounds := func(k int) (int, int) {
		return k * len(cands) / chunks, (k + 1) * len(cands) / chunks
	}
	return newChanCursor(parent, func(ctx context.Context, out chan<- matchMsg) {
		type chunkRes struct {
			ts  []Tuple
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
		// However the emitter returns, the workers are stopped and waited
		// for first, and a chunk's error goes out only then: once the
		// consumer has it, nothing of this scan reads a page any more.
		wctx, stop := context.WithCancel(ctx)
		var failed error
		defer func() {
			stop()
			wg.Wait()
			if failed != nil {
				sendMsg(ctx, out, matchMsg{err: failed})
			}
		}()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b := rowBatch{width: c.width, rows: matchBatch}
				ms := m.newState(store.NewCursor(), func(row []binding) bool {
					b.add(row)
					return true
				})
				for {
					select {
					case sem <- struct{}{}:
					case <-wctx.Done():
						return
					}
					k := int(next.Add(1)) - 1
					if k >= chunks {
						return
					}
					lo, hi := bounds(k)
					var err error
					for _, cand := range cands[lo:hi] {
						if err = ms.matchCandidate(wctx, root, cand); err != nil {
							break
						}
					}
					slots[k] <- chunkRes{b.take(), err} // cap 1: never blocks
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
			if failed = res.err; failed != nil {
				return
			}
			mergeTr.MergeChunk(k, len(res.ts))
			// A chunk goes out whole, or under a Limit tuple by tuple.
			step := len(res.ts)
			if c.batchRows() == 1 {
				step = 1
			}
			for ts := res.ts; len(ts) > 0; ts = ts[step:] {
				if !sendMsg(ctx, out, matchMsg{ts: ts[:step]}) {
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
	// cur reads the document root's block when the root itself matched.
	cur *nok.Cursor
	// tr is the operator's trace handle; the filter's own page reads run
	// under a context stamped with it (cached per incoming context so the
	// per-tuple path does not allocate).
	tr      *obs.Trace
	inCtx   context.Context
	wrapped context.Context

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
			if pc.eps == nil {
				ss := pc.view.Store()
				rootEnd := xmltree.NodeID(ss.Store().NumNodes() - 1)
				pc.eps = join.NewEpsJoiner(ss, pc.view.Effective(), []join.Item{{Node: 0, End: rootEnd, Level: 0}})
			}
			// A subtree root's binding carries its posting's End.
			pairs, err := pc.eps.Probe(fctx, join.Item{Node: root.node, End: root.end, Level: int(root.level)})
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
	// cur reads the blocks of the link sources that are not subtree roots,
	// for their subtree ends.
	cur      *nok.Cursor
	linkSlot int
	base     int
	nSlots   int
	// tr is the operator's trace handle; the join's own page reads (the
	// SubtreeEnd lookups, the ε-STD page pass) run under a context stamped
	// with it.
	tr      *obs.Trace
	inCtx   context.Context
	wrapped context.Context

	opened bool
	// leftTuples is the drained left side, ordered by link binding; the
	// tuples sharing ancestor ancs[g] are leftTuples[groups[g]:groups[g+1]].
	leftTuples []Tuple
	ancs       []join.Item
	groups     []int

	std *join.STDJoiner
	eps *join.EpsJoiner

	// lastGroups are the ancestor groups the last right root probed pairs
	// with, lastRows the left tuples in them.
	lastRoot      xmltree.NodeID
	lastRootValid bool
	lastGroups    []int
	lastRows      int

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
	// The ancestor candidates are the distinct link bindings. Ordering the
	// left side by them — stably, and it mostly arrives ordered — makes
	// each one's tuples a run, still in arrival order.
	byLink := func(a, b Tuple) int { return cmp.Compare(a[jc.linkSlot].node, b[jc.linkSlot].node) }
	if !slices.IsSortedFunc(jc.leftTuples, byLink) {
		slices.SortStableFunc(jc.leftTuples, byLink)
	}
	for ti, tp := range jc.leftTuples {
		b := tp[jc.linkSlot]
		if ti > 0 && b.node == jc.leftTuples[ti-1][jc.linkSlot].node {
			continue
		}
		if b.end == xmltree.InvalidNode {
			// Only a subtree root's binding came with its End.
			var err error
			if b.end, err = jc.cur.SubtreeEnd(jctx, b.node); err != nil {
				return err
			}
		}
		jc.ancs = append(jc.ancs, join.Item{Node: b.node, End: b.end, Level: int(b.level)})
		jc.groups = append(jc.groups, ti)
	}
	jc.groups = append(jc.groups, len(jc.leftTuples))
	if jc.opts.View != nil && jc.opts.Semantics == SemanticsPrunedSubtree {
		jc.eps = join.NewEpsJoiner(jc.opts.View.Store(), jc.opts.View.Effective(), jc.ancs)
	} else {
		jc.std = join.NewSTDJoiner(jc.ancs)
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
			d := join.Item{Node: root.node, End: root.end, Level: int(root.level)}
			var pairs []join.Pair
			if jc.eps != nil {
				pairs, err = jc.eps.Probe(jc.opCtx(ctx), d)
				if err != nil {
					return nil, err
				}
			} else {
				pairs = jc.std.Probe(d)
			}
			jc.tr.JoinProbe(int64(root.node), len(pairs))
			jc.lastRoot, jc.lastRootValid = root.node, true
			jc.lastGroups, jc.lastRows = jc.lastGroups[:0], 0
			for _, p := range pairs {
				g, _ := slices.BinarySearchFunc(jc.ancs, p.Anc, func(a join.Item, n xmltree.NodeID) int { return cmp.Compare(a.Node, n) })
				jc.lastGroups = append(jc.lastGroups, g)
				jc.lastRows += jc.groups[g+1] - jc.groups[g]
			}
		}
		// Expand: one output per (left tuple whose link binds a paired
		// ancestor), with subtree i's slots taken from the right tuple —
		// all of them in one chunk.
		w := len(rt)
		flat := make([]binding, 0, jc.lastRows*w)
		for _, g := range jc.lastGroups {
			for _, tp := range jc.leftTuples[jc.groups[g]:jc.groups[g+1]] {
				flat = append(flat, tp...)
				ntp := flat[len(flat)-w : len(flat) : len(flat)]
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
