package query

import (
	"cmp"
	"context"
	"errors"
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
// over. A plan with a Limit hands over every row by itself instead, so that
// matchBuf bounds its run-ahead in tuples.
const matchBatch = 64

// rowBatch collects the rows a matcher completes in flat chunks of bindings
// and hands them over as tuples carved from those chunks. A chunk is shared
// by every hand-over it has room for, so a producer that hands each row over
// by itself (a plan with a Limit) allocates per chunk, not per row. Rows are
// values: a batch holds no page pin.
type rowBatch struct {
	width int // bindings per row
	// flat is the chunk being filled; flat[start:] are the rows not handed
	// over yet. hdrs is the chunk their tuple headers are carved from.
	flat  []binding
	start int
	hdrs  []Tuple
}

// add copies row to the end of the chunk and returns how many rows wait to
// be handed over. A full chunk is left to the tuples carved from it: the
// waiting rows move to a new one.
func (b *rowBatch) add(row []binding) int {
	if cap(b.flat)-len(b.flat) < b.width {
		waiting := b.flat[b.start:]
		b.flat = append(make([]binding, 0, max(2*len(waiting), matchBatch*b.width)), waiting...)
		b.start = 0
	}
	b.flat = append(b.flat, row...)
	return (len(b.flat) - b.start) / b.width
}

// take returns the waiting rows as tuples over the chunk; nil when there are
// none.
func (b *rowBatch) take() []Tuple {
	n := (len(b.flat) - b.start) / b.width
	if n == 0 {
		return nil
	}
	if cap(b.hdrs)-len(b.hdrs) < n {
		b.hdrs = make([]Tuple, 0, max(n, matchBatch))
	}
	lo := len(b.hdrs)
	for ; b.start < len(b.flat); b.start += b.width {
		b.hdrs = append(b.hdrs, b.flat[b.start:b.start+b.width:b.start+b.width])
	}
	return b.hdrs[lo:len(b.hdrs):len(b.hdrs)]
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
	closed  bool
}

func newChanCursor(parent context.Context, start func(ctx context.Context, out chan<- matchMsg)) *chanCursor {
	pctx, cancel := context.WithCancel(parent)
	return &chanCursor{pctx: pctx, cancel: cancel, start: start, out: make(chan matchMsg, matchBuf)}
}

func (c *chanCursor) launch() {
	c.once.Do(func() {
		c.started = true
		go func() {
			defer close(c.out)
			c.start(c.pctx, c.out)
		}()
	})
}

func (c *chanCursor) Next(ctx context.Context) (Tuple, error) {
	if len(c.pending) == 0 {
		// Asked once per batch (and by Answers.Next once per answer), before the
		// select: a cancelled consumer gets ctx's error though a batch is ready.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
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

// Close cancels the producer's context, then drains the channel —
// unblocking any in-flight send — until the producer, returning, closes it:
// every buffer-pool pin the producer held is released before Close returns.
func (c *chanCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.cancel()
	if c.started {
		for range c.out {
		}
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
		b, rows := rowBatch{width: c.width}, matchBatch
		if c.opts.Limit > 0 {
			rows = 1
		}
		ms := m.newState(store.NewCursor(), func(row []binding) bool {
			return b.add(row) < rows || sendMsg(ctx, out, matchMsg{ts: b.take()})
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
// emitter has forwarded, so a consumer that stops pulling (cancellation, a
// join out of open ancestors) stops the workers' page reads after bounded
// run-ahead instead of matching every candidate.
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
				b := rowBatch{width: c.width}
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
			if len(res.ts) > 0 && !sendMsg(ctx, out, matchMsg{ts: res.ts}) {
				return
			}
			<-sem
		}
	})
}

// opTrace stamps an operator's trace handle on the contexts the operator's
// own page reads run under, cached per incoming context so that the
// per-tuple path does not allocate.
type opTrace struct {
	tr             *obs.Trace
	inCtx, wrapped context.Context
}

func (o *opTrace) opCtx(ctx context.Context) context.Context {
	if o.tr == nil {
		return ctx
	}
	if ctx != o.inCtx {
		o.inCtx, o.wrapped = ctx, obs.WithTrace(ctx, o.tr)
	}
	return o.wrapped
}

// pathFilterCursor implements the Gabillon–Bruno root-path check on the
// top subtree's matches (pruned-subtree semantics): a match passes only if
// every node from the document root down to the match root is accessible.
// It probes an incremental ε-STD join with the document root as the lone
// ancestor; since input tuples arrive in candidate (document) order, the
// joiner's resumable page pass never reads past the last match probed.
type pathFilterCursor struct {
	opTrace
	view *dol.SubjectView
	in   Cursor
	// cur reads the document root's block when the root itself matched.
	cur *nok.Cursor

	eps           *join.EpsJoiner
	lastRoot      xmltree.NodeID
	lastRootValid bool
	lastPass      bool
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
				pc.eps = join.NewEpsJoiner(ss, pc.view.Effective())
				pc.eps.Push(join.Item{Node: 0, End: xmltree.NodeID(ss.Store().NumNodes() - 1), Level: 0})
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
// stream by a structural join on (link binding, subtree-root binding) — STD,
// or ε-STD under pruned-subtree semantics — as the stack merge the algorithm
// is: both inputs arrive ordered by the joined binding (a sortCursor orders
// the left one where the plan does not), and the only state is the stack of
// open ancestors with their left tuples. A left tuple is pulled only once the
// right root at hand has reached its link, so the ε-STD page pass stops at
// the last root probed and a consumer that stops pulling (Limit) stops both
// scans. The right producer never starts on an empty left side and is not
// pulled once the left is exhausted and every ancestor has closed.
type joinCursor struct {
	opTrace // stamps the join's own page reads: SubtreeEnd lookups, the ε-STD pass
	left    Cursor
	right   Cursor
	// eps joins under pruned-subtree semantics, std (eps nil) otherwise.
	std join.STDJoiner
	eps *join.EpsJoiner
	// cur reads the blocks of the link sources that are not subtree roots,
	// for their subtree ends.
	cur      *nok.Cursor
	linkSlot int
	base     int
	nSlots   int

	// next is the left tuple read ahead, nil once the left side is exhausted.
	primed bool
	next   Tuple
	// open mirrors the joiner's stack of ancestors: each entry holds the run
	// of left tuples sharing that link, in arrival order, as a range of rows.
	// rows starts over whenever the stack has emptied.
	open []openAnc
	rows []Tuple

	// hits are the runs the last right root probed pairs with, outermost
	// first, lastRows the left tuples in them.
	lastRoot xmltree.NodeID
	hits     []openAnc
	lastRows int

	// buf holds the outputs of the right tuple at hand still to be returned,
	// chunk the room left in the flat chunk they are carved from.
	buf    []Tuple
	bufIdx int
	chunk  []binding
}

// openAnc is one ancestor on the join's stack with its left tuples,
// joinCursor.rows[lo:hi].
type openAnc struct {
	node, end xmltree.NodeID
	lo, hi    int
}

// push stacks the link of the left tuple read ahead, with every left tuple
// sharing it, and reads on to the next link.
func (jc *joinCursor) push(ctx context.Context) (err error) {
	b := jc.next[jc.linkSlot]
	if b.end == xmltree.InvalidNode {
		// Only a subtree root's binding came with its End.
		if b.end, err = jc.cur.SubtreeEnd(jc.opCtx(ctx), b.node); err != nil {
			return err
		}
	}
	jc.popClosed(b.node)
	if len(jc.open) == 0 {
		jc.rows = jc.rows[:0]
	}
	lo := len(jc.rows)
	for jc.next != nil && jc.next[jc.linkSlot].node == b.node {
		jc.rows = append(jc.rows, jc.next)
		if jc.next, err = jc.left.Next(ctx); err != nil {
			return err
		}
	}
	jc.open = append(jc.open, openAnc{b.node, b.end, lo, len(jc.rows)})
	a := join.Item{Node: b.node, End: b.end, Level: int(b.level)}
	if jc.eps != nil {
		jc.eps.Push(a)
	} else {
		jc.std.Push(a)
	}
	return nil
}

// popClosed pops the open ancestors that end before node n, as the joiner
// pops its own.
func (jc *joinCursor) popClosed(n xmltree.NodeID) {
	for len(jc.open) > 0 && jc.open[len(jc.open)-1].end < n {
		jc.open = jc.open[:len(jc.open)-1]
	}
}

func (jc *joinCursor) Next(ctx context.Context) (_ Tuple, err error) {
	jctx := jc.opCtx(ctx)
	if !jc.primed {
		jc.primed, jc.lastRoot = true, xmltree.InvalidNode
		if jc.next, err = jc.left.Next(ctx); err != nil {
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
		if jc.next == nil && len(jc.open) == 0 {
			// No ancestor is open and none will come: whatever the right
			// side still holds joins with nothing.
			return nil, nil
		}
		rt, err := jc.right.Next(ctx)
		if err != nil || rt == nil {
			return nil, err
		}
		if root := rt[jc.base]; root.node != jc.lastRoot {
			for jc.next != nil && jc.next[jc.linkSlot].node <= root.node {
				if err := jc.push(ctx); err != nil {
					return nil, err
				}
			}
			d := join.Item{Node: root.node, End: root.end, Level: int(root.level)}
			var pairs []join.Pair
			if jc.eps == nil {
				pairs = jc.std.Probe(d)
			} else if pairs, err = jc.eps.Probe(jctx, d); err != nil {
				return nil, err
			}
			jc.tr.JoinProbe(int64(root.node), len(pairs))
			jc.lastRoot = root.node
			jc.popClosed(root.node)
			// The pairs name a subsequence of the open ancestors, in stack
			// order (ε-STD leaves out those an inaccessible node cuts off).
			jc.hits, jc.lastRows = jc.hits[:0], 0
			k := 0
			for _, p := range pairs {
				for jc.open[k].node != p.Anc {
					k++
				}
				jc.hits = append(jc.hits, jc.open[k])
				jc.lastRows += jc.open[k].hi - jc.open[k].lo
			}
		}
		// Expand: one output per (left tuple whose link binds a paired
		// ancestor), with subtree i's slots taken from the right tuple. The
		// outputs are carved from chunks of matchBatch rows or more.
		w := len(rt)
		if cap(jc.chunk)-len(jc.chunk) < jc.lastRows*w {
			jc.chunk = make([]binding, 0, max(jc.lastRows, matchBatch)*w)
		}
		for _, h := range jc.hits {
			for _, tp := range jc.rows[h.lo:h.hi] {
				jc.chunk = append(jc.chunk, tp...)
				ntp := jc.chunk[len(jc.chunk)-w : len(jc.chunk) : len(jc.chunk)]
				copy(ntp[jc.base:jc.base+jc.nSlots], rt[jc.base:jc.base+jc.nSlots])
				jc.buf = append(jc.buf, ntp)
			}
		}
	}
}

func (jc *joinCursor) Close() error { return errors.Join(jc.left.Close(), jc.right.Close()) }

// sortCursor orders its input by one slot: it drains the input on the first
// Next and sorts it stably, so tuples with equal bindings keep their arrival
// order. compile puts it under a join whose left input it cannot prove
// ordered by the link.
type sortCursor struct {
	in     Cursor
	slot   int
	rows   []Tuple
	sorted bool
}

func (sc *sortCursor) Next(ctx context.Context) (Tuple, error) {
	for !sc.sorted {
		t, err := sc.in.Next(ctx)
		if err != nil {
			return nil, err
		}
		if t != nil {
			sc.rows = append(sc.rows, t)
			continue
		}
		slices.SortStableFunc(sc.rows, func(a, b Tuple) int { return cmp.Compare(a[sc.slot].node, b[sc.slot].node) })
		sc.sorted = true
	}
	if len(sc.rows) == 0 {
		return nil, nil
	}
	t := sc.rows[0]
	sc.rows = sc.rows[1:]
	return t, nil
}

func (sc *sortCursor) Close() error { return sc.in.Close() }

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
