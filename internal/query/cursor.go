package query

import (
	"cmp"
	"context"
	"errors"
	"iter"
	"slices"

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
// unwinds the scans suspended mid-match; it is idempotent and must be called
// no matter how far the cursor was drained.
type Cursor interface {
	Next(ctx context.Context) (Tuple, error)
	Close() error
}

// matchBatch is how many rows a scan collects before handing them over, and
// the least a join's output chunk holds. Under a Limit a scan hands over every
// row by itself, so the first answer surfaces before its candidate is done.
const matchBatch = 64

// rowBatch collects the rows a matcher completes in flat chunks of bindings
// and hands them over as tuples carved from those chunks. A chunk is shared
// by every hand-over it has room for, so a scan that hands each row over by
// itself (a plan with a Limit) allocates per chunk, not per row. Rows are
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

// matchCursor produces one NoK subtree's matches as tuples, in candidate
// order: a pull iterator over the push-style ε-NoK matcher. The matcher runs
// only while Next waits for it — nothing is read ahead of what the consumer
// asked for, a join whose left side is empty never starts its right scan — and
// a panic in it surfaces in the caller of Next.
type matchCursor struct {
	next func() ([]Tuple, bool)
	stop func()
	// at is the candidate the matcher has reached, err what ended the scan
	// early, pending what remains of the batch handed over last.
	at      int
	err     error
	pending []Tuple
}

// newMatchCursor returns the scan of subtree i of plan c. The matcher's page
// reads run under ctx, which carries the scan's operator handle.
func newMatchCursor(ctx context.Context, store *nok.Store, m *matcher, c *compiled, i int) *matchCursor {
	mc := &matchCursor{}
	root, cands := &m.nodes[c.subs[i].Root.id], c.scans[i].cands
	rows := matchBatch
	if c.opts.Limit > 0 {
		rows = 1
	}
	mc.next, mc.stop = iter.Pull(func(yield func([]Tuple) bool) {
		b := rowBatch{width: c.width}
		ms := m.newState(store.NewCursor(), func(row []binding) bool {
			return b.add(row) < rows || yield(b.take())
		})
		for ; mc.at < len(cands); mc.at++ {
			if mc.err = ms.matchCandidate(ctx, root, cands[mc.at]); mc.err != nil || ms.stopped {
				return
			}
		}
		if ts := b.take(); ts != nil {
			yield(ts)
		}
	})
	return mc
}

func (mc *matchCursor) Next(ctx context.Context) (Tuple, error) {
	if len(mc.pending) == 0 {
		// Asked once per batch (and by answers.next once per answer): a
		// cancelled consumer gets ctx's error, not more matching.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var ok bool
		if mc.pending, ok = mc.next(); !ok {
			return nil, mc.err
		}
	}
	t := mc.pending[0]
	mc.pending = mc.pending[1:]
	return t, nil
}

// Close unwinds a matcher suspended mid-scan. It holds no page pin while
// suspended: a pin lasts for one block visit.
func (mc *matchCursor) Close() error {
	mc.stop()
	return nil
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
				pc.eps = join.NewEpsJoiner(ss, pc.view.Subjects())
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
// scans. The right scan never starts on an empty left side and is not
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
