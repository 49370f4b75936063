package query

import (
	"math/bits"

	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/pathsum"
	"dolxml/internal/xmltree"
)

// compiledShape is the view-independent half of a query's plan: the
// decomposition and tuple layout, the pattern tree embedded into the store's
// path summary, each subtree's candidate postings after path routing and the
// structural semi-join, and the value-index postings of the value-constrained
// pattern nodes. It depends only on (pattern, snapshot), so the facade
// memoizes it per snapshot sequence in a MaskCache; an evaluator without one
// builds it per query, from the same code. Nothing in it depends on a subject
// view — route, mask, deny bitmap and access decisions are resolved per
// request — and it is read-only once built. Per-node slices are indexed by
// PatternNode.id.
type compiledShape struct {
	// t is the tree the shape was built from, and the one a plan on this
	// shape evaluates: a memo hit serves any reparse of the same pattern.
	// query is its canonical render.
	t     *PatternTree
	query string
	subs  []NoKSubtree
	tupleLayout
	// retTag is the tag code every answer carries — the returning step's
	// own — or AnyTag when that step is "*" (or names a tag the document
	// lacks, and so has no answers).
	retTag int32

	// The path-summary embedding, nil with path routing off.
	//
	// emptyStruct is set when the path summary admits no embedding of the
	// pattern: the query has no answers under any view or semantics.
	emptyStruct bool
	// dead holds, by pattern node id, the pages a child scan of that node
	// may skip: those holding no class its pattern children can bind. Nil
	// for nodes without child-axis children.
	dead [][]uint64
	// down[p.id] is the set of path classes reachable for p walking the
	// pattern top-down; matched[p.id] additionally requires the whole
	// pattern fragment below p to embed in the summary (matched ⊆ down).
	down    [][]uint64
	matched [][]uint64

	// scans holds one entry per NoK subtree; nil when the embedding proved
	// the query empty, which happens before any index lookup, and under an
	// index plan.
	scans []shapeScan
	// index is the index plan that replaces the scans and joins of a pattern
	// whose descendant steps lie on the path to its returning node and whose
	// predicates are child steps, when the evaluator's tag index groups its
	// postings by the summary's path classes; nil otherwise.
	index *indexShape
	// values[p.id] lists, in document order, the nodes the value index holds
	// under p's (tag, value): the value index covers every stored value, so
	// a node passes p's value test exactly when it is listed. Nil for a node
	// without a value constraint, with a "*" tag, or without a value index.
	values [][]xmltree.NodeID
	// size is what the shape holds in memory, for the memo's byte bound.
	size int64
}

// shapeScan is the view-independent half of one NoK subtree's scan plan.
type shapeScan struct {
	// source is sourceDocRoot, "tag-index", "value-index" or
	// "wildcard-union".
	source string
	// cands are the index postings, in document order, that path routing
	// kept and the semi-join did not prove unpairable.
	cands []btree.Posting
	// routed are the postings path routing turned away: their blocks hold
	// no class the subtree root can bind. Kept so that every query reports
	// them (candidate_reject events, rejected-by-path).
	routed []routedCand
	// rejectedJoin counts the routed-in postings the semi-join removed.
	rejectedJoin int
}

// routedCand is one posting path routing rejected, with its storage page.
type routedCand struct{ node, page int64 }

// embed embeds the pattern tree into the path summary: a top-down pass
// computes each pattern node's reachable class set, a bottom-up pass prunes
// classes under which the remaining fragment cannot embed. An empty set
// anywhere proves the query unsatisfiable before any I/O; otherwise the
// matched classes' block placement yields the dead-page bits and, returned
// per subtree, the bitmap of blocks that hold at least one class the
// subtree's root can bind (nil for the anchored document root, which needs
// no routing): index postings on other blocks cannot contribute. In-memory
// work only.
func (sh *compiledShape) embed(st *nok.Store) (candKeep [][]uint64) {
	t, subs := sh.t, sh.subs
	sh.dead = make([][]uint64, t.Len())
	sum := st.Paths()
	nc := sum.NumNodes()
	cw := (nc + 63) / 64
	if cw == 0 {
		cw = 1
	}

	tagClasses := func(tag string) []uint64 {
		out := make([]uint64, cw)
		if tag == "*" {
			for id := 0; id < nc; id++ {
				out[id>>6] |= 1 << (uint(id) & 63)
			}
			return out
		}
		code, ok := st.LookupTag(tag)
		if !ok {
			return out
		}
		for id := int32(0); int(id) < nc; id++ {
			if sum.NodeAt(id).Tag == code {
				out[id>>6] |= 1 << (uint(id) & 63)
			}
		}
		return out
	}

	down := make([][]uint64, t.Len())
	if t.Root.Axis == AxisChild {
		out := make([]uint64, cw)
		forEachSet(tagClasses(t.Root.Tag), func(id int32) {
			if sum.NodeAt(id).Depth == 0 {
				out[id>>6] |= 1 << (uint(id) & 63)
			}
		})
		down[t.Root.id] = out
	} else {
		down[t.Root.id] = tagClasses(t.Root.Tag)
	}
	var downWalk func(p *PatternNode)
	downWalk = func(p *PatternNode) {
		for _, c := range p.Children {
			tc := tagClasses(c.Tag)
			out := make([]uint64, cw)
			if c.Axis == AxisChild {
				forEachSet(down[p.id], func(u int32) {
					for _, k := range sum.ChildrenOf(u) {
						if tc[k>>6]&(1<<(uint(k)&63)) != 0 {
							out[k>>6] |= 1 << (uint(k) & 63)
						}
					}
				})
			} else {
				// Proper-descendant closure of down[p], then tag filter.
				desc := make([]uint64, cw)
				var frontier []int32
				forEachSet(down[p.id], func(u int32) { frontier = append(frontier, u) })
				for len(frontier) > 0 {
					u := frontier[len(frontier)-1]
					frontier = frontier[:len(frontier)-1]
					for _, k := range sum.ChildrenOf(u) {
						w, b := k>>6, uint64(1)<<(uint(k)&63)
						if desc[w]&b == 0 {
							desc[w] |= b
							frontier = append(frontier, k)
						}
					}
				}
				for i := range out {
					out[i] = desc[i] & tc[i]
				}
			}
			down[c.id] = out
			downWalk(c)
		}
	}
	downWalk(t.Root)

	matched := make([][]uint64, t.Len())
	empty := false
	var upWalk func(p *PatternNode)
	upWalk = func(p *PatternNode) {
		for _, c := range p.Children {
			upWalk(c)
		}
		m := append([]uint64(nil), down[p.id]...)
		for _, c := range p.Children {
			req := make([]uint64, cw)
			if c.Axis == AxisChild {
				forEachSet(matched[c.id], func(d int32) {
					if par := sum.NodeAt(d).Parent; par >= 0 {
						req[par>>6] |= 1 << (uint(par) & 63)
					}
				})
			} else {
				forEachSet(matched[c.id], func(d int32) {
					for a := sum.NodeAt(d).Parent; a >= 0; a = sum.NodeAt(a).Parent {
						w, b := a>>6, uint64(1)<<(uint(a)&63)
						if req[w]&b != 0 {
							break // this chain is already marked upward
						}
						req[w] |= b
					}
				})
			}
			for i := range m {
				m[i] &= req[i]
			}
		}
		matched[p.id] = m
		if isEmptySet(m) {
			empty = true
		}
	}
	upWalk(t.Root)
	sh.down, sh.matched = down, matched
	if empty {
		sh.emptyStruct = true
		return nil
	}

	tail := uint(sum.NumBlocks()) & 63
	for _, p := range t.nodes {
		kids := nokChildren(p)
		if len(kids) == 0 {
			continue
		}
		keep := make([]uint64, cw)
		for _, q := range kids {
			for i, w := range matched[q.id] {
				keep[i] |= w
			}
		}
		dead := sum.PageBits(keep)
		for i := range dead {
			dead[i] = ^dead[i]
		}
		if tail != 0 {
			dead[len(dead)-1] &= 1<<tail - 1 // no bits past the last block
		}
		sh.dead[p.id] = dead
	}
	candKeep = make([][]uint64, len(subs))
	for i := range subs {
		if i == 0 && t.Root.Axis == AxisChild {
			continue // the document root needs no routing
		}
		candKeep[i] = sum.PageBits(matched[subs[i].Root.id])
	}
	return candKeep
}

// pathRoute is the view-dependent half of path routing: access verdicts
// stamped on the summary's path classes for one SubjectView. Resolved per
// query (it is as cheap as a handful of memoized codebook probes), on top
// of a memoized shape.
type pathRoute struct {
	// emptyAccess is set when every class some pattern node can bind is
	// uniformly denied: the query has no accessible answers.
	emptyAccess bool
	// preAllow[p.id] means every class a child scan of p can accept is
	// uniformly allowed — the per-child access checks are skipped.
	preAllow []bool
	// preAllowRoot[root.id] means every on-path class of a subtree root
	// is uniformly allowed — the per-candidate root check is skipped.
	// (Off-path candidates admitted this way produce only join-doomed
	// matches, so answers are unchanged.)
	preAllowRoot []bool
	// preResolved counts the distinct path classes whose verdict was
	// pre-resolved from a uniform code.
	preResolved int64

	view *dol.SubjectView
	sum  *pathsum.Summary
	// state holds each class's verdict once resolved, 0 before; path whether
	// its root path crosses a uniformly denied class (pathDenied), 0 before.
	state, path []uint8
}

// Class verdicts.
const (
	vAllow = 1 + iota
	vDeny
	vMixed
)

// verdict resolves class id's access verdict for the route's view, once:
// vAllow or vDeny when every occurrence of the class carries one code,
// vMixed when only each node's own code can say.
func (r *pathRoute) verdict(id int32) uint8 {
	if s := r.state[id]; s != 0 {
		return s
	}
	v := uint8(vMixed)
	if n := r.sum.NodeAt(id); n.Mode == pathsum.CodeUniform {
		r.preResolved++
		if r.view.CodeAllowed(n.Code) {
			v = vAllow
		} else {
			v = vDeny
		}
	}
	r.state[id] = v
	return v
}

// pathDenied reports whether class id's root path crosses a uniformly
// denied class: under pruned semantics no node of the class can be bound.
func (r *pathRoute) pathDenied(id int32) bool {
	if r.path == nil {
		r.path = make([]uint8, len(r.state))
	}
	s := &r.path[id]
	if *s == 0 {
		*s = vAllow
		if up := r.sum.NodeAt(id).Parent; up >= 0 && (r.verdict(up) == vDeny || r.pathDenied(up)) {
			*s = vDeny
		}
	}
	return *s == vDeny
}

// resolvePathAccess stamps the view's allow/deny verdicts onto the
// shape's class sets. Returns nil when the shape carries no embedding (path
// routing is off), the embedding is empty, or no view is set. Under pruned
// semantics an index plan's pattern node also binds nothing of a class whose
// root path crosses a uniformly denied class.
func resolvePathAccess(st *nok.Store, sh *compiledShape, view *dol.SubjectView, pruned bool) *pathRoute {
	if sh.down == nil || sh.emptyStruct || view == nil {
		return nil
	}
	t, subs := sh.t, sh.subs
	sum := st.Paths()
	pre := make([]bool, 2*t.Len())
	r := &pathRoute{
		preAllow:     pre[:t.Len()],
		preAllowRoot: pre[t.Len():],
		view:         view,
		sum:          sum,
		state:        make([]uint8, sum.NumNodes()),
	}
	all := func(set []uint64, want uint8) bool {
		ok := true
		forEachSet(set, func(id int32) {
			if r.verdict(id) != want {
				ok = false
			}
		})
		return ok
	}
	pruned = pruned && sh.index != nil
	for _, p := range t.nodes {
		// Every binding of p must be accessible (scans and candidate
		// checks enforce it); all bindable classes uniformly denied means
		// no answer can exist.
		empty := true
		forEachSet(sh.matched[p.id], func(id int32) {
			if r.verdict(id) != vDeny && !(pruned && r.pathDenied(id)) {
				empty = false
			}
		})
		if empty {
			r.emptyAccess = true
			return r
		}
	}
	if sh.index != nil {
		// No scan to spare a check. What the plan's merge may ask is
		// resolved here, so that the plan reads alike before and after it
		// ran.
		if pruned {
			for _, id := range sh.index.guardClasses {
				r.verdict(id)
			}
		}
		return r
	}
	for _, p := range t.nodes {
		kids := nokChildren(p)
		if len(kids) == 0 {
			continue
		}
		u := make([]uint64, len(sh.down[kids[0].id]))
		for _, q := range kids {
			for i, w := range sh.down[q.id] {
				u[i] |= w
			}
		}
		r.preAllow[p.id] = all(u, vAllow)
	}
	for i := range subs {
		r.preAllowRoot[subs[i].Root.id] = all(sh.down[subs[i].Root.id], vAllow)
	}
	return r
}

func forEachSet(w []uint64, fn func(id int32)) {
	for i, word := range w {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(int32(i*64 + b))
			word &^= 1 << uint(b)
		}
	}
}

func isEmptySet(w []uint64) bool {
	for _, word := range w {
		if word != 0 {
			return false
		}
	}
	return true
}

func hasBit(w []uint64, i int) bool {
	return i >= 0 && i>>6 < len(w) && w[i>>6]&(1<<(uint(i)&63)) != 0
}
