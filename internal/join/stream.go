package join

import (
	"context"

	"dolxml/internal/bitset"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/xmltree"
)

// openStack is the state of a stack merge: the ancestor candidates pushed
// so far whose regions are still open, outermost first.
type openStack []Item

// Push stacks ancestor candidate a on those still open at it. Candidates
// arrive as the merge reaches them: in strictly increasing Node order, each
// before the first descendant at or after it is probed, so a source that
// produces them on demand (the query pipeline's left tuple stream) is read no
// further than the descendant side has got.
func (s *openStack) Push(a Item) {
	s.popClosed(a.Node)
	*s = append(*s, a)
}

// popClosed pops the ancestors whose region ends before node n.
func (s *openStack) popClosed(n xmltree.NodeID) {
	st := *s
	for len(st) > 0 && st[len(st)-1].End < n {
		st = st[:len(st)-1]
	}
	*s = st
}

// STDJoiner is the incremental form of the Stack-Tree-Desc join used by the
// streaming query pipeline: one merge pass over two document-ordered streams
// with only the stack of open ancestors in memory. Ancestors arrive via Push
// and descendants via Probe, in strictly increasing document order; the zero
// value is ready. Pushing and probing two sorted lists in merge order
// reproduces STD(ancs, descs) exactly.
type STDJoiner struct {
	openStack
	pairs []Pair // Probe's result, reused by the next Probe
}

// Probe advances the join to descendant d and returns the (a, d) pairs for
// every stacked ancestor enclosing it, outermost first, valid until the
// next Probe.
func (j *STDJoiner) Probe(d Item) []Pair {
	j.popClosed(d.Node)
	j.pairs = j.pairs[:0]
	for _, a := range j.openStack {
		if a.Node < d.Node && d.Node <= a.End {
			j.pairs = append(j.pairs, Pair{Anc: a.Node, Desc: d.Node})
		}
	}
	return j.pairs
}

// EpsJoiner is the incremental form of the secure ε-STD join (paper §4.2,
// Gabillon–Bruno semantics): ancestors arrive via Push and descendants via
// Probe, as for STDJoiner. The single document-order page pass of SecureSTD
// becomes a resumable scan: each Probe advances the pass exactly up to its
// descendant, so early-terminated queries never touch the pages beyond
// their last descendant. A page the in-memory directory proves uniform is
// not physically read, with one exception: a uniformly accessible page in
// which an inaccessible ancestor of its first node ends (the directory
// shows that it may, not where). Every page is read at most once.
type EpsJoiner struct {
	st  *nok.Store
	cb  *dol.Codebook
	eff *bitset.Bitset

	openStack
	inaccLvls []int  // increasing levels of inaccessible ancestors
	pairs     []Pair // Probe's result, reused by the next Probe

	numPages int
	pageIdx  int // next (or partially consumed) page of the scan

	// cur reads the pages the pass cannot settle from the directory. While
	// such a page is being consumed node by node, node is the next node
	// to process and last the page's final node; reading is false
	// otherwise.
	cur     *nok.Cursor
	reading bool
	node    xmltree.NodeID
	last    xmltree.NodeID
}

// NewEpsJoiner returns an incremental ε-STD join for the effective subject
// set.
func NewEpsJoiner(ss *dol.SecureStore, effective *bitset.Bitset) *EpsJoiner {
	st := ss.Store()
	return &EpsJoiner{
		st:       st,
		cb:       ss.Codebook(),
		eff:      effective,
		numPages: st.NumPages(),
		cur:      st.NewCursor(),
	}
}

func (j *EpsJoiner) popInacc(level int) {
	for len(j.inaccLvls) > 0 && j.inaccLvls[len(j.inaccLvls)-1] >= level {
		j.inaccLvls = j.inaccLvls[:len(j.inaccLvls)-1]
	}
}

func (j *EpsJoiner) deepestInacc() int {
	if len(j.inaccLvls) == 0 {
		return -1
	}
	return j.inaccLvls[len(j.inaccLvls)-1]
}

// advance runs the document-order pass up to and including node target,
// keeping the inaccessible levels open at it (a pushed candidate that is
// inaccessible itself needs no care: its own level is open over its whole
// subtree). It reports whether the target lies in a uniformly inaccessible
// page and so joins with nothing.
func (j *EpsJoiner) advance(ctx context.Context, target xmltree.NodeID) (dropped bool, err error) {
	for {
		if j.reading {
			// Resume a partially consumed mixed page.
			for ; j.node <= j.last && j.node <= target; j.node++ {
				info, err := j.cur.Info(ctx, j.node)
				if err != nil {
					return false, err
				}
				j.popInacc(info.Level)
				if !j.cb.AccessibleAny(info.Code, j.eff) {
					j.inaccLvls = append(j.inaccLvls, info.Level)
				}
			}
			if j.node > target {
				return false, nil
			}
			j.reading = false
			j.pageIdx++
			continue
		}
		if j.pageIdx >= j.numPages {
			// Target beyond the last page (defensive; descendants always
			// lie inside some page).
			return false, nil
		}
		pi := j.st.PageInfoAt(j.pageIdx)
		last := pi.FirstNode + xmltree.NodeID(pi.Count) - 1
		if !pi.ChangeBit {
			if j.cb.AccessibleAny(pi.AccessCode, j.eff) {
				// Uniformly accessible. The page's first node closes every
				// open level from its own depth down. A shallower level
				// still open closes inside the page if the page reaches
				// that far up, and the directory does not say where: then
				// the page is read like a mixed one.
				j.popInacc(int(pi.StartDepth))
				if j.deepestInacc() >= int(pi.MinDepth) {
					j.openPage(pi)
					continue
				}
				// No inaccessible level opens or closes here: the page is
				// not read.
				if target <= last {
					return false, nil
				}
				j.pageIdx++
				continue
			}
			// Uniformly inaccessible: nothing in the page joins and, once
			// the scan moves past it, its still-open nodes are inaccessible
			// path levels, all derived from the directory: the page's
			// shallowest node closed every level from its own down, and the
			// next page's first node hangs under page nodes from there on.
			if target <= last {
				return true, nil
			}
			nextStart := 0
			if j.pageIdx+1 < j.numPages {
				nextStart = int(j.st.PageInfoAt(j.pageIdx + 1).StartDepth)
			}
			j.popInacc(min(int(pi.MinDepth), nextStart))
			for l := int(pi.MinDepth); l < nextStart; l++ {
				j.inaccLvls = append(j.inaccLvls, l)
			}
			j.pageIdx++
			continue
		}
		// Mixed page: read and process node by node.
		j.openPage(pi)
	}
}

// openPage starts the node-by-node pass over the page at pageIdx; the
// cursor reads it at the first node.
func (j *EpsJoiner) openPage(pi nok.PageInfo) {
	j.reading = true
	j.node = pi.FirstNode
	j.last = pi.FirstNode + xmltree.NodeID(pi.Count) - 1
}

// Probe advances the join to descendant d and returns its valid (a, d)
// pairs: a is a proper ancestor of d and every node on the path from a to
// d, endpoints included, is accessible. The pairs are valid until the next
// Probe. Descendants must be probed in strictly increasing Node order.
func (j *EpsJoiner) Probe(ctx context.Context, d Item) ([]Pair, error) {
	dropped, err := j.advance(ctx, d.Node)
	if err != nil || dropped {
		return nil, err
	}
	j.popClosed(d.Node)
	m := j.deepestInacc()
	j.pairs = j.pairs[:0]
	for _, a := range j.openStack {
		if a.Node < d.Node && d.Node <= a.End && m < a.Level {
			j.pairs = append(j.pairs, Pair{Anc: a.Node, Desc: d.Node})
		}
	}
	return j.pairs, nil
}
