package join

import (
	"context"

	"dolxml/internal/bitset"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/xmltree"
)

// STDJoiner is the incremental form of the Stack-Tree-Desc join used by the
// streaming query pipeline: the ancestor list is fixed up front, and
// descendants arrive one at a time via Probe, in strictly increasing
// document order. Probing every descendant of a sorted list reproduces
// STD(ancs, descs) exactly.
type STDJoiner struct {
	ancs  []Item
	ai    int
	stack []Item
	pairs []Pair // Probe's result, reused by the next Probe
}

// NewSTDJoiner returns an incremental STD join over the sorted ancestor
// candidates (use SortItems).
func NewSTDJoiner(ancs []Item) *STDJoiner {
	return &STDJoiner{ancs: ancs}
}

// Probe advances the join to descendant d and returns the (a, d) pairs for
// every stacked ancestor enclosing it, valid until the next Probe.
// Descendants must be probed in strictly increasing Node order.
func (j *STDJoiner) Probe(d Item) []Pair {
	for j.ai < len(j.ancs) && j.ancs[j.ai].Node <= d.Node {
		a := j.ancs[j.ai]
		j.ai++
		for len(j.stack) > 0 && j.stack[len(j.stack)-1].End < a.Node {
			j.stack = j.stack[:len(j.stack)-1]
		}
		j.stack = append(j.stack, a)
	}
	for len(j.stack) > 0 && j.stack[len(j.stack)-1].End < d.Node {
		j.stack = j.stack[:len(j.stack)-1]
	}
	j.pairs = j.pairs[:0]
	for _, a := range j.stack {
		if a.Node < d.Node && d.Node <= a.End {
			j.pairs = append(j.pairs, Pair{Anc: a.Node, Desc: d.Node})
		}
	}
	return j.pairs
}

// EpsJoiner is the incremental form of the secure ε-STD join (paper §4.2,
// Gabillon–Bruno semantics): the sorted ancestor list is fixed up front and
// descendants arrive one at a time via Probe, in strictly increasing Node
// order. The single document-order page pass of SecureSTD becomes a
// resumable scan: each Probe advances the pass exactly up to its
// descendant, so early-terminated queries never touch the pages beyond
// their last descendant. A page the in-memory directory proves uniform is
// not physically read, with one exception: a uniformly accessible page in
// which an inaccessible ancestor of its first node ends (the directory
// shows that it may, not where). Every page is read at most once.
type EpsJoiner struct {
	st  *nok.Store
	cb  *dol.Codebook
	eff *bitset.Bitset

	ancs []Item
	ai   int

	ancStack  []Item
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
// set over the sorted ancestor candidates.
func NewEpsJoiner(ss *dol.SecureStore, effective *bitset.Bitset, ancs []Item) *EpsJoiner {
	st := ss.Store()
	return &EpsJoiner{
		st:       st,
		cb:       ss.Codebook(),
		eff:      effective,
		ancs:     ancs,
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

func (j *EpsJoiner) pushAnc(a Item) {
	for len(j.ancStack) > 0 && j.ancStack[len(j.ancStack)-1].End < a.Node {
		j.ancStack = j.ancStack[:len(j.ancStack)-1]
	}
	j.ancStack = append(j.ancStack, a)
}

// advance runs the document-order pass up to and including node target,
// applying ancestor pushes and inaccessible-level bookkeeping on the way.
// It reports whether the target lies in a uniformly inaccessible page and
// so joins with nothing.
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
				if j.ai < len(j.ancs) && j.ancs[j.ai].Node == j.node {
					j.pushAnc(j.ancs[j.ai])
					j.ai++
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
				// No inaccessible level opens or closes here: candidates
				// are processed from their own region encodings and the
				// page is not read.
				for j.ai < len(j.ancs) && j.ancs[j.ai].Node <= last && j.ancs[j.ai].Node <= target {
					j.pushAnc(j.ancs[j.ai])
					j.ai++
				}
				if target <= last {
					return false, nil
				}
				j.pageIdx++
				continue
			}
			// Uniformly inaccessible: skip candidates (their pairs would
			// be invalid) and, once the scan moves past the page, record
			// its still-open nodes as inaccessible path levels, all
			// derived from the directory.
			for j.ai < len(j.ancs) && j.ancs[j.ai].Node <= last {
				j.ai++
			}
			if target <= last {
				return true, nil
			}
			nextStart := 0
			if j.pageIdx+1 < j.numPages {
				nextStart = int(j.st.PageInfoAt(j.pageIdx + 1).StartDepth)
			}
			j.popInacc(nextStart)
			for l := int(pi.StartDepth); l < nextStart; l++ {
				if len(j.inaccLvls) == 0 || j.inaccLvls[len(j.inaccLvls)-1] < l {
					j.inaccLvls = append(j.inaccLvls, l)
				}
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
	for len(j.ancStack) > 0 && j.ancStack[len(j.ancStack)-1].End < d.Node {
		j.ancStack = j.ancStack[:len(j.ancStack)-1]
	}
	m := j.deepestInacc()
	j.pairs = j.pairs[:0]
	for _, a := range j.ancStack {
		if a.Node < d.Node && d.Node <= a.End && m < a.Level {
			j.pairs = append(j.pairs, Pair{Anc: a.Node, Desc: d.Node})
		}
	}
	return j.pairs, nil
}
