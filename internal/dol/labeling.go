package dol

import (
	"fmt"
	"slices"
	"sort"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/xmltree"
)

// Labeling is the logical DOL of a secured tree: the document-ordered list
// of transition nodes with their access control codes, plus the codebook.
// Node 0 (the root) is always a transition node (§2). A StreamBuilder
// builds it once, in document order; it has no updates of its own — the
// §3.4 updates run on the SecureStore built from it.
//
// A Labeling implements nok.CodeSource, so it can be embedded directly into
// a NoK structure store during a build.
type Labeling struct {
	cb       *Codebook
	numNodes int
	// nodes and codes are parallel, sorted by node; nodes[0] == 0.
	nodes []xmltree.NodeID
	codes []Code
}

// FromMatrix builds a labeling from an accessibility matrix in a single
// document-order pass.
func FromMatrix(m *acl.Matrix) *Labeling {
	sb := NewStreamBuilder(NewCodebook(m.NumSubjects()))
	for n := 0; n < m.NumNodes(); n++ {
		sb.AppendRun(m.Row(xmltree.NodeID(n)), 1)
	}
	return sb.Finish()
}

// FromAccessibleSet builds a single-subject labeling: bit n of accessible
// marks node n as accessible to the lone subject.
func FromAccessibleSet(accessible *bitset.Bitset, numNodes int) *Labeling {
	sb := NewStreamBuilder(NewCodebook(1))
	yes := bitset.FromIndices(1, 0)
	no := bitset.New(1)
	for n := 0; n < numNodes; n++ {
		if accessible.Test(n) {
			sb.Append(yes)
		} else {
			sb.Append(no)
		}
	}
	return sb.Finish()
}

// StreamBuilder constructs a Labeling in document order, a node or a run
// of nodes at a time, as from a SAX stream of a labeled document — the
// paper's on-the-fly construction property (§2). The codebook may be
// shared among several labelings (e.g. one labeling per action mode over a
// common dictionary).
type StreamBuilder struct {
	l        *Labeling
	finished bool
}

// NewStreamBuilder returns a builder over the given codebook.
func NewStreamBuilder(cb *Codebook) *StreamBuilder {
	return &StreamBuilder{l: &Labeling{cb: cb}}
}

// Append adds the next node in document order with the given access control
// list.
func (sb *StreamBuilder) Append(a *bitset.Bitset) { sb.AppendRun(a, 1) }

// AppendRun adds the next n ≥ 1 nodes in document order, all with the
// given access control list: one transition, unless the list equals the
// one in force, and one Intern.
func (sb *StreamBuilder) AppendRun(a *bitset.Bitset, n int) {
	if sb.finished || n < 1 {
		panic("dol: AppendRun after Finish or of no nodes")
	}
	l := sb.l
	first := xmltree.NodeID(l.numNodes)
	l.numNodes += n
	row := a.Runs()
	if k := len(l.codes); k > 0 && slices.Equal(l.cb.Row(l.codes[k-1]), row) {
		return
	}
	c := l.cb.Intern(row)
	l.cb.Retain(c)
	l.nodes = append(l.nodes, first)
	l.codes = append(l.codes, c)
}

// Finish returns the completed labeling.
func (sb *StreamBuilder) Finish() *Labeling {
	sb.finished = true
	return sb.l
}

// Codebook returns the labeling's codebook.
func (l *Labeling) Codebook() *Codebook { return l.cb }

// NumNodes returns the number of nodes of the underlying document.
func (l *Labeling) NumNodes() int { return l.numNodes }

// NumTransitions returns the number of transition nodes — the paper's DOL
// size metric (Figures 4 and 6).
func (l *Labeling) NumTransitions() int { return len(l.nodes) }

func (l *Labeling) check(n xmltree.NodeID) {
	if n < 0 || int(n) >= l.numNodes {
		panic(fmt.Sprintf("dol: node %d out of range [0,%d)", n, l.numNodes))
	}
}

// transIndex returns the index of the transition node governing n (the
// last transition at or before n).
func (l *Labeling) transIndex(n xmltree.NodeID) int {
	return sort.Search(len(l.nodes), func(i int) bool { return l.nodes[i] > n }) - 1
}

// CodeInForce implements nok.CodeSource: the code of the nearest preceding
// transition node (or n itself).
func (l *Labeling) CodeInForce(n xmltree.NodeID) Code {
	l.check(n)
	return l.codes[l.transIndex(n)]
}

// IsTransition implements nok.CodeSource.
func (l *Labeling) IsTransition(n xmltree.NodeID) bool {
	l.check(n)
	i := l.transIndex(n)
	return i >= 0 && l.nodes[i] == n
}
