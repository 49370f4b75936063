package dol

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/xmltree"
)

// Labeling is the logical DOL of a secured tree: the document-ordered list
// of transition nodes with their access control codes, plus the codebook.
// Node 0 (the root) is always a transition node (§2).
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
	if k := len(l.codes); k > 0 && l.cb.ACL(l.codes[k-1]).EqualBits(a) {
		return
	}
	c := l.cb.Intern(a)
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

// Transitions returns the transition positions and codes (copies).
func (l *Labeling) Transitions() ([]xmltree.NodeID, []Code) {
	ns := make([]xmltree.NodeID, len(l.nodes))
	cs := make([]Code, len(l.codes))
	copy(ns, l.nodes)
	copy(cs, l.codes)
	return ns, cs
}

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

// Accessible reports whether subject s may access node n.
func (l *Labeling) Accessible(n xmltree.NodeID, s acl.SubjectID) bool {
	return l.cb.Accessible(l.CodeInForce(n), s)
}

// AccessibleAny reports whether any subject of the effective set may access
// node n.
func (l *Labeling) AccessibleAny(n xmltree.NodeID, effective *bitset.Bitset) bool {
	return l.cb.AccessibleAny(l.CodeInForce(n), effective)
}

// Matrix reconstructs the full accessibility matrix the labeling encodes.
func (l *Labeling) Matrix() *acl.Matrix {
	m := acl.NewMatrix(l.numNodes, l.cb.NumSubjects())
	for i, start := range l.nodes {
		end := xmltree.NodeID(l.numNodes)
		if i+1 < len(l.nodes) {
			end = l.nodes[i+1]
		}
		a := l.cb.ACL(l.codes[i])
		for n := start; n < end; n++ {
			m.SetRow(n, a)
		}
	}
	return m
}

// validate checks internal invariants; used by tests.
func (l *Labeling) validate() error {
	if l.numNodes > 0 {
		if len(l.nodes) == 0 || l.nodes[0] != 0 {
			return fmt.Errorf("dol: missing root transition")
		}
	}
	for i := 1; i < len(l.nodes); i++ {
		if l.nodes[i] <= l.nodes[i-1] {
			return fmt.Errorf("dol: transitions out of order at %d", i)
		}
		if l.codes[i] == l.codes[i-1] {
			return fmt.Errorf("dol: adjacent equal codes at transition %d", i)
		}
	}
	if len(l.nodes) > 0 && int(l.nodes[len(l.nodes)-1]) >= l.numNodes {
		return fmt.Errorf("dol: transition beyond document")
	}
	return nil
}

// SetNodeAccess grants or revokes subject s on the single node n — the
// paper's first accessibility update (§3.4). It adds at most two transition
// nodes (Proposition 1).
func (l *Labeling) SetNodeAccess(n xmltree.NodeID, s acl.SubjectID, allowed bool) {
	l.SetRangeACL(n, n, func(old *bitset.Bitset) *bitset.Bitset {
		nw := old.Clone()
		nw.SetTo(int(s), allowed)
		return nw
	})
}

// SetRangeAccess grants or revokes subject s on the contiguous node range
// [lo, hi] — the paper's subtree accessibility update (§3.4), since a
// subtree is exactly a contiguous document-order range.
func (l *Labeling) SetRangeAccess(lo, hi xmltree.NodeID, s acl.SubjectID, allowed bool) {
	l.SetRangeACL(lo, hi, func(old *bitset.Bitset) *bitset.Bitset {
		nw := old.Clone()
		nw.SetTo(int(s), allowed)
		return nw
	})
}

// SetRangeACL rewrites the access control lists of nodes in [lo, hi] by
// applying f to each node's current ACL. f must be deterministic in its
// argument. The rewrite has the paper's update-locality property: only
// transitions within or immediately after the range change, and the total
// transition count grows by at most 2.
func (l *Labeling) SetRangeACL(lo, hi xmltree.NodeID, f func(*bitset.Bitset) *bitset.Bitset) {
	l.check(lo)
	l.check(hi)
	if hi < lo {
		panic("dol: empty range")
	}

	// Old segments covering [lo, hi]: (start, code) pairs.
	iLo := l.transIndex(lo)
	type seg struct {
		start xmltree.NodeID
		code  Code
	}
	var oldSegs []seg
	oldSegs = append(oldSegs, seg{lo, l.codes[iLo]})
	j := iLo + 1
	for ; j < len(l.nodes) && l.nodes[j] <= hi; j++ {
		oldSegs = append(oldSegs, seg{l.nodes[j], l.codes[j]})
	}
	// Code in force at hi+1 before the update.
	var afterCode Code
	hasAfter := int(hi+1) < l.numNodes
	if hasAfter {
		afterCode = oldSegs[len(oldSegs)-1].code
		if j < len(l.nodes) && l.nodes[j] == hi+1 {
			afterCode = l.codes[j]
		}
	}
	// Code in force at lo-1 (computed before any mutation).
	var beforeCode Code
	hasBefore := lo > 0
	if hasBefore {
		beforeCode = l.CodeInForce(lo - 1)
	}

	// New segments: apply f, merging equal neighbours.
	var newSegs []seg
	for _, sg := range oldSegs {
		nc := l.cb.Intern(f(l.cb.ACL(sg.code)))
		if len(newSegs) > 0 && newSegs[len(newSegs)-1].code == nc {
			continue
		}
		newSegs = append(newSegs, seg{sg.start, nc})
	}
	// Merge with the run before lo.
	if hasBefore && newSegs[0].code == beforeCode {
		newSegs = newSegs[1:]
	}
	// Boundary at hi+1: the old code must stay in force there.
	if hasAfter {
		lastCode := beforeCode // code in force at hi after update
		if len(newSegs) > 0 {
			lastCode = newSegs[len(newSegs)-1].code
		}
		if lastCode != afterCode {
			newSegs = append(newSegs, seg{hi + 1, afterCode})
		}
	}

	// Splice: transitions strictly before lo stay; transitions in
	// [lo, hi+1] are replaced by newSegs; transitions after hi+1 stay.
	keepLo := iLo + 1
	if l.nodes[iLo] == lo {
		keepLo = iLo
	}
	keepHi := keepLo
	for keepHi < len(l.nodes) && l.nodes[keepHi] <= hi+1 {
		keepHi++
	}

	// Reference counting: retain new, release old (in that order so codes
	// shared between old and new stay alive throughout).
	for _, sg := range newSegs {
		l.cb.Retain(sg.code)
	}
	for k := keepLo; k < keepHi; k++ {
		l.cb.Release(l.codes[k])
	}

	nodes := make([]xmltree.NodeID, 0, len(l.nodes)+2)
	codes := make([]Code, 0, len(l.codes)+2)
	nodes = append(nodes, l.nodes[:keepLo]...)
	codes = append(codes, l.codes[:keepLo]...)
	for _, sg := range newSegs {
		nodes = append(nodes, sg.start)
		codes = append(codes, sg.code)
	}
	nodes = append(nodes, l.nodes[keepHi:]...)
	codes = append(codes, l.codes[keepHi:]...)
	l.nodes, l.codes = nodes, codes

	// A kept transition at hi+2.. may now follow an equal code (when the
	// update restored the surrounding run's code); merge it.
	l.mergeAdjacent()
}

// mergeAdjacent removes transitions whose code equals their predecessor's.
func (l *Labeling) mergeAdjacent() {
	out := 0
	for i := range l.nodes {
		if out > 0 && l.codes[i] == l.codes[out-1] {
			l.cb.Release(l.codes[i])
			continue
		}
		l.nodes[out] = l.nodes[i]
		l.codes[out] = l.codes[i]
		out++
	}
	l.nodes = l.nodes[:out]
	l.codes = l.codes[:out]
}

// InsertRange splices the labeling frag into l starting at position at
// (0 ≤ at ≤ NumNodes): the structural insert of §3.4, where the inserted
// subtree arrives with its own access controls. Fragment ACLs are
// re-interned into l's codebook.
func (l *Labeling) InsertRange(at xmltree.NodeID, frag *Labeling) {
	if at < 0 || int(at) > l.numNodes {
		panic(fmt.Sprintf("dol: insert position %d out of range [0,%d]", at, l.numNodes))
	}
	if frag.numNodes == 0 {
		return
	}
	fragLen := xmltree.NodeID(frag.numNodes)

	// Code in force before the insertion point and at the old node `at`.
	var beforeCode Code
	hasBefore := at > 0
	if hasBefore {
		beforeCode = l.CodeInForce(at - 1)
	}
	var atCode Code
	hasAt := int(at) < l.numNodes
	if hasAt {
		atCode = l.CodeInForce(at)
	}

	// Fragment segments translated into l's codebook.
	type seg struct {
		start xmltree.NodeID
		code  Code
	}
	var fragSegs []seg
	for i, fn := range frag.nodes {
		c := l.cb.Intern(frag.cb.ACL(frag.codes[i]))
		if len(fragSegs) > 0 && fragSegs[len(fragSegs)-1].code == c {
			continue
		}
		fragSegs = append(fragSegs, seg{at + fn, c})
	}
	if hasBefore && len(fragSegs) > 0 && fragSegs[0].code == beforeCode {
		fragSegs = fragSegs[1:]
	}
	// Splice point: first existing transition at or after `at`.
	cut := sort.Search(len(l.nodes), func(i int) bool { return l.nodes[i] >= at })
	hasTransAt := cut < len(l.nodes) && l.nodes[cut] == at

	// Boundary after the fragment: the old node at `at` keeps its code.
	// When a transition already sits exactly at `at` it is shifted to
	// at+fragLen below and provides the boundary itself.
	if hasAt && !hasTransAt {
		lastCode := beforeCode
		if len(fragSegs) > 0 {
			lastCode = fragSegs[len(fragSegs)-1].code
		}
		if lastCode != atCode {
			fragSegs = append(fragSegs, seg{at + fragLen, atCode})
		}
	}
	for _, sg := range fragSegs {
		l.cb.Retain(sg.code)
	}
	// An existing transition exactly at `at` may now be redundant (its
	// code is re-established by the boundary segment or merges); handled
	// by mergeAdjacent after the splice.
	nodes := make([]xmltree.NodeID, 0, len(l.nodes)+len(fragSegs))
	codes := make([]Code, 0, len(l.codes)+len(fragSegs))
	nodes = append(nodes, l.nodes[:cut]...)
	codes = append(codes, l.codes[:cut]...)
	for _, sg := range fragSegs {
		nodes = append(nodes, sg.start)
		codes = append(codes, sg.code)
	}
	for k := cut; k < len(l.nodes); k++ {
		nodes = append(nodes, l.nodes[k]+fragLen)
		codes = append(codes, l.codes[k])
	}
	l.nodes, l.codes = nodes, codes
	l.numNodes += frag.numNodes
	l.mergeAdjacent()
}

// DeleteRange removes nodes [lo, hi] — the structural delete of §3.4.
func (l *Labeling) DeleteRange(lo, hi xmltree.NodeID) {
	l.check(lo)
	l.check(hi)
	if hi < lo {
		panic("dol: empty range")
	}
	removed := hi - lo + 1

	// Code that must be in force at the node following the deleted range
	// (which moves to position lo).
	var afterCode Code
	hasAfter := int(hi+1) < l.numNodes
	if hasAfter {
		afterCode = l.CodeInForce(hi + 1)
	}
	var beforeCode Code
	hasBefore := lo > 0
	if hasBefore {
		beforeCode = l.CodeInForce(lo - 1)
	}

	cut := sort.Search(len(l.nodes), func(i int) bool { return l.nodes[i] >= lo })
	end := cut
	for end < len(l.nodes) && l.nodes[end] <= hi {
		end++
	}
	nodes := append([]xmltree.NodeID{}, l.nodes[:cut]...)
	codes := append([]Code{}, l.codes[:cut]...)
	if hasAfter {
		// Is there an existing transition exactly at hi+1?
		hasTransAfter := end < len(l.nodes) && l.nodes[end] == hi+1
		need := !hasBefore || beforeCode != afterCode
		if need && !hasTransAfter {
			// Retain before releasing the range's transitions: the
			// code's only reference may be a transition inside the
			// deleted range.
			l.cb.Retain(afterCode)
			nodes = append(nodes, lo)
			codes = append(codes, afterCode)
		}
	}
	// Release transitions inside the deleted range.
	for k := cut; k < end; k++ {
		l.cb.Release(l.codes[k])
	}
	for k := end; k < len(l.nodes); k++ {
		nodes = append(nodes, l.nodes[k]-removed)
		codes = append(codes, l.codes[k])
	}
	l.nodes, l.codes = nodes, codes
	l.numNodes -= int(removed)
	l.mergeAdjacent()
}

// MarshalBinary serializes the labeling together with its codebook — the
// wire form a dissemination service ships to filtering endpoints (§7).
func (l *Labeling) MarshalBinary() ([]byte, error) {
	cb, err := l.cb.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var out []byte
	out = binary.AppendUvarint(out, uint64(l.numNodes))
	out = binary.AppendUvarint(out, uint64(len(cb)))
	out = append(out, cb...)
	out = binary.AppendUvarint(out, uint64(len(l.nodes)))
	prev := xmltree.NodeID(0)
	for i, n := range l.nodes {
		// Delta-encode transition positions; they are strictly
		// increasing.
		out = binary.AppendUvarint(out, uint64(n-prev))
		prev = n
		out = binary.AppendUvarint(out, uint64(l.codes[i]))
	}
	return out, nil
}

// UnmarshalBinary restores a labeling serialized by MarshalBinary.
func (l *Labeling) UnmarshalBinary(data []byte) error {
	rd := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("dol: corrupt labeling encoding")
		}
		data = data[n:]
		return v, nil
	}
	numNodes, err := rd()
	if err != nil {
		return err
	}
	cbLen, err := rd()
	if err != nil {
		return err
	}
	if uint64(len(data)) < cbLen {
		return fmt.Errorf("dol: truncated codebook (%d of %d bytes)", len(data), cbLen)
	}
	cb := NewCodebook(0)
	if err := cb.UnmarshalBinary(data[:cbLen]); err != nil {
		return err
	}
	data = data[cbLen:]
	count, err := rd()
	if err != nil {
		return err
	}
	nodes := make([]xmltree.NodeID, 0, count)
	codes := make([]Code, 0, count)
	prev := xmltree.NodeID(0)
	for i := uint64(0); i < count; i++ {
		delta, err := rd()
		if err != nil {
			return err
		}
		n := prev + xmltree.NodeID(delta)
		if uint64(n) >= numNodes && numNodes > 0 {
			return fmt.Errorf("dol: transition at %d beyond %d nodes", n, numNodes)
		}
		code, err := rd()
		if err != nil {
			return err
		}
		if int(code) >= len(cb.entries) || cb.entries[code] == nil {
			return fmt.Errorf("dol: transition references dead code %d", code)
		}
		nodes = append(nodes, n)
		codes = append(codes, Code(code))
		prev = n
	}
	l.cb = cb
	l.numNodes = int(numNodes)
	l.nodes = nodes
	l.codes = codes
	return l.validate()
}

// Clone returns a deep copy of the labeling sharing no state, including a
// cloned codebook.
func (l *Labeling) Clone() *Labeling {
	data, err := l.cb.MarshalBinary()
	if err != nil {
		panic(err)
	}
	cb := NewCodebook(l.cb.NumSubjects())
	if err := cb.UnmarshalBinary(data); err != nil {
		panic(err)
	}
	nodes, codes := l.Transitions()
	return &Labeling{cb: cb, numNodes: l.numNodes, nodes: nodes, codes: codes}
}
