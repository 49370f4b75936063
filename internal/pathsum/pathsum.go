// Package pathsum maintains a path summary over a NoK block store: one
// summary node per distinct root-to-tag label path (a DataGuide over
// element tags, after Arion et al.), with parent links, the access-code
// mode observed across the path's occurrences, and a per-block bitset of
// the path classes occurring in each block.
//
// The summary is tiny (one node per distinct label path — hundreds for
// XMark regardless of document size) but global: a query compiler can
// prove a twig unsatisfiable and pre-resolve an access decision for every
// occurrence of a class whose codes are uniform — both before touching
// storage.
//
// Summaries are immutable once installed: region rewrites go through
// BeginRewrite, which extends a copy-on-write clone and splices its
// per-block sets, so a frozen store snapshot can share the pointer safely.
package pathsum

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// CodeMode classifies the access codes observed across a path class's
// occurrences.
type CodeMode uint8

const (
	// CodeUnknown means no occurrence has been observed (extinct class).
	CodeUnknown CodeMode = iota
	// CodeUniform means every observed occurrence carried the same
	// code-in-force; the class's access decision is resolvable once per
	// subject instead of once per node.
	CodeUniform
	// CodeMixed means occurrences carry divergent codes. Modes only
	// degrade (uniform → mixed): deletions never restore uniformity, so a
	// uniform claim stays sound across any update sequence.
	CodeMixed
)

// Node is one path class: the distinct label path identified by the chain
// of Parent links up to the root (Parent == -1 at depth 0).
type Node struct {
	Tag    int32
	Parent int32
	Depth  int32
	Mode   CodeMode
	Code   uint32
}

// BlockPaths records which path classes occur in one structure block.
// Start is the class of the innermost element open when the block begins
// (-1 = document root context); Bits is a bitset over class IDs. Bits may
// be shorter than the summary's node count — classes discovered after the
// block was sealed simply cannot occur in it.
type BlockPaths struct {
	Start int32
	Bits  []uint64
}

// Has reports whether class id occurs in the block.
func (b BlockPaths) Has(id int32) bool {
	w := int(id >> 6)
	return w >= 0 && w < len(b.Bits) && b.Bits[w]&(1<<(uint(id)&63)) != 0
}

// ForEach calls fn for every class occurring in the block, in id order.
func (b BlockPaths) ForEach(fn func(id int32)) {
	forEachBit(b.Bits, fn)
}

type childKey struct {
	parent int32
	tag    int32
}

// Summary is the path summary of one store state. Installed summaries are
// never mutated; updates build a clone via BeginRewrite.
type Summary struct {
	nodes  []Node
	child  map[childKey]int32
	blocks []BlockPaths
	// numbering identifies the class numbering: a summary built from scratch
	// (a Builder, FromMeta) starts a new one, and a rewrite's clone keeps its
	// original's, since it only appends classes.
	numbering uint64

	childrenOnce sync.Once
	childrenIdx  [][]int32
}

// NumNodes returns the number of path classes.
func (s *Summary) NumNodes() int { return len(s.nodes) }

// numberings hands out numbering identities.
var numberings atomic.Uint64

// Numbering identifies the summary's class numbering: two summaries with the
// same Numbering and NumNodes give every (parent, tag) path the same class.
// Anything keyed by class ids (an index grouped by class) is valid against a
// summary exactly when both agree.
func (s *Summary) Numbering() uint64 { return s.numbering }

// NumBlocks returns the number of per-block class sets.
func (s *Summary) NumBlocks() int { return len(s.blocks) }

// NodeAt returns class id.
func (s *Summary) NodeAt(id int32) Node { return s.nodes[id] }

// Block returns block b's class set.
func (s *Summary) Block(b int) BlockPaths { return s.blocks[b] }

// ChildOf returns the class for tag under parent (-1 = root context).
func (s *Summary) ChildOf(parent, tag int32) (int32, bool) {
	id, ok := s.child[childKey{parent, tag}]
	return id, ok
}

// ChildrenOf returns the classes whose parent is p (-1 = root context).
// The index is built lazily on first use; summaries are immutable by then.
func (s *Summary) ChildrenOf(p int32) []int32 {
	s.childrenOnce.Do(func() {
		idx := make([][]int32, len(s.nodes)+1)
		for id := range s.nodes {
			slot := s.nodes[id].Parent + 1
			idx[slot] = append(idx[slot], int32(id))
		}
		s.childrenIdx = idx
	})
	return s.childrenIdx[p+1]
}

// Bytes estimates the summary's in-memory footprint.
func (s *Summary) Bytes() int {
	n := len(s.nodes) * 16
	for i := range s.blocks {
		n += 8 + len(s.blocks[i].Bits)*8
	}
	return n
}

// intern returns the class of (parent, tag), appending a new one — with no
// occurrence observed yet — when the path is new.
func (s *Summary) intern(parent, tag, depth int32) int32 {
	k := childKey{parent, tag}
	if id, ok := s.child[k]; ok {
		return id
	}
	id := int32(len(s.nodes))
	s.nodes = append(s.nodes, Node{Tag: tag, Parent: parent, Depth: depth})
	s.child[k] = id
	return id
}

// observe folds one occurrence's code-in-force into the class's mode.
// Modes only degrade.
func (n *Node) observe(code uint32) {
	switch n.Mode {
	case CodeUnknown:
		n.Mode, n.Code = CodeUniform, code
	case CodeUniform:
		if n.Code != code {
			n.Mode = CodeMixed
		}
	}
}

// Builder constructs a summary from a stream of NoK entries in document
// order. Feed every entry via Entry and seal each block boundary with
// EndBlock; Finish validates the document closed cleanly.
type Builder struct {
	s     *Summary
	stack []int32
	open  bool
	start int32
	bits  []uint64
	err   error
	// recent is a direct-mapped cache in front of s.child, which stays the
	// authority: slot h(parent, tag) holds a class id plus one, trusted
	// only when that class's parent and tag match. A document's paths
	// repeat, so most entries resolve here without a map probe.
	recent [1 << recentBits]int32
}

const recentBits = 8

// class returns the class of tag under the innermost open element.
func (b *Builder) class(tag int32) int32 {
	parent := b.top()
	h := (uint32(parent)*0x9E3779B1 ^ uint32(tag)*0x85EBCA77) >> (32 - recentBits)
	if e := b.recent[h] - 1; e >= 0 {
		if n := &b.s.nodes[e]; n.Parent == parent && n.Tag == tag {
			return e
		}
	}
	id := b.s.intern(parent, tag, int32(len(b.stack)))
	b.recent[h] = id + 1
	return id
}

// NewBuilder returns a builder for an empty summary that is expected to
// hold about classes path classes (0 when unknown).
func NewBuilder(classes int) *Builder {
	return &Builder{s: &Summary{
		nodes:     make([]Node, 0, classes),
		child:     make(map[childKey]int32, classes),
		numbering: numberings.Add(1),
	}}
}

func (b *Builder) top() int32 {
	if len(b.stack) == 0 {
		return -1
	}
	return b.stack[len(b.stack)-1]
}

// Entry records one node — its tag, the number of elements its entry
// closes, and the access code in force at the node — and returns its class
// (-1 once the builder has failed).
func (b *Builder) Entry(tag int32, closeCount int, code uint32) int32 {
	if b.err != nil {
		return -1
	}
	if !b.open {
		b.open = true
		b.start = b.top()
	}
	id := b.class(tag)
	b.s.nodes[id].observe(code)
	for int(id>>6) >= len(b.bits) {
		b.bits = append(b.bits, 0)
	}
	b.bits[id>>6] |= 1 << (uint(id) & 63)
	b.stack = append(b.stack, id)
	if closeCount > len(b.stack) {
		b.err = fmt.Errorf("pathsum: entry closes %d elements with %d open", closeCount, len(b.stack))
		return -1
	}
	b.stack = b.stack[:len(b.stack)-closeCount]
	return id
}

// EndBlock seals the entries fed since the previous boundary as one block.
func (b *Builder) EndBlock() {
	if b.err != nil || !b.open {
		return
	}
	w := b.bits
	for len(w) > 0 && w[len(w)-1] == 0 {
		w = w[:len(w)-1]
	}
	b.s.blocks = append(b.s.blocks, BlockPaths{Start: b.start, Bits: append([]uint64(nil), w...)})
	b.open = false
	for i := range b.bits {
		b.bits[i] = 0
	}
}

// Finish returns the completed summary. The document must have closed
// every element and sealed every block.
func (b *Builder) Finish() (*Summary, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.open {
		return nil, errors.New("pathsum: unterminated block")
	}
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("pathsum: %d elements left open", len(b.stack))
	}
	return b.s, nil
}

// RegionRewrite replays a region rewrite [i, j] against a copy-on-write
// clone: the caller feeds the region's new entries exactly as written and
// Finish splices the new block sets between the untouched prefix and
// suffix. The original summary is never mutated.
type RegionRewrite struct {
	orig *Summary
	b    *Builder
	i, j int
}

// BeginRewrite starts a rewrite of blocks [i, j] of s.
func (s *Summary) BeginRewrite(i, j int) (*RegionRewrite, error) {
	if i < 0 || j < i || j >= len(s.blocks) {
		return nil, fmt.Errorf("pathsum: rewrite region [%d, %d] of %d blocks", i, j, len(s.blocks))
	}
	clone := &Summary{
		nodes:     append([]Node(nil), s.nodes...),
		child:     make(map[childKey]int32, len(s.child)),
		numbering: s.numbering,
	}
	for k, v := range s.child {
		clone.child[k] = v
	}
	b := &Builder{s: clone}
	for id := s.blocks[i].Start; id >= 0; id = s.nodes[id].Parent {
		b.stack = append(b.stack, id)
	}
	for l, r := 0, len(b.stack)-1; l < r; l, r = l+1, r-1 {
		b.stack[l], b.stack[r] = b.stack[r], b.stack[l]
	}
	return &RegionRewrite{orig: s, b: b, i: i, j: j}, nil
}

// Entry records one rewritten entry (same contract as Builder.Entry).
func (r *RegionRewrite) Entry(tag int32, closeCount int, code uint32) {
	r.b.Entry(tag, closeCount, code)
}

// EndBlock seals one rewritten block.
func (r *RegionRewrite) EndBlock() { r.b.EndBlock() }

// Finish verifies the rewritten region exits in the same open-element
// context the old region did and returns the spliced summary. ok=false
// means the replay did not line up and the caller must rebuild the
// summary from storage.
func (r *RegionRewrite) Finish() (*Summary, bool) {
	if r.b.err != nil || r.b.open {
		return nil, false
	}
	want := int32(-1)
	if r.j+1 < len(r.orig.blocks) {
		want = r.orig.blocks[r.j+1].Start
	}
	if r.b.top() != want {
		return nil, false
	}
	clone := r.b.s
	nb := make([]BlockPaths, 0, len(r.orig.blocks)-(r.j-r.i+1)+len(clone.blocks))
	nb = append(nb, r.orig.blocks[:r.i]...)
	nb = append(nb, clone.blocks...)
	nb = append(nb, r.orig.blocks[r.j+1:]...)
	clone.blocks = nb
	return clone, true
}

// VerifyAgainst checks a maintained summary s against one rebuilt fresh
// from the same blocks: every live path must be present with the same
// depth and per-block occurrences, and every uniform-code claim must hold
// in storage. Extinct classes (left behind by deletions) are allowed as
// long as no block still references them; mixed-mode claims are always
// sound (they promise nothing).
func (s *Summary) VerifyAgainst(rebuilt *Summary) error {
	if len(s.blocks) != len(rebuilt.blocks) {
		return fmt.Errorf("pathsum: %d blocks, storage has %d", len(s.blocks), len(rebuilt.blocks))
	}
	mapTo := make([]int32, len(s.nodes))
	mapped := 0
	for id := range s.nodes {
		n := s.nodes[id]
		parent := int32(-1)
		if n.Parent >= 0 {
			parent = mapTo[n.Parent]
			if parent < 0 {
				mapTo[id] = -1
				continue
			}
		}
		rid, ok := rebuilt.child[childKey{parent, n.Tag}]
		if !ok {
			mapTo[id] = -1
			continue
		}
		mapTo[id] = rid
		mapped++
		rn := rebuilt.nodes[rid]
		if rn.Depth != n.Depth {
			return fmt.Errorf("pathsum: class %d at depth %d, storage says %d", id, n.Depth, rn.Depth)
		}
		if n.Mode == CodeUniform && (rn.Mode != CodeUniform || rn.Code != n.Code) {
			return fmt.Errorf("pathsum: class %d claims uniform code %d, storage disagrees", id, n.Code)
		}
	}
	if mapped != len(rebuilt.nodes) {
		return fmt.Errorf("pathsum: summary is missing %d live path classes", len(rebuilt.nodes)-mapped)
	}
	tmp := make([]uint64, (len(rebuilt.nodes)+63)/64)
	for b := range s.blocks {
		sb, rb := s.blocks[b], rebuilt.blocks[b]
		wantStart := int32(-1)
		if sb.Start >= 0 {
			if int(sb.Start) >= len(mapTo) || mapTo[sb.Start] < 0 {
				return fmt.Errorf("pathsum: block %d starts in extinct class %d", b, sb.Start)
			}
			wantStart = mapTo[sb.Start]
		}
		if wantStart != rb.Start {
			return fmt.Errorf("pathsum: block %d start class mismatch", b)
		}
		for i := range tmp {
			tmp[i] = 0
		}
		var bad error
		forEachBit(sb.Bits, func(id int32) {
			if bad != nil {
				return
			}
			if int(id) >= len(mapTo) || mapTo[id] < 0 {
				bad = fmt.Errorf("pathsum: block %d references extinct class %d", b, id)
				return
			}
			m := mapTo[id]
			tmp[m>>6] |= 1 << (uint(m) & 63)
		})
		if bad != nil {
			return bad
		}
		if !bitsEqual(tmp, rb.Bits) {
			return fmt.Errorf("pathsum: block %d class set disagrees with storage", b)
		}
	}
	return nil
}

func forEachBit(w []uint64, fn func(id int32)) {
	for i, word := range w {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(int32(i*64 + b))
			word &^= 1 << uint(b)
		}
	}
}

func bitsEqual(a, b []uint64) bool {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		var wa, wb uint64
		if i < len(a) {
			wa = a[i]
		}
		if i < len(b) {
			wb = b[i]
		}
		if wa != wb {
			return false
		}
	}
	return true
}
