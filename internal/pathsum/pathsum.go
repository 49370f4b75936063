// Package pathsum maintains a path summary over a NoK block store: one
// summary node per distinct root-to-tag label path (a DataGuide over
// element tags, after Arion et al.), with parent links and the access-code
// mode observed across the path's occurrences, plus for each structure
// block the class it starts in.
//
// The summary is tiny (one node per distinct label path — hundreds for
// XMark regardless of document size) but global: a query compiler can
// prove a twig unsatisfiable and pre-resolve an access decision for every
// occurrence of a class whose codes are uniform — both before touching
// storage.
//
// The block starts are what a region rewrite resumes from: BeginRewrite
// reopens the elements open where the region begins, and Finish checks that
// the new region exits where the old one did. Summaries are immutable once
// installed: a rewrite extends a copy-on-write clone and splices its block
// starts, so a frozen store snapshot can share the pointer safely. A clone
// shares its original's child map until it interns a class of its own, and a
// rewrite that changed only access codes shares the block starts too
// (FinishRecode) — or is no clone at all when it moved no class's verdict.
package pathsum

import (
	"errors"
	"fmt"
	"slices"
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

type childKey struct {
	parent int32
	tag    int32
}

// childIndex maps a (parent, tag) path to its class: an open-addressed
// table of class ids plus one (0 is an empty slot), probed linearly from
// childHash, with the classes themselves — a summary's nodes — for keys. It
// holds each class once and stays at most half full.
type childIndex []int32

func childHash(parent, tag int32) uint32 {
	return uint32(parent)*0x9E3779B1 ^ uint32(tag)*0x85EBCA77
}

// newChildIndex returns an index for about n classes, a quarter full at n:
// most paths then lie in their home slot, the one Builder.Hit reads.
func newChildIndex(n int) childIndex {
	size := 8
	for size < 4*n {
		size <<= 1
	}
	return make(childIndex, size)
}

// get returns the class of (parent, tag) among nodes.
func (x childIndex) get(nodes []Node, parent, tag int32) (int32, bool) {
	mask := uint32(len(x) - 1)
	for h := childHash(parent, tag); ; h++ {
		e := x[h&mask] - 1
		if e < 0 {
			return -1, false
		}
		if n := &nodes[e]; n.Parent == parent && n.Tag == tag {
			return e, true
		}
	}
}

// put adds class id, the last of nodes and no path x holds, growing the
// table first when that would make it over half full.
func (x *childIndex) put(nodes []Node, id int32) {
	if 2*len(nodes) > len(*x) {
		grown := newChildIndex(len(nodes))
		for _, e := range *x {
			if e > 0 {
				grown.insert(nodes, e-1)
			}
		}
		*x = grown
	}
	x.insert(nodes, id)
}

func (x childIndex) insert(nodes []Node, id int32) {
	mask := uint32(len(x) - 1)
	h := childHash(nodes[id].Parent, nodes[id].Tag)
	for x[h&mask] != 0 {
		h++
	}
	x[h&mask] = id + 1
}

// Summary is the path summary of one store state. Installed summaries are
// never mutated; updates build a clone via BeginRewrite.
type Summary struct {
	nodes []Node
	child childIndex
	// sharedChild marks child as the original's index on a rewrite's
	// clone: intern copies it before adding the clone's first class of its
	// own.
	sharedChild bool
	// starts holds by structure block the class of the innermost element
	// open when the block begins (-1 = document root context).
	starts []int32
	// numbering identifies the class numbering: a summary built from scratch
	// (a Builder) starts a new one, and a rewrite's clone keeps its
	// original's, since it only appends classes.
	numbering uint64

	childrenOnce sync.Once
	// children lists the classes by parent, a parent p's (-1 = root
	// context) from childStart[p+1] to childStart[p+2].
	children, childStart []int32
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

// NodeAt returns class id.
func (s *Summary) NodeAt(id int32) Node { return s.nodes[id] }

// ChildOf returns the class for tag under parent (-1 = root context).
func (s *Summary) ChildOf(parent, tag int32) (int32, bool) {
	return s.child.get(s.nodes, parent, tag)
}

// ChildrenOf returns the classes whose parent is p (-1 = root context),
// ascending; the slice is shared and read-only. The index is built lazily
// on first use, summaries being immutable by then: one array of the
// classes by parent and one of offsets, a counting sort of the parents.
func (s *Summary) ChildrenOf(p int32) []int32 {
	s.childrenOnce.Do(func() {
		// Parent p's bucket is p+1; its count goes to start[p+3], so that
		// after the sums start[p+2] is where it begins, and after the fill,
		// where it ends.
		start := make([]int32, len(s.nodes)+3)
		for i := range s.nodes {
			start[s.nodes[i].Parent+3]++
		}
		for k := 1; k < len(start); k++ {
			start[k] += start[k-1]
		}
		kids := make([]int32, len(s.nodes))
		for id := range s.nodes {
			at := &start[s.nodes[id].Parent+2]
			kids[*at] = int32(id)
			*at++
		}
		s.childStart, s.children = start, kids
	})
	return s.children[s.childStart[p+1]:s.childStart[p+2]:s.childStart[p+2]]
}

// Bytes estimates the summary's in-memory footprint.
func (s *Summary) Bytes() int {
	return len(s.nodes)*16 + len(s.starts)*4
}

// intern returns the class of (parent, tag), appending a new one — with no
// occurrence observed yet — when the path is new.
func (s *Summary) intern(parent, tag, depth int32) int32 {
	if id, ok := s.child.get(s.nodes, parent, tag); ok {
		return id
	}
	id := int32(len(s.nodes))
	s.nodes = append(s.nodes, Node{Tag: tag, Parent: parent, Depth: depth})
	if s.sharedChild {
		s.child, s.sharedChild = slices.Clone(s.child), false
	}
	s.child.put(s.nodes, id)
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
// order. Feed every entry via Entry — or, keeping the open elements
// yourself, begin each block with BeginBlock and feed every node via Hit
// and Child — and seal each block boundary with EndBlock; Finish validates
// the document closed cleanly.
type Builder struct {
	s     *Summary
	stack []int32
	open  bool
	err   error
}

// class returns the class of tag under the innermost open element.
func (b *Builder) class(tag int32) int32 {
	return b.s.intern(b.top(), tag, int32(len(b.stack)))
}

// NewBuilder returns a builder for an empty summary that is expected to
// hold about classes path classes (0 when unknown).
func NewBuilder(classes int) *Builder {
	return &Builder{s: &Summary{
		nodes:     make([]Node, 0, classes),
		child:     newChildIndex(classes),
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
		b.BeginBlock(b.top())
	}
	id := b.walk(tag, closeCount)
	if id < 0 {
		return -1
	}
	b.s.nodes[id].observe(code)
	return id
}

// BeginBlock begins a block whose first entry is under class parent (-1:
// the root context), for a caller that feeds Child and keeps the open
// elements itself; Entry begins its blocks on its own.
func (b *Builder) BeginBlock(parent int32) {
	b.open = true
	b.s.starts = append(b.s.starts, parent)
}

// Child is Entry for a caller that keeps the open elements' classes
// itself: it returns the class of tag under class parent (-1: the root
// context), interned when new, having observed code at it. Such a caller
// tries Hit first.
func (b *Builder) Child(parent, tag int32, code uint32) int32 {
	depth := int32(0)
	if parent >= 0 {
		depth = b.s.nodes[parent].Depth + 1
	}
	id := b.s.intern(parent, tag, depth)
	b.s.nodes[id].observe(code)
	return id
}

// Hit is Child for the common node, small enough to be inlined: a path in
// its home slot of the summary's index, whose class is mixed already or
// uniform at the node's code, so that recording the node changes nothing.
// It returns -1 for any other node, which the caller then hands to Child.
func (b *Builder) Hit(parent, tag int32, code uint32) int32 {
	x := b.s.child
	if e := x[childHash(parent, tag)&uint32(len(x)-1)] - 1; e >= 0 {
		if nd := &b.s.nodes[e]; nd.Parent == parent && nd.Tag == tag && (nd.Code == code || nd.Mode == CodeMixed) && nd.Mode != CodeUnknown {
			return e
		}
	}
	return -1
}

// walk resolves the class of one entry and moves the open-element stack
// past it: the entry opens its element and closes closeCount.
func (b *Builder) walk(tag int32, closeCount int) int32 {
	return b.push(b.class(tag), closeCount)
}

// push opens class id and closes closeCount elements.
func (b *Builder) push(id int32, closeCount int) int32 {
	b.stack = append(b.stack, id)
	if closeCount > len(b.stack) {
		b.err = fmt.Errorf("pathsum: entry closes %d elements with %d open", closeCount, len(b.stack))
		return -1
	}
	b.stack = b.stack[:len(b.stack)-closeCount]
	return id
}

// EndBlock seals the entries fed since the previous boundary as one block.
func (b *Builder) EndBlock() { b.open = false }

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
// Finish splices the new block starts between the untouched prefix and
// suffix. The original summary is never mutated.
//
// A rewrite that changed nothing but access codes, and left every block
// boundary where it was, need not be replayed: its blocks start in the same
// classes. The caller then starts at the first changed entry with
// BeginRecode, feeds Recoded with the changed entries, and ends with
// FinishRecode; only the changed entries' classes observe their codes.
// Re-observing an unchanged code would not move a mode anyway — every
// stored code was observed when it was written, and modes only degrade.
// The clone is taken at the first observation that moves a class's mode or
// code: a recode that changes no verdict keeps the original summary.
type RegionRewrite struct {
	orig *Summary
	// b builds on orig itself until own gives it a clone: at the first
	// Entry, or at the first Recoded that changes a class.
	b    *Builder
	i, j int
}

// BeginRewrite starts a rewrite of blocks [i, j] of s.
func (s *Summary) BeginRewrite(i, j int) (*RegionRewrite, error) {
	if i < 0 || j < i || j >= len(s.starts) {
		return nil, fmt.Errorf("pathsum: rewrite region [%d, %d] of %d blocks", i, j, len(s.starts))
	}
	b := &Builder{s: s}
	if id := s.starts[i]; id >= 0 {
		// A class's depth is the number of elements open above it.
		b.stack = make([]int32, s.nodes[id].Depth+1)
		for ; id >= 0; id = s.nodes[id].Parent {
			b.stack[s.nodes[id].Depth] = id
		}
	}
	return &RegionRewrite{orig: s, b: b, i: i, j: j}, nil
}

// BeginRecode starts a code-only rewrite at an entry of block i: outer of
// the elements open where the block starts are still open at the entry,
// and tags are the tags of the elements the block has opened above it
// since, outermost first.
func (s *Summary) BeginRecode(i, outer int, tags []int32) (*RegionRewrite, error) {
	r, err := s.BeginRewrite(i, i)
	if err != nil {
		return nil, err
	}
	if outer < 0 || outer > len(r.b.stack) {
		return nil, fmt.Errorf("pathsum: %d outer elements open in block %d, which starts under %d", outer, i, len(r.b.stack))
	}
	r.b.stack = r.b.stack[:outer]
	for _, t := range tags {
		r.step(t, 0)
	}
	return r, r.b.err
}

// own switches the builder from the original summary to a clone of it.
func (r *RegionRewrite) own() {
	if r.b.s == r.orig {
		r.b.s = &Summary{
			nodes:       append([]Node(nil), r.orig.nodes...),
			child:       r.orig.child,
			sharedChild: true,
			numbering:   r.orig.numbering,
		}
	}
}

// Entry records one rewritten entry (same contract as Builder.Entry).
func (r *RegionRewrite) Entry(tag int32, closeCount int, code uint32) {
	r.own()
	r.b.Entry(tag, closeCount, code)
}

// EndBlock seals one rewritten block.
func (r *RegionRewrite) EndBlock() { r.b.EndBlock() }

// Recoded walks past one changed entry of a code-only rewrite: its class
// observes code, the code now in force at it.
func (r *RegionRewrite) Recoded(tag int32, closeCount int, code uint32) {
	id := r.step(tag, closeCount)
	if id < 0 {
		return
	}
	n := r.b.s.nodes[id]
	n.observe(code)
	if n != r.b.s.nodes[id] {
		r.own()
		r.b.s.nodes[id] = n
	}
}

// step walks one entry of a code-only rewrite, whose path must be a class
// the summary has.
func (r *RegionRewrite) step(tag int32, closeCount int) int32 {
	if r.b.err != nil {
		return -1
	}
	id, ok := r.b.s.ChildOf(r.b.top(), tag)
	if !ok {
		r.b.err = fmt.Errorf("pathsum: recoded entry of tag %d is no class under class %d", tag, r.b.top())
		return -1
	}
	return r.b.push(id, closeCount)
}

// FinishRecode returns the summary after a code-only rewrite: the original
// when no class changed, else the clone, which shares the original's block
// starts. ok=false means an entry did not fit the region's old structure
// (it closed more elements than were open, or its path is a class the
// summary lacks), and the caller must rebuild the summary.
func (r *RegionRewrite) FinishRecode() (*Summary, bool) {
	if r.b.err != nil {
		return nil, false
	}
	if r.b.s != r.orig {
		r.b.s.starts = r.orig.starts
	}
	return r.b.s, true
}

// Finish verifies the rewritten region exits in the same open-element
// context the old region did and returns the spliced summary. ok=false
// means the replay did not line up and the caller must rebuild the
// summary from storage.
func (r *RegionRewrite) Finish() (*Summary, bool) {
	r.own()
	if r.b.err != nil || r.b.open {
		return nil, false
	}
	want := int32(-1)
	if r.j+1 < len(r.orig.starts) {
		want = r.orig.starts[r.j+1]
	}
	if r.b.top() != want {
		return nil, false
	}
	clone := r.b.s
	clone.starts = slices.Concat(r.orig.starts[:r.i], clone.starts, r.orig.starts[r.j+1:])
	return clone, true
}

// VerifyAgainst checks a maintained summary s against one rebuilt fresh
// from the same blocks: every live path must be present with the same
// depth, every block must start in the same class, and every uniform-code
// claim must hold in storage. Extinct classes (left behind by deletions)
// are allowed as long as no block starts in one; mixed-mode claims are
// always sound (they promise nothing).
func (s *Summary) VerifyAgainst(rebuilt *Summary) error {
	if len(s.starts) != len(rebuilt.starts) {
		return fmt.Errorf("pathsum: %d blocks, storage has %d", len(s.starts), len(rebuilt.starts))
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
		rid, ok := rebuilt.ChildOf(parent, n.Tag)
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
	for b, start := range s.starts {
		want := int32(-1)
		if start >= 0 {
			if int(start) >= len(mapTo) || mapTo[start] < 0 {
				return fmt.Errorf("pathsum: block %d starts in extinct class %d", b, start)
			}
			want = mapTo[start]
		}
		if want != rebuilt.starts[b] {
			return fmt.Errorf("pathsum: block %d start class mismatch", b)
		}
	}
	return nil
}
