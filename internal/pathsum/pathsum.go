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

// Summary is the path summary of one store state. Installed summaries are
// never mutated; updates build a clone via BeginRewrite.
type Summary struct {
	nodes []Node
	child map[childKey]int32
	// sharedChild marks child as the original's map on a rewrite's clone:
	// intern copies it before adding the clone's first class of its own.
	sharedChild bool
	// starts holds by structure block the class of the innermost element
	// open when the block begins (-1 = document root context).
	starts []int32
	// numbering identifies the class numbering: a summary built from scratch
	// (a Builder) starts a new one, and a rewrite's clone keeps its
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

// NodeAt returns class id.
func (s *Summary) NodeAt(id int32) Node { return s.nodes[id] }

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
	return len(s.nodes)*16 + len(s.starts)*4
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
	if s.sharedChild {
		own := make(map[childKey]int32, len(s.child)+1)
		for k, v := range s.child {
			own[k] = v
		}
		s.child, s.sharedChild = own, false
	}
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
	err   error
	// recent is a direct-mapped cache in front of s.child, which stays the
	// authority: slot h(parent, tag) holds a class id plus one, trusted
	// only when that class's parent and tag match. A document's paths
	// repeat, so most entries resolve here without a map probe. It is
	// allocated at the first class lookup: a code-only recode makes none.
	recent *[1 << recentBits]int32
}

const recentBits = 8

// class returns the class of tag under the innermost open element.
func (b *Builder) class(tag int32) int32 {
	parent := b.top()
	h := (uint32(parent)*0x9E3779B1 ^ uint32(tag)*0x85EBCA77) >> (32 - recentBits)
	if b.recent == nil {
		b.recent = new([1 << recentBits]int32)
	}
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
		b.s.starts = append(b.s.starts, b.top())
	}
	id := b.walk(tag, closeCount)
	if id < 0 {
		return -1
	}
	b.s.nodes[id].observe(code)
	return id
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
