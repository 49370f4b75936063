package nok

import (
	"context"
	"fmt"

	"dolxml/internal/xmltree"
)

// Cursor navigates the store one block visit at a time: it remembers the
// block of the last node it was asked about, so FIRST-CHILD,
// FOLLOWING-SIBLING, the access-code lookup and the subtree-end search of
// any node in that block are array reads in its positional index and touch
// no lock. Moving to another block costs one directory search, one
// decode-cache lookup and one buffer-pool Get+Unpin — the pool's recency,
// its Gets = Hits + Misses accounting and the page_pin trace events count
// block visits — and consults the context, so a cancelled query stops
// before the next block is touched.
//
// A cursor holds the decoded block, never a pin, and belongs to one
// goroutine. It is bound to the directory it was created over: a cursor on
// a live store that RewriteRegion or RecodeBlock then changes must be
// discarded — RecodeBlock may patch the very index the cursor holds, since
// the live store's reads do not mark it shared. The frozen clones queries
// evaluate against never change, and their reads mark what they hold. The
// Store's own navigation methods are this cursor, used once.
type Cursor struct {
	s *Store
	// idx is the directory index of the current block, first its
	// dir[idx].FirstNode and blk its decoded entries; blk is nil until the
	// first block is entered.
	idx   int
	first xmltree.NodeID
	blk   []slot
}

// NewCursor returns a cursor positioned on no block.
func (s *Store) NewCursor() *Cursor { return &Cursor{s: s} }

// enter makes block i the current block.
func (c *Cursor) enter(ctx context.Context, i int) error {
	blk, err := c.s.block(ctx, i)
	if err != nil {
		return err
	}
	c.idx, c.first, c.blk = i, c.s.dir[i].FirstNode, blk
	return nil
}

// locate returns n's offset in the current block, entering n's block first
// when the cursor is elsewhere.
func (c *Cursor) locate(ctx context.Context, n xmltree.NodeID) (int, error) {
	if off := int(n - c.first); uint(off) < uint(len(c.blk)) {
		return off, nil
	}
	if !c.s.Valid(n) {
		return 0, fmt.Errorf("nok: invalid node %d", n)
	}
	i := c.s.pageOf(n)
	if err := c.enter(ctx, i); err != nil {
		return 0, err
	}
	off := int(n - c.first)
	if off >= len(c.blk) {
		return 0, fmt.Errorf("nok: node %d not found in block %d", n, i)
	}
	return off, nil
}

// BlockOf returns the directory index of the block holding node n without
// reading it: the current block's when n lies there, otherwise a directory
// search.
func (c *Cursor) BlockOf(n xmltree.NodeID) int {
	if off := int(n - c.first); uint(off) < uint(len(c.blk)) {
		return c.idx
	}
	return c.s.pageOf(n)
}

// Info returns the decoded state of node n — the access-lookup procedure
// of §3.3: the governing transition code is always found in n's own block.
func (c *Cursor) Info(ctx context.Context, n xmltree.NodeID) (NodeInfo, error) {
	off, err := c.locate(ctx, n)
	if err != nil {
		return NodeInfo{}, err
	}
	sl := &c.blk[off]
	return NodeInfo{ID: n, Entry: sl.entry(), Level: int(sl.level), Code: sl.code}, nil
}

// Code returns the access code in force at node n: Info's Code alone.
func (c *Cursor) Code(ctx context.Context, n xmltree.NodeID) (uint32, error) {
	off, err := c.locate(ctx, n)
	if err != nil {
		return 0, err
	}
	return c.blk[off].code, nil
}

// FirstChild returns the first child of n, or InvalidNode if n is a leaf —
// subroutine FIRST-CHILD of Algorithm 1.
func (c *Cursor) FirstChild(ctx context.Context, n xmltree.NodeID) (xmltree.NodeID, error) {
	off, err := c.locate(ctx, n)
	if err != nil {
		return xmltree.InvalidNode, err
	}
	if c.blk[off].closeCount() > 0 {
		return xmltree.InvalidNode, nil
	}
	return n + 1, nil
}

// FollowingSibling returns the next sibling of n, or InvalidNode —
// subroutine FOLLOWING-SIBLING of Algorithm 1. Inside n's block the answer
// is one index lookup; past it the scan skips, via the in-memory directory
// alone, every block that provably lies strictly inside n's subtree
// (MinDepth > level(n)).
//
// skip, when non-nil, extends the cross-block scan with the page-skip
// predicate of secure matching (§3.3): a block for which skip reports true
// (every node in it is dead to the caller, per its in-memory header) is
// passed over without a physical read when its MinDepth is at least the
// sibling level — it can only hold skippable siblings and their
// descendants. When such a block also holds a node shallower than the
// sibling level, the parent's subtree ends inside it and the scan
// concludes, again without I/O, that no eligible sibling remains. The
// returned node is therefore the next sibling that does not lie in a
// wholly skipped block; with a nil predicate it is exactly the next
// sibling.
func (c *Cursor) FollowingSibling(ctx context.Context, n xmltree.NodeID, skip func(pageIdx int) bool) (xmltree.NodeID, error) {
	off, err := c.locate(ctx, n)
	if err != nil {
		return xmltree.InvalidNode, err
	}
	level := c.blk[off].level
	if j := int(c.blk[off].next); j < len(c.blk) {
		if c.blk[j].level == level {
			return c.first + xmltree.NodeID(j), nil
		}
		return xmltree.InvalidNode, nil
	}
	return c.NextSiblingFromBlock(ctx, c.idx+1, int(level), skip)
}

// firstUpTo returns the offset of the block's first entry at a level ≤
// target, or len(blk). It follows successor offsets, so it visits one entry
// per level and sibling on the way up instead of every entry.
func firstUpTo(blk []slot, target int) int {
	j := 0
	for j < len(blk) && int(blk[j].level) > target {
		j = int(blk[j].next)
	}
	return j
}

// NextSiblingFromBlock is the cross-block tail of a sibling scan: starting
// at directory index k, it returns the first node at exactly targetLevel,
// or InvalidNode once a shallower node (or a skipped block proving one)
// shows the enclosing subtree has closed — under the skip discipline of
// FollowingSibling, and without reading block k when the directory or the
// skip predicate can dispose of it. The ε-NoK matcher also calls it
// directly when a child scan lands on the first node of a block its skip
// mask excludes: every node in that block is then known unmatchable, and
// the block's MinDepth alone decides whether the scan continues past it or
// the parent's subtree closes inside it.
func (c *Cursor) NextSiblingFromBlock(ctx context.Context, k, targetLevel int, skip func(pageIdx int) bool) (xmltree.NodeID, error) {
	dir := c.s.dir
	if k < 0 || k > len(dir) {
		return xmltree.InvalidNode, fmt.Errorf("nok: invalid block %d of %d", k, len(dir))
	}
	for ; k < len(dir); k++ {
		pi := &dir[k]
		if int(pi.MinDepth) > targetLevel {
			continue // directory-only skip: block is inside the subtree
		}
		if skip != nil && skip(k) {
			if int(pi.MinDepth) >= targetLevel {
				continue // only skippable siblings and their subtrees
			}
			// The parent subtree ends inside a fully-skipped block: no
			// eligible sibling remains.
			return xmltree.InvalidNode, nil
		}
		if int(pi.StartDepth) <= targetLevel {
			if int(pi.StartDepth) == targetLevel {
				return pi.FirstNode, nil
			}
			return xmltree.InvalidNode, nil
		}
		if err := c.enter(ctx, k); err != nil {
			return xmltree.InvalidNode, err
		}
		if j := firstUpTo(c.blk, targetLevel); j < len(c.blk) {
			if int(c.blk[j].level) == targetLevel {
				return c.first + xmltree.NodeID(j), nil
			}
			return xmltree.InvalidNode, nil
		}
	}
	return xmltree.InvalidNode, nil
}

// SubtreeEnd returns the last node of n's subtree (n itself for leaves),
// using the same index lookup and directory-assisted scan as
// FollowingSibling.
func (c *Cursor) SubtreeEnd(ctx context.Context, n xmltree.NodeID) (xmltree.NodeID, error) {
	off, err := c.locate(ctx, n)
	if err != nil {
		return xmltree.InvalidNode, err
	}
	level := int(c.blk[off].level)
	if j := int(c.blk[off].next); j < len(c.blk) {
		return c.first + xmltree.NodeID(j) - 1, nil
	}
	dir := c.s.dir
	for k := c.idx + 1; k < len(dir); k++ {
		pi := &dir[k]
		if int(pi.MinDepth) > level {
			continue
		}
		if int(pi.StartDepth) <= level {
			return pi.FirstNode - 1, nil
		}
		if err := c.enter(ctx, k); err != nil {
			return xmltree.InvalidNode, err
		}
		if j := firstUpTo(c.blk, level); j < len(c.blk) {
			return c.first + xmltree.NodeID(j) - 1, nil
		}
	}
	return xmltree.NodeID(c.s.numNodes - 1), nil
}
