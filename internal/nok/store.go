package nok

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"dolxml/internal/btree"
	"dolxml/internal/obs"
	"dolxml/internal/pathsum"
	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// Block layout (within one storage page):
//
//	offset 0  u32  firstNode      document-order ID of the first entry
//	offset 4  u16  startDepth     level of the first entry (root = 0)
//	offset 6  u16  minDepth       minimum level of any entry in the block
//	offset 8  u16  count          number of entries
//	offset 10 u16  dataLen        bytes of encoded entries following header
//	offset 12 u32  accessCode     DOL code in force at the first entry (§3.2)
//	offset 16 u8   flags          bit 0: change bit (§3.2)
//	offset 17      entries...
const (
	headerSize    = 17
	flagChangeBit = 1 << 0
)

// PageInfo is the in-memory directory record for one structure block — the
// "page header kept in memory" of paper §3.2 that enables access checks and
// page skipping without physical reads.
type PageInfo struct {
	// Page is the underlying storage page.
	Page storage.PageID
	// FirstNode is the document-order ID of the block's first entry.
	FirstNode xmltree.NodeID
	// Count is the number of entries in the block.
	Count int
	// StartDepth is the level of the first entry.
	StartDepth uint16
	// MinDepth is the minimum level of any entry in the block; a
	// navigation scan looking for an ancestor boundary at level ≤ L may
	// skip the block whenever MinDepth > L.
	MinDepth uint16
	// AccessCode is the DOL access-control code in force at the first
	// entry (the block's implicit initial transition node).
	AccessCode uint32
	// ChangeBit is set when the block contains at least one transition
	// node beyond the initial one; clear means AccessCode governs every
	// node in the block (§3.3 page skipping).
	ChangeBit bool
}

// Store is a block-oriented succinct structure store for one document,
// optionally carrying embedded DOL access codes.
type Store struct {
	pool *storage.BufferPool
	// dir lists blocks in document order; it is the in-memory page
	// directory.
	dir      []PageInfo
	tags     []string
	tagIndex map[string]int32
	numNodes int
	values   *ValueStore
	// freeList holds pages released by shrinking region rewrites,
	// available for reuse by growing ones.
	freeList []storage.PageID
	// gate, when set, defers page reuse for snapshot isolation: freePage
	// diverts released pages into retired instead of freeList, and
	// allocPage replenishes freeList only from gate.Harvest() — pages whose
	// last referencing snapshot has retired. With a gate installed, page
	// content is immutable for as long as any pinned snapshot references
	// the page.
	gate PageReuseGate
	// retired accumulates pages released by the current update transaction;
	// the owner collects them with TakeRetired at commit and hands them to
	// the version table tagged with the new version's sequence.
	retired []storage.PageID

	// paths is the global path summary (one node per distinct root-to-tag
	// label path, with the class each block of dir starts in). Installed
	// summaries are immutable: RewriteRegion replaces the pointer with a
	// copy-on-write clone, so frozen snapshots share it safely.
	paths *pathsum.Summary

	// dec is the decoded-block cache: each entry is a block's positional
	// index (see slot), so a navigation step or access lookup in a cached
	// block is an array read. Caching decoded blocks under a byte budget
	// takes block decoding out of query evaluation without changing I/O
	// behavior (the underlying pages still flow through the buffer pool
	// and its statistics, once per block visit). Cached slices are
	// immutable once a frozen clone has read them; until then a splice
	// may patch them in place. Store mutations (RewriteRegion and
	// friends) must be externally serialized against readers of the live
	// store — securexml does so behind its store lock — but readers of
	// frozen clones run beside them.
	dec *decodeCache
	// frozen marks a clone from Freeze: its reads mark the decoded blocks
	// they take shared.
	frozen bool

	// recodes counts how code-only updates were written; shared by
	// frozen clones, like dec.
	recodes *recodeCounters
}

// recodeCounters count the two ways a code-only update is written:
// spliced into its block (RecodeBlock) or laid out again (RecodeRegion).
type recodeCounters struct {
	splices, relayouts obs.Counter
}

// invalidateDecoded drops a page from the decode cache (after a rewrite).
func (s *Store) invalidateDecoded(pid storage.PageID) {
	s.dec.take(pid)
}

// PageReuseGate quarantines freed pages until no pinned snapshot can still
// read them. storage.VersionTable implements it.
type PageReuseGate interface {
	// Harvest returns pages whose quarantine has ended, transferring
	// ownership to the caller.
	Harvest() []storage.PageID
}

// SetPageReuseGate installs (or clears) the deferred-reuse gate. Installing
// a gate switches region rewrites to shadow paging: every rewritten block
// lands on a fresh or harvested page, never overwriting a page a live
// snapshot might reference.
func (s *Store) SetPageReuseGate(g PageReuseGate) { s.gate = g }

// TakeRetired returns the pages released since the last call and resets the
// list. Meaningful only with a gate installed; the caller passes them to
// the version table when publishing the commit (or drops them when the
// transaction aborts — a dirty abort poisons the store anyway).
func (s *Store) TakeRetired() []storage.PageID {
	out := s.retired
	s.retired = nil
	return out
}

// Freeze returns a read-only clone sharing the current pages, directory,
// path summary, tag table, values and decode cache. The live store's later
// mutations install fresh slices and maps (and, with a gate, never rewrite
// a referenced page in place), so the clone keeps serving its version while
// updates proceed. The clone must not be mutated.
func (s *Store) Freeze() *Store {
	c := *s
	if s.values != nil {
		v := *s.values
		c.values = &v
	}
	c.freeList = nil
	c.retired = nil
	c.gate = nil
	c.frozen = true
	return &c
}

// NumNodes returns the number of nodes in the stored document.
func (s *Store) NumNodes() int { return s.numNodes }

// NumPages returns the number of structure blocks.
func (s *Store) NumPages() int { return len(s.dir) }

// PageInfoAt returns the directory record for block i.
func (s *Store) PageInfoAt(i int) PageInfo { return s.dir[i] }

// Directory returns the in-memory page directory (shared; read-only for
// callers).
func (s *Store) Directory() []PageInfo { return s.dir }

// DirectoryBytes estimates the in-memory size of the page directory, the
// quantity behind the paper's "3 MB–10 MB of headers per 1 TB" claim.
func (s *Store) DirectoryBytes() int {
	// Page, FirstNode: 4+4; depths: 2+2; count: 2 (practically); code: 4;
	// change bit: 1.
	return len(s.dir) * 19
}

// TagName returns the tag string for a tag code.
func (s *Store) TagName(code int32) string { return s.tags[code] }

// NumTags returns the number of distinct tags.
func (s *Store) NumTags() int { return len(s.tags) }

// LookupTag returns the code for a tag name.
func (s *Store) LookupTag(tag string) (int32, bool) {
	c, ok := s.tagIndex[tag]
	return c, ok
}

// Values returns the store's value store, or nil if values were not stored.
func (s *Store) Values() *ValueStore { return s.values }

// Valid reports whether n is a node of the stored document.
func (s *Store) Valid(n xmltree.NodeID) bool { return n >= 0 && int(n) < s.numNodes }

// pageOf returns the directory index of the block containing node n.
func (s *Store) pageOf(n xmltree.NodeID) int {
	// First block whose FirstNode > n, minus one.
	i := sort.Search(len(s.dir), func(i int) bool { return s.dir[i].FirstNode > n })
	return i - 1
}

// block loads block i and returns its decoded positional index — one block
// visit. The slice is shared via the decode cache: immutable on a frozen
// clone, and on the live store until its next RecodeBlock. The
// context is consulted at the page-fetch boundary, so a cancelled query
// stops before pinning another page.
func (s *Store) block(ctx context.Context, i int) ([]slot, error) {
	pid := s.dir[i].Page
	f, err := s.pool.GetCtx(ctx, pid)
	if err != nil {
		return nil, err
	}
	// A decode-cache hit still goes through the pool, releasing the pin at
	// once: the page is logically touched, so the pool's recency and
	// statistics stay meaningful.
	blk, ok := s.dec.get(pid, s.frozen)
	if !ok {
		obs.TraceFromContext(ctx).PageDecode(int64(pid))
		if blk, err = decodeBlock(s.dir[i], f.Data); err == nil {
			s.dec.put(pid, blk, nil, s.frozen)
		}
	}
	if uerr := s.pool.Unpin(pid, false); err == nil {
		err = uerr
	}
	if err != nil {
		return nil, err
	}
	return blk, nil
}

// NodeInfo is the decoded state of one node.
type NodeInfo struct {
	ID    xmltree.NodeID
	Entry Entry
	// Level is the node's depth (root = 0).
	Level int
	// Code is the DOL access code in force at this node (the code of the
	// nearest preceding transition node, found in the same block).
	Code uint32
}

// The navigation primitives below are the stateless form of Cursor: each
// call is one block visit through a throwaway cursor. Callers that take
// many steps hold a Cursor instead.

// Info returns the decoded state of node n.
func (s *Store) Info(n xmltree.NodeID) (NodeInfo, error) {
	return s.InfoCtx(context.Background(), n)
}

// InfoCtx is Info with cancellation at the page-fetch boundary.
func (s *Store) InfoCtx(ctx context.Context, n xmltree.NodeID) (NodeInfo, error) {
	c := Cursor{s: s}
	return c.Info(ctx, n)
}

// Tag returns the tag code of node n.
func (s *Store) Tag(n xmltree.NodeID) (int32, error) {
	info, err := s.Info(n)
	if err != nil {
		return 0, err
	}
	return info.Entry.Tag, nil
}

// Level returns the depth of node n.
func (s *Store) Level(n xmltree.NodeID) (int, error) {
	info, err := s.Info(n)
	if err != nil {
		return 0, err
	}
	return info.Level, nil
}

// AccessCodeAt returns the DOL access code governing node n. Per the
// paper's design the lookup touches only n's own block (plus the in-memory
// directory), so when the block is already at hand for navigation the
// check costs no additional I/O.
func (s *Store) AccessCodeAt(n xmltree.NodeID) (uint32, error) {
	return s.AccessCodeAtCtx(context.Background(), n)
}

// AccessCodeAtCtx is AccessCodeAt with cancellation at the page-fetch
// boundary.
func (s *Store) AccessCodeAtCtx(ctx context.Context, n xmltree.NodeID) (uint32, error) {
	info, err := s.InfoCtx(ctx, n)
	if err != nil {
		return 0, err
	}
	return info.Code, nil
}

// FirstChild is Cursor.FirstChild for a single step.
func (s *Store) FirstChild(n xmltree.NodeID) (xmltree.NodeID, error) {
	return s.FirstChildCtx(context.Background(), n)
}

// FirstChildCtx is FirstChild with cancellation at the page-fetch boundary.
func (s *Store) FirstChildCtx(ctx context.Context, n xmltree.NodeID) (xmltree.NodeID, error) {
	c := Cursor{s: s}
	return c.FirstChild(ctx, n)
}

// FollowingSibling is Cursor.FollowingSibling for a single step, with no
// skip predicate.
func (s *Store) FollowingSibling(n xmltree.NodeID) (xmltree.NodeID, error) {
	return s.FollowingSiblingSkipCtx(context.Background(), n, nil)
}

// FollowingSiblingSkipCtx is Cursor.FollowingSibling for a single step,
// with cancellation at every page-fetch boundary of the cross-block scan.
func (s *Store) FollowingSiblingSkipCtx(ctx context.Context, n xmltree.NodeID, skip func(pageIdx int) bool) (xmltree.NodeID, error) {
	c := Cursor{s: s}
	return c.FollowingSibling(ctx, n, skip)
}

// SubtreeEnd is Cursor.SubtreeEnd for a single step.
func (s *Store) SubtreeEnd(n xmltree.NodeID) (xmltree.NodeID, error) {
	return s.SubtreeEndCtx(context.Background(), n)
}

// SubtreeEndCtx is SubtreeEnd with cancellation at every page-fetch
// boundary of the cross-block scan.
func (s *Store) SubtreeEndCtx(ctx context.Context, n xmltree.NodeID) (xmltree.NodeID, error) {
	c := Cursor{s: s}
	return c.SubtreeEnd(ctx, n)
}

// WalkSubtree calls visit for every node in n's subtree in document order,
// including n itself, streaming block by block. visit receives each node's
// info; returning false stops the walk early.
func (s *Store) WalkSubtree(n xmltree.NodeID, visit func(NodeInfo) bool) error {
	if !s.Valid(n) {
		return fmt.Errorf("nok: invalid node %d", n)
	}
	end, err := s.SubtreeEnd(n)
	if err != nil {
		return err
	}
	for i := s.pageOf(n); i < len(s.dir); i++ {
		pi := s.dir[i]
		if pi.FirstNode > end {
			break
		}
		blk, err := s.block(context.Background(), i)
		if err != nil {
			return err
		}
		for j := range blk {
			id := pi.FirstNode + xmltree.NodeID(j)
			if id < n || id > end {
				continue
			}
			sl := &blk[j]
			if !visit(NodeInfo{ID: id, Entry: sl.entry(), Level: int(sl.level), Code: sl.code}) {
				return nil
			}
		}
	}
	return nil
}

// PageIndexOf returns the directory index of the block holding node n, for
// use with skip hints.
func (s *Store) PageIndexOf(n xmltree.NodeID) int { return s.pageOf(n) }

// Paths returns the store's path summary. The returned summary is
// immutable.
func (s *Store) Paths() *pathsum.Summary { return s.paths }

// PathSummaryBytes estimates the in-memory size of the path summary.
func (s *Store) PathSummaryBytes() int { return s.paths.Bytes() }

// PathSummaryMeta returns the serializable form of the path summary without
// building a full Meta, whose value-ref list is large — commit paths
// re-encode just this per seal.
func (s *Store) PathSummaryMeta() *pathsum.Meta { return s.paths.ToMeta() }

// RebuildPathSummary reconstructs the path summary from the structure
// blocks. Build and Open install one automatically; this is the recovery
// path when an incremental rewrite cannot replay cleanly, and the oracle
// for tests.
func (s *Store) RebuildPathSummary() error {
	ps, err := s.scanPathSummary(s.paths.NumNodes(), nil)
	if err != nil {
		return err
	}
	s.paths = ps
	return nil
}

// Extents is what an extent pass yields, by node ID: each node's posting —
// its subtree's first and last node and its level — and its path class (its
// tag code, in the pass ForEachExtent makes, which resolves no class).
type Extents struct {
	Postings []btree.Posting
	Classes  []int32
}

func newExtents(numNodes int) *Extents {
	return &Extents{Postings: make([]btree.Posting, numNodes), Classes: make([]int32, numNodes)}
}

// scanPathSummary builds a fresh path summary of about classes path
// classes from the blocks, in a walk that fills x (when non-nil) on the
// way, with the classes of the summary built.
func (s *Store) scanPathSummary(classes int, x *Extents) (*pathsum.Summary, error) {
	psb := pathsum.NewBuilder(min(classes, s.numNodes))
	if err := s.walk(psb, nil, x); err != nil {
		return nil, err
	}
	ps, err := psb.Finish()
	if err != nil {
		return nil, fmt.Errorf("nok: path summary scan: %w", err)
	}
	return ps, nil
}

// CheckConsistency cross-validates the in-memory page directory against
// the on-disk block contents (see walk) and the installed path summary
// against a recomputation. Open has run the same pass; this is the
// operational sanity check for a store that has been updated since, and for
// tests.
func (s *Store) CheckConsistency() error {
	rebuilt, err := s.scanPathSummary(s.paths.NumNodes(), nil)
	if err != nil {
		return err
	}
	return s.paths.VerifyAgainst(rebuilt)
}

// ForEachExtent reports every node's subtree extent, level and tag code, in
// document order, from a single pass over the structure blocks — the input
// needed to (re)build a tag index over the store.
func (s *Store) ForEachExtent(visit func(n, end xmltree.NodeID, level int, tag int32)) error {
	x := newExtents(s.numNodes)
	if err := s.walk(nil, nil, x); err != nil {
		return err
	}
	for i, p := range x.Postings {
		visit(p.Node, p.End, int(p.Level), x.Classes[i])
	}
	return nil
}

// ClassExtents is the extent pass with each node's class in the store's
// own path summary: the input of an index grouped by class, numbered as the
// summary the store's queries embed into.
func (s *Store) ClassExtents() (*Extents, error) {
	x := newExtents(s.numNodes)
	if err := s.walk(nil, s.paths, x); err != nil {
		return nil, err
	}
	return x, nil
}

// openNode is one still-open subtree during an extent walk.
type openNode struct {
	node  xmltree.NodeID
	class int32
}

// extentStackPool recycles the open-subtree stacks of walk: the stack grows
// to document depth and index rebuilds run it over the whole store.
var extentStackPool = sync.Pool{
	New: func() any {
		s := make([]openNode, 0, 64)
		return &s
	},
}

// walk is the one pass over the structure blocks, in document order. It
// holds the in-memory page directory against the block contents — contiguous
// node coverage, entry counts, header depths and change bits, tag codes,
// balanced parenthesis structure, each block's positional index against a
// recomputation, levels and codes by an indexCheck, successors from the
// open elements — and on the way feeds psb (when non-nil) the nodes a path
// summary is built from and fills x (when non-nil, sized to the store's
// nodes) with each node's extent as its subtree closes. It keeps the open
// elements itself, with their classes: the ones psb gives, or else their
// classes in sum, or else, with neither, their tag codes.
func (s *Store) walk(psb *pathsum.Builder, sum *pathsum.Summary, x *Extents) error {
	stackBuf := extentStackPool.Get().(*[]openNode)
	defer func() { extentStackPool.Put(stackBuf) }()
	stack := (*stackBuf)[:0]
	defer func() { *stackBuf = stack }()
	numTags := uint32(len(s.tags))
	next := xmltree.NodeID(0)
	depth := 0
	for i := range s.dir {
		pi := s.dir[i]
		if pi.FirstNode != next {
			return fmt.Errorf("nok: block %d starts at node %d, want %d", i, pi.FirstNode, next)
		}
		if int(next)+pi.Count > s.numNodes {
			return fmt.Errorf("nok: blocks cover more than the store's %d nodes", s.numNodes)
		}
		blk, err := s.block(context.Background(), i)
		if err != nil {
			return err
		}
		if len(blk) != pi.Count {
			return fmt.Errorf("nok: block %d has %d entries, directory says %d", i, len(blk), pi.Count)
		}
		if pi.Count == 0 {
			return fmt.Errorf("nok: block %d is empty", i)
		}
		if blk[0].hasCode() {
			return fmt.Errorf("nok: block %d first entry carries an inline code", i)
		}
		if int(pi.StartDepth) != depth {
			return fmt.Errorf("nok: block %d starts at depth %d, carry-over is %d", i, pi.StartDepth, depth)
		}
		// The stack holds one open element per level above the next entry's:
		// the index check shows, entry by entry, that none closes more.
		parent := int32(-1)
		if len(stack) > 0 {
			parent = stack[len(stack)-1].class
		}
		if psb != nil {
			psb.BeginBlock(parent)
		}
		ic := newIndexCheck(pi)
		for j := range blk {
			sl := &blk[j]
			if !ic.step(sl) {
				return ic.fail(pi, j, sl)
			}
			if uint32(sl.tag) >= numTags {
				return fmt.Errorf("nok: block %d references unknown tag %d", i, sl.tag)
			}
			id := next + xmltree.NodeID(j)
			class := sl.tag
			switch {
			case psb != nil:
				if class = psb.Hit(parent, sl.tag, sl.code); class < 0 {
					class = psb.Child(parent, sl.tag, sl.code)
				}
			case sum != nil:
				var ok bool
				if class, ok = sum.ChildOf(parent, sl.tag); !ok {
					return fmt.Errorf("nok: node %d (tag %d) has no class under class %d", id, sl.tag, parent)
				}
			}
			stack = append(stack, openNode{id, class})
			for c := sl.closeCount(); c > 0; c-- {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				// A node's successor in its block is the entry after the one
				// that closes it.
				if k := int(top.node - next); k >= 0 && int(blk[k].next) != j+1 {
					return fmt.Errorf("nok: page %d entry %d successor offset %d, recomputed %d", pi.Page, k, blk[k].next, j+1)
				}
				if x != nil {
					x.Postings[top.node] = btree.Posting{Node: top.node, End: id, Level: uint16(len(stack))}
					x.Classes[top.node] = top.class
				}
			}
			parent = -1
			if len(stack) > 0 {
				parent = stack[len(stack)-1].class
			}
		}
		// The block ends inside the subtrees still open.
		for k := len(stack) - 1; k >= 0 && stack[k].node >= next; k-- {
			if j := int(stack[k].node - next); int(blk[j].next) != len(blk) {
				return fmt.Errorf("nok: page %d entry %d successor offset %d, recomputed %d", pi.Page, j, blk[j].next, len(blk))
			}
		}
		if int(pi.MinDepth) != ic.min {
			return fmt.Errorf("nok: block %d MinDepth %d, recomputed %d", i, pi.MinDepth, ic.min)
		}
		if pi.ChangeBit != ic.change {
			return fmt.Errorf("nok: block %d change bit %v, recomputed %v", i, pi.ChangeBit, ic.change)
		}
		if psb != nil {
			psb.EndBlock()
		}
		depth = ic.level
		next += xmltree.NodeID(pi.Count)
	}
	if int(next) != s.numNodes {
		return fmt.Errorf("nok: blocks cover %d nodes, store says %d", next, s.numNodes)
	}
	if depth != 0 {
		return fmt.Errorf("nok: document ends at depth %d, want 0", depth)
	}
	return nil
}
