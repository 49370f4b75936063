// Package btree implements a disk-resident B+-tree mapping (tag, node)
// keys to node postings (subtree extent and level). The NoK query
// processor uses it to find candidate matches for pattern-tree roots
// ("using B+ trees on the subtree root's value or tag names", paper §4.1),
// and the structural join operators consume its postings, which carry the
// (start, end, level) region encoding the Stack-Tree-Desc algorithm needs.
//
// Keys are composite (tag, node) pairs ordered lexicographically; postings
// for one tag are therefore stored contiguously in document order, and a
// tag scan is a ranged leaf walk.
//
// An index over a whole document is built bottom up by Load and LoadValues
// (bulk.go): one sort, every page written once, leaves packed full. Insert
// adds single keys to an existing tree and is the reference the loaders are
// tested against.
package btree

import (
	"encoding/binary"
	"fmt"

	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// Posting is the value stored per (tag, node) key.
type Posting struct {
	// Node is the posting's document-order ID (the region start).
	Node xmltree.NodeID
	// End is the last node of the subtree (the region end).
	End xmltree.NodeID
	// Level is the node's depth.
	Level uint16
}

// Page layout:
//
//	offset 0  u8   kind (0 = leaf, 1 = internal)
//	offset 1  u16  count
//	offset 3  u32  next (leaf: right sibling page or InvalidPage)
//	offset 7       payload
//
// Leaf entry (14 bytes): tag i32, node u32, end u32, level u16.
// Internal layout: count children (u32 each) followed by count-1 separator
// keys (tag i32, node u32).
const (
	pageHeader   = 7
	leafEntry    = 14
	childPtr     = 4
	sepKey       = 8
	kindLeaf     = 0
	kindInternal = 1
)

type key struct {
	tag  int32
	node xmltree.NodeID
}

func (k key) less(o key) bool {
	if k.tag != o.tag {
		return k.tag < o.tag
	}
	return k.node < o.node
}

// Tree is a B+-tree over a buffer pool. A Tree is not safe for concurrent
// mutation.
type Tree struct {
	pool     *storage.BufferPool
	root     storage.PageID
	height   int
	numKeys  int
	leafCap  int
	innerCap int
}

// New creates an empty tree, allocating its root leaf from pool.
func New(pool *storage.BufferPool) (*Tree, error) {
	t := &Tree{pool: pool}
	t.computeCaps()
	f, err := pool.Allocate()
	if err != nil {
		return nil, err
	}
	initLeaf(f.Data)
	t.root = f.ID()
	t.height = 1
	if err := pool.Unpin(f.ID(), true); err != nil {
		return nil, err
	}
	return t, nil
}

// Open re-attaches to an existing tree given its root and metadata.
func Open(pool *storage.BufferPool, root storage.PageID, height, numKeys int) *Tree {
	t := &Tree{pool: pool, root: root, height: height, numKeys: numKeys}
	t.computeCaps()
	return t
}

func (t *Tree) computeCaps() {
	ps := t.pool.Pager().PageSize()
	t.leafCap = (ps - pageHeader) / leafEntry
	t.innerCap = (ps - pageHeader - childPtr) / (childPtr + sepKey)
	if t.leafCap < 2 || t.innerCap < 2 {
		panic(fmt.Sprintf("btree: page size %d too small", ps))
	}
}

// Root returns the root page ID (persisted by callers for Open).
func (t *Tree) Root() storage.PageID { return t.root }

// Height returns the tree height (1 = a single leaf).
func (t *Tree) Height() int { return t.height }

// Len returns the number of stored keys.
func (t *Tree) Len() int { return t.numKeys }

func initLeaf(data []byte) {
	data[0] = kindLeaf
	binary.LittleEndian.PutUint16(data[1:3], 0)
	binary.LittleEndian.PutUint32(data[3:7], uint32(storage.InvalidPage))
}

func initInternal(data []byte) {
	data[0] = kindInternal
	binary.LittleEndian.PutUint16(data[1:3], 0)
	binary.LittleEndian.PutUint32(data[3:7], uint32(storage.InvalidPage))
}

func pageCount(data []byte) int   { return int(binary.LittleEndian.Uint16(data[1:3])) }
func setCount(data []byte, n int) { binary.LittleEndian.PutUint16(data[1:3], uint16(n)) }
func pageNext(data []byte) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(data[3:7]))
}
func setNext(data []byte, p storage.PageID) {
	binary.LittleEndian.PutUint32(data[3:7], uint32(p))
}

func leafKeyAt(data []byte, i int) key {
	off := pageHeader + i*leafEntry
	return key{
		tag:  int32(binary.LittleEndian.Uint32(data[off : off+4])),
		node: xmltree.NodeID(binary.LittleEndian.Uint32(data[off+4 : off+8])),
	}
}

func leafPostingAt(data []byte, i int) (int32, Posting) {
	off := pageHeader + i*leafEntry
	return int32(binary.LittleEndian.Uint32(data[off : off+4])), Posting{
		Node:  xmltree.NodeID(binary.LittleEndian.Uint32(data[off+4 : off+8])),
		End:   xmltree.NodeID(binary.LittleEndian.Uint32(data[off+8 : off+12])),
		Level: binary.LittleEndian.Uint16(data[off+12 : off+14]),
	}
}

func putLeafEntry(data []byte, i int, tag int32, p Posting) {
	off := pageHeader + i*leafEntry
	binary.LittleEndian.PutUint32(data[off:off+4], uint32(tag))
	binary.LittleEndian.PutUint32(data[off+4:off+8], uint32(p.Node))
	binary.LittleEndian.PutUint32(data[off+8:off+12], uint32(p.End))
	binary.LittleEndian.PutUint16(data[off+12:off+14], p.Level)
}

// Internal node accessors. Children first, then separator keys.
func childAt(data []byte, i int) storage.PageID {
	off := pageHeader + i*childPtr
	return storage.PageID(binary.LittleEndian.Uint32(data[off : off+4]))
}

func setChildAt(data []byte, i int, p storage.PageID) {
	off := pageHeader + i*childPtr
	binary.LittleEndian.PutUint32(data[off:off+4], uint32(p))
}

func (t *Tree) sepOff(i int) int {
	// Separator keys start after innerCap+1 child slots (fixed region so
	// inserts don't slide both arrays' bases).
	return pageHeader + (t.innerCap+1)*childPtr + i*sepKey
}

func (t *Tree) sepKeyAt(data []byte, i int) key {
	off := t.sepOff(i)
	return key{
		tag:  int32(binary.LittleEndian.Uint32(data[off : off+4])),
		node: xmltree.NodeID(binary.LittleEndian.Uint32(data[off+4 : off+8])),
	}
}

func (t *Tree) putSepKey(data []byte, i int, k key) {
	off := t.sepOff(i)
	binary.LittleEndian.PutUint32(data[off:off+4], uint32(k.tag))
	binary.LittleEndian.PutUint32(data[off+4:off+8], uint32(k.node))
}

// Insert adds a posting for (tag, p.Node). Duplicate keys are rejected.
func (t *Tree) Insert(tag int32, p Posting) error {
	k := key{tag, p.Node}
	promoted, newChild, err := t.insertAt(t.root, t.height, k, tag, p)
	if err != nil {
		return err
	}
	if newChild == storage.InvalidPage {
		t.numKeys++
		return nil
	}
	// Root split: build a new root.
	f, err := t.pool.Allocate()
	if err != nil {
		return err
	}
	initInternal(f.Data)
	setCount(f.Data, 2)
	setChildAt(f.Data, 0, t.root)
	setChildAt(f.Data, 1, newChild)
	t.putSepKey(f.Data, 0, promoted)
	t.root = f.ID()
	t.height++
	t.numKeys++
	return t.pool.Unpin(f.ID(), true)
}

// insertAt inserts into the subtree rooted at page at depth `level` (1 =
// leaf). On split it returns the promoted separator key and the new right
// sibling page.
func (t *Tree) insertAt(page storage.PageID, level int, k key, tag int32, p Posting) (key, storage.PageID, error) {
	f, err := t.pool.Get(page)
	if err != nil {
		return key{}, storage.InvalidPage, err
	}
	data := f.Data
	if level == 1 {
		defer t.pool.Unpin(page, true)
		n := pageCount(data)
		// Binary search insert position.
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			mk := leafKeyAt(data, mid)
			if mk.less(k) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < n && leafKeyAt(data, lo) == k {
			return key{}, storage.InvalidPage, fmt.Errorf("btree: duplicate key (tag %d, node %d)", k.tag, k.node)
		}
		if n < t.leafCap {
			off := pageHeader + lo*leafEntry
			copy(data[off+leafEntry:pageHeader+(n+1)*leafEntry], data[off:pageHeader+n*leafEntry])
			putLeafEntry(data, lo, tag, p)
			setCount(data, n+1)
			return key{}, storage.InvalidPage, nil
		}
		// Split leaf: gather entries, divide.
		type rec struct {
			tag int32
			p   Posting
		}
		recs := make([]rec, 0, n+1)
		for i := 0; i < n; i++ {
			tg, pp := leafPostingAt(data, i)
			recs = append(recs, rec{tg, pp})
		}
		recs = append(recs, rec{})
		copy(recs[lo+1:], recs[lo:])
		recs[lo] = rec{tag, p}
		mid := (n + 1) / 2

		rf, err := t.pool.Allocate()
		if err != nil {
			return key{}, storage.InvalidPage, err
		}
		initLeaf(rf.Data)
		setNext(rf.Data, pageNext(data))
		setNext(data, rf.ID())
		for i, r := range recs[:mid] {
			putLeafEntry(data, i, r.tag, r.p)
		}
		setCount(data, mid)
		for i, r := range recs[mid:] {
			putLeafEntry(rf.Data, i, r.tag, r.p)
		}
		setCount(rf.Data, len(recs)-mid)
		promoted := key{recs[mid].tag, recs[mid].p.Node}
		newPage := rf.ID()
		if err := t.pool.Unpin(newPage, true); err != nil {
			return key{}, storage.InvalidPage, err
		}
		return promoted, newPage, nil
	}

	// Internal node: find child.
	n := pageCount(data)
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t.sepKeyAt(data, mid).less(k) || t.sepKeyAt(data, mid) == k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	childIdx := lo
	child := childAt(data, childIdx)
	// Unpin before recursing to keep pin counts bounded by height? We
	// hold the parent pinned across the child insert so the frame cannot
	// be evicted while we may still modify it.
	promoted, newChild, err := t.insertAt(child, level-1, k, tag, p)
	if err != nil {
		t.pool.Unpin(page, false)
		return key{}, storage.InvalidPage, err
	}
	if newChild == storage.InvalidPage {
		return key{}, storage.InvalidPage, t.pool.Unpin(page, false)
	}
	defer t.pool.Unpin(page, true)
	if n < t.innerCap+1 {
		// Shift children after childIdx and keys after childIdx-1... the
		// new child goes at childIdx+1, the promoted key at childIdx.
		for i := n; i > childIdx+1; i-- {
			setChildAt(data, i, childAt(data, i-1))
		}
		setChildAt(data, childIdx+1, newChild)
		for i := n - 1; i > childIdx; i-- {
			t.putSepKey(data, i, t.sepKeyAt(data, i-1))
		}
		t.putSepKey(data, childIdx, promoted)
		setCount(data, n+1)
		return key{}, storage.InvalidPage, nil
	}
	// Split internal node.
	children := make([]storage.PageID, 0, n+1)
	keys := make([]key, 0, n)
	for i := 0; i < n; i++ {
		children = append(children, childAt(data, i))
	}
	for i := 0; i < n-1; i++ {
		keys = append(keys, t.sepKeyAt(data, i))
	}
	children = append(children, storage.InvalidPage)
	copy(children[childIdx+2:], children[childIdx+1:])
	children[childIdx+1] = newChild
	keys = append(keys, key{})
	copy(keys[childIdx+1:], keys[childIdx:])
	keys[childIdx] = promoted

	midIdx := len(keys) / 2
	upKey := keys[midIdx]
	rf, err := t.pool.Allocate()
	if err != nil {
		return key{}, storage.InvalidPage, err
	}
	initInternal(rf.Data)
	leftChildren := children[:midIdx+1]
	leftKeys := keys[:midIdx]
	rightChildren := children[midIdx+1:]
	rightKeys := keys[midIdx+1:]
	for i, c := range leftChildren {
		setChildAt(data, i, c)
	}
	for i, kk := range leftKeys {
		t.putSepKey(data, i, kk)
	}
	setCount(data, len(leftChildren))
	for i, c := range rightChildren {
		setChildAt(rf.Data, i, c)
	}
	for i, kk := range rightKeys {
		t.putSepKey(rf.Data, i, kk)
	}
	setCount(rf.Data, len(rightChildren))
	newPage := rf.ID()
	if err := t.pool.Unpin(newPage, true); err != nil {
		return key{}, storage.InvalidPage, err
	}
	return upKey, newPage, nil
}

// Scan calls visit for every posting with the given tag, in document
// order; returning false stops the scan.
func (t *Tree) Scan(tag int32, visit func(Posting) bool) error {
	k := key{tag, 0}
	page := t.root
	for level := t.height; level > 1; level-- {
		f, err := t.pool.Get(page)
		if err != nil {
			return err
		}
		n := pageCount(f.Data)
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if t.sepKeyAt(f.Data, mid).less(k) || t.sepKeyAt(f.Data, mid) == k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		next := childAt(f.Data, lo)
		if err := t.pool.Unpin(page, false); err != nil {
			return err
		}
		page = next
	}
	for page != storage.InvalidPage {
		f, err := t.pool.Get(page)
		if err != nil {
			return err
		}
		n := pageCount(f.Data)
		done := false
		for i := 0; i < n; i++ {
			tg, p := leafPostingAt(f.Data, i)
			if tg < tag {
				continue
			}
			if tg > tag {
				done = true
				break
			}
			if !visit(p) {
				done = true
				break
			}
		}
		next := pageNext(f.Data)
		if err := t.pool.Unpin(page, false); err != nil {
			return err
		}
		if done {
			return nil
		}
		page = next
	}
	return nil
}

// Postings returns every posting for tag as a slice.
func (t *Tree) Postings(tag int32) ([]Posting, error) {
	var out []Posting
	err := t.Scan(tag, func(p Posting) bool {
		out = append(out, p)
		return true
	})
	return out, err
}

// BuildFromDocument indexes every node of doc (keyed by the document's own
// tag codes) into a fresh tree over pool.
func BuildFromDocument(pool *storage.BufferPool, doc *xmltree.Document) (*Tree, error) {
	entries := make([]Entry, doc.Len())
	for n := range entries {
		entries[n] = Entry{int32(doc.TagIDOf(xmltree.NodeID(n))), docPosting(doc, xmltree.NodeID(n))}
	}
	return Load(pool, entries)
}

func docPosting(doc *xmltree.Document, n xmltree.NodeID) Posting {
	return Posting{Node: n, End: doc.End(n), Level: uint16(doc.Level(n))}
}
