package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// ValueTree is a disk-resident B+-tree over (tag, value, node) keys: the
// "B+ trees on the subtree root's value" of paper §4.1. It lets the query
// processor fetch, in document order, the postings of nodes with a given
// tag *and* text value, so value-constrained NoK subtree roots start from
// an already-filtered candidate list.
//
// Keys are variable length, so Insert uses a decode–modify–reencode scheme:
// a node is read as a whole, mutated in memory, and written back; splits
// divide entries by half when the encoding outgrows the page. LoadValues
// builds a whole tree without it, writing each page once.
type ValueTree struct {
	pool    *storage.BufferPool
	root    storage.PageID
	height  int
	numKeys int
	// capacity is the byte budget for a page's payload.
	capacity int
}

// vkey orders (tag, value, node) lexicographically.
type vkey struct {
	tag   int32
	value string
	node  xmltree.NodeID
}

func (k vkey) less(o vkey) bool {
	if k.tag != o.tag {
		return k.tag < o.tag
	}
	if k.value != o.value {
		return k.value < o.value
	}
	return k.node < o.node
}

// vleaf and vinner are the decoded page forms.
type vleafEntry struct {
	key vkey
	p   Posting
}

type vnode struct {
	leaf     bool
	next     storage.PageID // leaf chain
	entries  []vleafEntry   // leaf payload
	children []storage.PageID
	keys     []vkey // len(children)-1 separators
}

// maxEmptySep is the widest separator of an empty value: its tag, its
// zero length and its node, the integers at their widest.
const maxEmptySep = 5 + 1 + 5

// minValueCapacity is the smallest page payload a value tree is built on:
// an inner page must hold two children and the separator between them,
// and a leaf one entry (a separator, its end and its level), each for an
// empty value.
const minValueCapacity = max(2*childPtr+maxEmptySep, maxEmptySep+5+3)

// NewValueTree creates an empty tree over pool.
func NewValueTree(pool *storage.BufferPool) (*ValueTree, error) {
	t, err := valueTreeOn(pool)
	if err != nil {
		return nil, err
	}
	f, err := pool.Allocate()
	if err != nil {
		return nil, err
	}
	encodeVNode(f.Data, &vnode{leaf: true, next: storage.InvalidPage})
	t.root = f.ID()
	t.height = 1
	return t, pool.Unpin(f.ID(), true)
}

// valueTreeOn returns a tree of no pages over pool, or an error if its
// pages are too small for one (minValueCapacity).
func valueTreeOn(pool *storage.BufferPool) (*ValueTree, error) {
	t := &ValueTree{pool: pool, capacity: pool.Pager().PageSize() - pageHeader}
	if t.capacity < minValueCapacity {
		return nil, fmt.Errorf("btree: page size %d too small for a value tree", pool.Pager().PageSize())
	}
	return t, nil
}

// Page encoding. Reuses the fixed header of the posting tree
// (kind, count, next) and serializes the payload with varints:
//
//	leaf entry:  tag uv, len(value) uv, value, node uv, end uv, level uv
//	inner:       count children (u32 each) then count-1 keys
//	             (tag uv, len uv, value, node uv)
func encodeVNode(data []byte, n *vnode) {
	for i := range data {
		data[i] = 0
	}
	buf := data[pageHeader:pageHeader]
	if n.leaf {
		initLeaf(data)
		setCount(data, len(n.entries))
		setNext(data, n.next)
		for _, e := range n.entries {
			buf = appendLeafEntry(buf, e.key, e.p)
		}
		return
	}
	initInternal(data)
	setCount(data, len(n.children))
	for _, c := range n.children {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	for _, k := range n.keys {
		buf = appendSep(buf, k)
	}
}

// appendSep appends a key as an inner page stores it.
func appendSep(buf []byte, k vkey) []byte {
	buf = binary.AppendUvarint(buf, uint64(uint32(k.tag)))
	buf = binary.AppendUvarint(buf, uint64(len(k.value)))
	buf = append(buf, k.value...)
	return binary.AppendUvarint(buf, uint64(uint32(k.node)))
}

// appendLeafEntry appends a key and the rest of its posting as a leaf
// stores them.
func appendLeafEntry(buf []byte, k vkey, p Posting) []byte {
	buf = appendSep(buf, k)
	buf = binary.AppendUvarint(buf, uint64(uint32(p.End)))
	return binary.AppendUvarint(buf, uint64(p.Level))
}

func uvSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func sepSize(k vkey) int {
	return uvSize(uint64(uint32(k.tag))) + uvSize(uint64(len(k.value))) + len(k.value) + uvSize(uint64(uint32(k.node)))
}

func leafEntrySize(k vkey, p Posting) int {
	return sepSize(k) + uvSize(uint64(uint32(p.End))) + uvSize(uint64(p.Level))
}

func decodeVNode(data []byte) (*vnode, error) {
	n := &vnode{leaf: data[0] == kindLeaf}
	count := int(binary.LittleEndian.Uint16(data[1:3]))
	buf := bytes.NewReader(data[pageHeader:])
	readUv := func() (uint64, error) { return binary.ReadUvarint(buf) }
	if n.leaf {
		n.next = storage.PageID(binary.LittleEndian.Uint32(data[3:7]))
		for i := 0; i < count; i++ {
			tag, err := readUv()
			if err != nil {
				return nil, fmt.Errorf("btree: corrupt value leaf: %w", err)
			}
			vlen, err := readUv()
			if err != nil {
				return nil, err
			}
			val := make([]byte, vlen)
			if _, err := buf.Read(val); err != nil {
				return nil, err
			}
			node, err := readUv()
			if err != nil {
				return nil, err
			}
			end, err := readUv()
			if err != nil {
				return nil, err
			}
			level, err := readUv()
			if err != nil {
				return nil, err
			}
			n.entries = append(n.entries, vleafEntry{
				key: vkey{tag: int32(tag), value: string(val), node: xmltree.NodeID(node)},
				p:   Posting{Node: xmltree.NodeID(node), End: xmltree.NodeID(end), Level: uint16(level)},
			})
		}
		return n, nil
	}
	for i := 0; i < count; i++ {
		var cb [4]byte
		if _, err := buf.Read(cb[:]); err != nil {
			return nil, err
		}
		n.children = append(n.children, storage.PageID(binary.LittleEndian.Uint32(cb[:])))
	}
	for i := 0; i < count-1; i++ {
		tag, err := readUv()
		if err != nil {
			return nil, fmt.Errorf("btree: corrupt value inner: %w", err)
		}
		vlen, err := readUv()
		if err != nil {
			return nil, err
		}
		val := make([]byte, vlen)
		if _, err := buf.Read(val); err != nil {
			return nil, err
		}
		node, err := readUv()
		if err != nil {
			return nil, err
		}
		n.keys = append(n.keys, vkey{tag: int32(tag), value: string(val), node: xmltree.NodeID(node)})
	}
	return n, nil
}

// encodedSize returns the byte size of the node's payload encoding.
func (t *ValueTree) encodedSize(n *vnode) int {
	size := 0
	if n.leaf {
		for _, e := range n.entries {
			size += leafEntrySize(e.key, e.p)
		}
		return size
	}
	size += childPtr * len(n.children)
	for _, k := range n.keys {
		size += sepSize(k)
	}
	return size
}

func (t *ValueTree) load(p storage.PageID) (*vnode, error) {
	f, err := t.pool.Get(p)
	if err != nil {
		return nil, err
	}
	defer t.pool.Unpin(p, false)
	return decodeVNode(f.Data)
}

func (t *ValueTree) store(p storage.PageID, n *vnode) error {
	f, err := t.pool.Get(p)
	if err != nil {
		return err
	}
	encodeVNode(f.Data, n)
	return t.pool.Unpin(p, true)
}

// Insert adds a posting for (tag, value, p.Node). The value may be long,
// but a single entry must fit in a page.
func (t *ValueTree) Insert(tag int32, value string, p Posting) error {
	k := vkey{tag, value, p.Node}
	if leafEntrySize(k, p) > t.capacity {
		return fmt.Errorf("btree: value of %d bytes exceeds page capacity", len(value))
	}
	promoted, newChild, err := t.insertAt(t.root, t.height, k, p)
	if err != nil {
		return err
	}
	if newChild == storage.InvalidPage {
		t.numKeys++
		return nil
	}
	f, err := t.pool.Allocate()
	if err != nil {
		return err
	}
	encodeVNode(f.Data, &vnode{
		leaf:     false,
		children: []storage.PageID{t.root, newChild},
		keys:     []vkey{promoted},
	})
	t.root = f.ID()
	t.height++
	t.numKeys++
	return t.pool.Unpin(f.ID(), true)
}

func (t *ValueTree) insertAt(page storage.PageID, level int, k vkey, p Posting) (vkey, storage.PageID, error) {
	n, err := t.load(page)
	if err != nil {
		return vkey{}, storage.InvalidPage, err
	}
	if level == 1 {
		// Find insert position.
		lo, hi := 0, len(n.entries)
		for lo < hi {
			mid := (lo + hi) / 2
			if n.entries[mid].key.less(k) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(n.entries) && n.entries[lo].key == k {
			return vkey{}, storage.InvalidPage, fmt.Errorf("btree: duplicate value key (tag %d, node %d)", k.tag, k.node)
		}
		n.entries = append(n.entries, vleafEntry{})
		copy(n.entries[lo+1:], n.entries[lo:])
		n.entries[lo] = vleafEntry{key: k, p: p}
		if t.encodedSize(n) <= t.capacity {
			return vkey{}, storage.InvalidPage, t.store(page, n)
		}
		// Split by entry count.
		mid := len(n.entries) / 2
		right := &vnode{leaf: true, next: n.next, entries: append([]vleafEntry{}, n.entries[mid:]...)}
		n.entries = n.entries[:mid]
		rf, err := t.pool.Allocate()
		if err != nil {
			return vkey{}, storage.InvalidPage, err
		}
		n.next = rf.ID()
		encodeVNode(rf.Data, right)
		if err := t.pool.Unpin(rf.ID(), true); err != nil {
			return vkey{}, storage.InvalidPage, err
		}
		if err := t.store(page, n); err != nil {
			return vkey{}, storage.InvalidPage, err
		}
		return right.entries[0].key, rf.ID(), nil
	}
	// Internal: route.
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid].less(k) || n.keys[mid] == k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	promoted, newChild, err := t.insertAt(n.children[lo], level-1, k, p)
	if err != nil {
		return vkey{}, storage.InvalidPage, err
	}
	if newChild == storage.InvalidPage {
		return vkey{}, storage.InvalidPage, nil
	}
	n.children = append(n.children, storage.InvalidPage)
	copy(n.children[lo+2:], n.children[lo+1:])
	n.children[lo+1] = newChild
	n.keys = append(n.keys, vkey{})
	copy(n.keys[lo+1:], n.keys[lo:])
	n.keys[lo] = promoted
	if t.encodedSize(n) <= t.capacity {
		return vkey{}, storage.InvalidPage, t.store(page, n)
	}
	// Split internal node.
	midIdx := len(n.keys) / 2
	upKey := n.keys[midIdx]
	right := &vnode{
		leaf:     false,
		children: append([]storage.PageID{}, n.children[midIdx+1:]...),
		keys:     append([]vkey{}, n.keys[midIdx+1:]...),
	}
	n.children = n.children[:midIdx+1]
	n.keys = n.keys[:midIdx]
	rf, err := t.pool.Allocate()
	if err != nil {
		return vkey{}, storage.InvalidPage, err
	}
	encodeVNode(rf.Data, right)
	if err := t.pool.Unpin(rf.ID(), true); err != nil {
		return vkey{}, storage.InvalidPage, err
	}
	if err := t.store(page, n); err != nil {
		return vkey{}, storage.InvalidPage, err
	}
	return upKey, rf.ID(), nil
}

// ScanValue calls visit for every posting whose node has the given tag and
// exact text value, in document order; returning false stops early.
func (t *ValueTree) ScanValue(tag int32, value string, visit func(Posting) bool) error {
	k := vkey{tag: tag, value: value, node: 0}
	page := t.root
	for level := t.height; level > 1; level-- {
		n, err := t.load(page)
		if err != nil {
			return err
		}
		lo, hi := 0, len(n.keys)
		for lo < hi {
			mid := (lo + hi) / 2
			if n.keys[mid].less(k) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		page = n.children[lo]
	}
	for page != storage.InvalidPage {
		n, err := t.load(page)
		if err != nil {
			return err
		}
		for _, e := range n.entries {
			if e.key.tag < tag || (e.key.tag == tag && e.key.value < value) {
				continue
			}
			if e.key.tag > tag || e.key.value > value {
				return nil
			}
			if !visit(e.p) {
				return nil
			}
		}
		page = n.next
	}
	return nil
}

// ValuePostings returns every posting with the tag and value as a slice.
func (t *ValueTree) ValuePostings(tag int32, value string) ([]Posting, error) {
	var out []Posting
	err := t.ScanValue(tag, value, func(p Posting) bool {
		out = append(out, p)
		return true
	})
	return out, err
}

// BuildValueIndex indexes every node of doc that carries a non-empty text
// value into a fresh ValueTree over pool.
func BuildValueIndex(pool *storage.BufferPool, doc *xmltree.Document) (*ValueTree, error) {
	var entries []ValueEntry
	for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
		if v := doc.Value(n); v != "" {
			entries = append(entries, ValueEntry{int32(doc.TagIDOf(n)), v, docPosting(doc, n)})
		}
	}
	return LoadValues(pool, entries)
}
