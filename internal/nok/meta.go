package nok

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"dolxml/internal/pathsum"
	"dolxml/internal/storage"
	"dolxml/internal/wire"
	"dolxml/internal/xmltree"
)

// Meta is the serializable description of a Store, written beside the page
// file so a file-backed store can be reopened. The page directory itself is
// reconstructed from the block headers, which remain authoritative.
//
// The sidecar holds Meta as the base64 of its binary image (AppendHead,
// then AppendTail), which UnmarshalJSON reads.
type Meta struct {
	NumNodes       int
	Tags           []string
	StructurePages []storage.PageID
	// PathSummary is the persisted path summary, never nil: every store
	// has one, and UnmarshalBinary rejects an image without it. Open
	// rebuilds the summary from the blocks regardless and verifies this
	// copy against the rebuild, so a stale or corrupted summary is caught
	// rather than trusted.
	PathSummary *pathsum.Meta
	ValueRefs   ValueRefs
}

// AppendHead appends the part of the image that changes only with the
// document's shape: the node count, the tag table (each tag length-prefixed)
// and the packed value refs (length-prefixed; see ValueRefs).
func (m *Meta) AppendHead(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.NumNodes))
	b = wire.AppendUvarint(b, uint64(len(m.Tags)))
	for _, t := range m.Tags {
		b = wire.AppendString(b, t)
	}
	return wire.AppendBytes(b, m.ValueRefs.image())
}

// AppendTail appends the part of the image an access update can change: a
// 1, the path summary's image, then the structure pages. Every commit writes
// it anew.
func (m *Meta) AppendTail(b []byte) []byte {
	b = m.PathSummary.AppendBinary(append(b, 1))
	b = wire.AppendUvarint(b, uint64(len(m.StructurePages)))
	for _, p := range m.StructurePages {
		b = wire.AppendUvarint(b, uint64(p))
	}
	return b
}

// UnmarshalBinary decodes what AppendHead then AppendTail wrote, accepting
// nothing else. It checks only the encoding, and the value refs' not even
// that: Open checks the refs (checkValueRefs), and what the image says.
func (m *Meta) UnmarshalBinary(img []byte) error {
	r := wire.NewReader(img)
	*m = Meta{NumNodes: r.Int()}
	if n := r.Len(); n > 0 {
		m.Tags = make([]string, n)
		for i := range m.Tags {
			m.Tags[i] = r.String()
		}
	}
	if blob := r.Bytes(); len(blob) > 0 {
		m.ValueRefs = ValueRefs{&refImage{packed: bytes.Clone(blob)}}
	}
	if r.Uvarint() != 1 && r.Err() == nil {
		return fmt.Errorf("nok: metadata image has no path summary")
	}
	m.PathSummary = pathsum.ReadMeta(r)
	if n := r.Len(); n > 0 {
		m.StructurePages = make([]storage.PageID, n)
		for i := range m.StructurePages {
			m.StructurePages[i] = storage.PageID(r.Uint(math.MaxUint32))
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("nok: metadata image: %w", err)
	}
	return nil
}

// UnmarshalJSON reads a JSON string holding the base64 of the binary image,
// as the sidecar's "nok" field has it.
func (m *Meta) UnmarshalJSON(b []byte) error {
	var img []byte
	if err := json.Unmarshal(b, &img); err != nil {
		return fmt.Errorf("nok: metadata image: %w", err)
	}
	return m.UnmarshalBinary(img)
}

// ValueRefs is the value index as Meta and the ValueStore carry it, shared
// and read-only. Its image is one packed blob: per ref a signed varint node
// delta, a signed varint page delta, uvarint Off, uvarint Len, the deltas
// taken from the ref before (from zero for the first). Refs read from an
// image keep its bytes: Open checks them where they lie (checkValueRefs),
// and they are unpacked once, by the first All, so a store none of whose
// queries reads a value never unpacks them.
type ValueRefs struct{ im *refImage }

// refImage is the one copy of a ValueRefs and of its clones.
type refImage struct {
	// packed is the image read, nil for refs built in memory.
	packed []byte
	// n is the number of refs; set by Open's check for an image read.
	n    int
	once sync.Once
	list []valueRef
	// unpacked is set once list holds the refs.
	unpacked atomic.Bool
}

// refsOf returns list as ValueRefs, which keep it.
func refsOf(list []valueRef) ValueRefs {
	im := &refImage{n: len(list), list: list}
	im.unpacked.Store(true)
	return ValueRefs{im}
}

// All returns the refs sorted by node, unpacking an image at the first
// call; the slice is shared and read-only. A store's refs are an image Open
// has checked; one that does not unpack yields none.
func (v ValueRefs) All() []valueRef {
	im := v.im
	if im == nil {
		return nil
	}
	im.once.Do(func() {
		if !im.unpacked.Load() {
			im.list, _ = unpackValueRefs(im.packed, im.n)
			im.unpacked.Store(true)
		}
	})
	return im.list
}

// image returns the packed image: the bytes read, or the refs packed.
func (v ValueRefs) image() []byte {
	if v.im == nil {
		return nil
	}
	if v.im.packed != nil {
		return v.im.packed
	}
	return packValueRefs(v.im.list)
}

// bytes is the memory the refs hold: the image read, plus 12 bytes a ref
// once they are unpacked.
func (v ValueRefs) bytes() int64 {
	if v.im == nil {
		return 0
	}
	n := int64(len(v.im.packed))
	if v.im.unpacked.Load() {
		n += int64(v.im.n) * int64(unsafe.Sizeof(valueRef{}))
	}
	return n
}

func packValueRefs(refs []valueRef) []byte {
	out := make([]byte, 0, 5*len(refs))
	var prev valueRef
	for _, r := range refs {
		out = binary.AppendVarint(out, int64(r.Node)-int64(prev.Node))
		out = binary.AppendVarint(out, int64(r.Page)-int64(prev.Page))
		out = binary.AppendUvarint(out, uint64(r.Off))
		out = binary.AppendUvarint(out, uint64(r.Len))
		prev = r
	}
	return out
}

// ErrValueRef is what a checkValueRefs error wraps.
var ErrValueRef = errors.New("nok: value ref")

// checkValueRefs holds the value refs against the rest of the metadata, the
// store's page size and its page file's page count: every ref encoded as
// packValueRefs encodes it, nodes strictly ascending and inside the
// document, every value non-empty and inside its page, on a page the file
// has, no value on a structure page. A ref that fails would have a value
// read slice past its page, fault past the file's end or serve structure
// bytes as text. Its errors wrap ErrValueRef. It reads the refs' image in
// one pass that stores nothing, and returns the refs a store opened from m
// serves: that image, unpacked at its first read; none when it is empty.
func (m Meta) checkValueRefs(pageSize, numPages int) (ValueRefs, error) {
	packed := m.ValueRefs.image()
	lim := refLimits{numNodes: m.NumNodes, pageSize: pageSize, numPages: numPages, structure: m.StructurePages}
	_, n, err := scanRefs(packed, &lim, 0)
	if err != nil || n == 0 {
		return ValueRefs{}, err
	}
	return ValueRefs{&refImage{packed: packed, n: n}}, nil
}

// unpackValueRefs unpacks an image of about n refs.
func unpackValueRefs(blob []byte, n int) ([]valueRef, error) {
	refs, _, err := scanRefs(blob, nil, max(n, 1))
	return refs, err
}

// refLimits is what checkValueRefs holds refs against.
type refLimits struct {
	numNodes, pageSize, numPages int
	structure                    []storage.PageID
}

// valuePage reports whether page p may hold values: the file has it, and
// it is no structure page.
func (lim *refLimits) valuePage(p storage.PageID) bool {
	return int64(p) < int64(lim.numPages) && !slices.Contains(lim.structure, p)
}

// refuse says why ref i, r, after prev, breaks the limits.
func (lim *refLimits) refuse(i int, r, prev valueRef) error {
	switch {
	case r.Node <= prev.Node:
		return fmt.Errorf("%w %d: node %d does not follow node %d", ErrValueRef, i, r.Node, prev.Node)
	case int(r.Node) >= lim.numNodes:
		return fmt.Errorf("%w %d: node %d of %d", ErrValueRef, i, r.Node, lim.numNodes)
	case r.Len == 0 || int(r.Off)+int(r.Len) > lim.pageSize:
		return fmt.Errorf("%w %d: bytes [%d,+%d) of a %d-byte page", ErrValueRef, i, r.Off, r.Len, lim.pageSize)
	case int64(r.Page) >= int64(lim.numPages):
		return fmt.Errorf("%w %d: page %d is past the end of a %d-page file", ErrValueRef, i, r.Page, lim.numPages)
	}
	return fmt.Errorf("%w %d: page %d is a structure page", ErrValueRef, i, r.Page)
}

// scanRefs reads a packed image, accepting exactly what packValueRefs can
// produce: every varint complete and in its shortest form, every field
// within its type, nothing left over. It holds each ref against lim when
// lim is non-nil, and returns the refs when capacity, the room to make for
// them, is positive; in any case it returns their number. Its errors wrap
// ErrValueRef. The refs are most of a sidecar, so one loop reads them, a
// ref whose varints are all one or two bytes long without a call.
func scanRefs(blob []byte, lim *refLimits, capacity int) ([]valueRef, int, error) {
	var refs []valueRef
	if capacity > 0 {
		refs = make([]valueRef, 0, capacity)
	}
	var node, page int64
	prev := valueRef{Node: -1}
	i := 0
	for p := 0; p < len(blob); i++ {
		var f [4]uint64 // zigzag node delta, zigzag page delta, Off, Len
		q := p
		f[0], q = shortVarint(blob, q)
		f[1], q = shortVarint(blob, q)
		f[2], q = shortVarint(blob, q)
		f[3], q = shortVarint(blob, q)
		if q < 0 {
			// A varint of three bytes or more, or a malformed one.
			for k := range f {
				v, n := binary.Uvarint(blob[p:])
				if n <= 0 || n > 1 && blob[p+n-1] == 0 {
					return nil, 0, fmt.Errorf("%w %d is malformed", ErrValueRef, i)
				}
				f[k], p = v, p+n
			}
		} else {
			p = q
		}
		node += int64(f[0]>>1) ^ -int64(f[0]&1)
		page += int64(f[1]>>1) ^ -int64(f[1]&1)
		if node < 0 || node > math.MaxInt32 || page < 0 || page > math.MaxUint32 || f[2] > math.MaxUint16 || f[3] > math.MaxUint16 {
			return nil, 0, fmt.Errorf("%w %d is malformed", ErrValueRef, i)
		}
		r := valueRef{xmltree.NodeID(node), storage.PageID(page), uint16(f[2]), uint16(f[3])}
		// Values of consecutive nodes share pages: a page is looked up when
		// it changes.
		if lim != nil && (r.Node <= prev.Node || int(r.Node) >= lim.numNodes || r.Len == 0 ||
			int(r.Off)+int(r.Len) > lim.pageSize || (i == 0 || r.Page != prev.Page) && !lim.valuePage(r.Page)) {
			return nil, 0, lim.refuse(i, r, prev)
		}
		prev = r
		if capacity > 0 {
			refs = append(refs, r)
		}
	}
	return refs, i, nil
}

// shortVarint reads the varint at b[p:] when it is one or two bytes long,
// in its shortest form, and returns it with the offset past it; the offset
// is -1 for any other, and when p is -1. It takes no call, so that a
// ref's four varints are read inline.
func shortVarint(b []byte, p int) (uint64, int) {
	switch {
	case uint(p) >= uint(len(b)):
	case b[p] < 0x80:
		return uint64(b[p]), p + 1
	case p+1 < len(b) && b[p+1]-1 < 0x7f:
		return uint64(b[p]&0x7f) | uint64(b[p+1])<<7, p + 2
	}
	return 0, -1
}

// Meta captures the store's reopen metadata.
func (s *Store) Meta() Meta {
	m := Meta{
		NumNodes:    s.numNodes,
		Tags:        append([]string(nil), s.tags...),
		PathSummary: s.paths.ToMeta(),
	}
	for _, pi := range s.dir {
		m.StructurePages = append(m.StructurePages, pi.Page)
	}
	if s.values != nil {
		m.ValueRefs = s.values.refs
	}
	return m
}

// StructurePages returns the page IDs of the structure blocks in directory
// order — the Meta().StructurePages slice without rebuilding the (much
// larger) value-ref list. Commit paths re-encode this list on every seal,
// since shadow-paged rewrites change page IDs even at constant counts.
func (s *Store) StructurePages() []storage.PageID {
	out := make([]storage.PageID, len(s.dir))
	for i, pi := range s.dir {
		out[i] = pi.Page
	}
	return out
}

// Open reconstructs a Store from metadata and a buffer pool over the
// original pages, re-reading each block header into the in-memory page
// directory.
func Open(pool *storage.BufferPool, m Meta) (*Store, error) {
	s, _, err := open(pool, m, false)
	return s, err
}

// OpenScan is Open handing the caller what its scan of the block bodies
// sees besides: every node's extent and its class in the path summary the
// scan builds, as ClassExtents gives them.
func OpenScan(pool *storage.BufferPool, m Meta) (*Store, *Extents, error) {
	return open(pool, m, true)
}

// open is Open returning, when extents is set, what OpenScan returns. The
// value refs are held against the pool's page file (checkValueRefs) before
// anything is read, and the extents are allocated only once the block
// headers have confirmed m.NumNodes.
func open(pool *storage.BufferPool, m Meta, extents bool) (*Store, *Extents, error) {
	if m.NumNodes <= 0 {
		return nil, nil, fmt.Errorf("nok: metadata has %d nodes", m.NumNodes)
	}
	refs, err := m.checkValueRefs(pool.Pager().PageSize(), pool.Pager().NumPages())
	if err != nil {
		return nil, nil, err
	}
	s := &Store{
		pool:     pool,
		tags:     append([]string(nil), m.Tags...),
		tagIndex: make(map[string]int32, len(m.Tags)),
		numNodes: m.NumNodes,
		dir:      make([]PageInfo, 0, len(m.StructurePages)),
		dec:      newDecodeCache(DefaultDecodeCacheBudget),
		recodes:  new(recodeCounters),
	}
	for i, t := range s.tags {
		s.tagIndex[t] = int32(i)
	}
	// Node IDs are assigned cumulatively from directory order: after
	// region rewrites the FirstNode stored inside later block headers may
	// be stale, so directory order + counts are authoritative.
	next := xmltree.NodeID(0)
	for _, pid := range m.StructurePages {
		f, err := pool.Get(pid)
		if err != nil {
			return nil, nil, fmt.Errorf("nok: reopen block %d: %w", pid, err)
		}
		pi := readHeader(pid, f.Data)
		if err := pool.Unpin(pid, false); err != nil {
			return nil, nil, err
		}
		pi.FirstNode = next
		next += xmltree.NodeID(pi.Count)
		s.dir = append(s.dir, pi)
	}
	if refs.im != nil {
		s.values = &ValueStore{pool: pool, refs: refs}
	}
	// Sanity: blocks must cover exactly the advertised node count.
	if int(next) != s.numNodes {
		return nil, nil, fmt.Errorf("nok: blocks cover %d nodes, metadata says %d", next, s.numNodes)
	}
	var x *Extents
	if extents {
		x = newExtents(s.numNodes)
	}
	// One pass decodes the block bodies: it holds the directory just read
	// against them (a header that lies about its block is caught here, not
	// by a query) and rebuilds the path summary — like the directory,
	// storage stays authoritative — against which any persisted copy is
	// verified before the store is trusted.
	if s.paths, err = s.scanPathSummary(len(m.PathSummary.Tags), x); err != nil {
		return nil, nil, err
	}
	if err := m.PathSummary.VerifyAgainst(s.paths); err != nil {
		return nil, nil, fmt.Errorf("nok: path summary failed verification: %w", err)
	}
	return s, x, nil
}
