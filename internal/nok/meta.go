package nok

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

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
	return wire.AppendBytes(b, packValueRefs(m.ValueRefs))
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
// nothing else.
// It checks only the encoding: CheckValueRefs and Open check what the image
// says.
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
		refs, err := unpackValueRefs(blob)
		if err != nil {
			return err
		}
		m.ValueRefs = refs
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

// ValueRefs is the value index as Meta carries it: the ValueStore's own
// slice, shared and read-only. Its image is one packed blob: per ref a
// signed varint node delta, a signed varint page delta, uvarint Off, uvarint
// Len, the deltas taken from the ref before (from zero for the first).
// Decoding checks only the encoding; Meta.CheckValueRefs checks what the
// refs say.
type ValueRefs []valueRef

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

// unpackValueRefs accepts exactly what packValueRefs can produce: every
// varint complete and in its shortest form, every field within its type,
// nothing left over. The refs are most of a sidecar, so the loop reads its
// varints itself, a one-byte one without a call.
func unpackValueRefs(blob []byte) ([]valueRef, error) {
	refs := make([]valueRef, 0, len(blob)/4)
	var node, page int64
	for len(blob) > 0 {
		var f [4]uint64 // zigzag node delta, zigzag page delta, Off, Len
		for i := range f {
			if len(blob) > 0 && blob[0] < 0x80 {
				f[i], blob = uint64(blob[0]), blob[1:]
				continue
			}
			v, n := binary.Uvarint(blob)
			if n <= 0 || blob[n-1] == 0 {
				return nil, fmt.Errorf("nok: value ref %d is malformed", len(refs))
			}
			f[i], blob = v, blob[n:]
		}
		node += int64(f[0]>>1) ^ -int64(f[0]&1)
		page += int64(f[1]>>1) ^ -int64(f[1]&1)
		if node < 0 || node > math.MaxInt32 || page < 0 || page > math.MaxUint32 || f[2] > math.MaxUint16 || f[3] > math.MaxUint16 {
			return nil, fmt.Errorf("nok: value ref %d is malformed", len(refs))
		}
		refs = append(refs, valueRef{xmltree.NodeID(node), storage.PageID(page), uint16(f[2]), uint16(f[3])})
	}
	return refs, nil
}

// ErrValueRef is what a CheckValueRefs error wraps.
var ErrValueRef = errors.New("nok: value ref")

// CheckValueRefs holds the value refs against the rest of the metadata, the
// store's page size and its page file's page count: nodes strictly
// ascending and inside the document, every value non-empty and inside its
// page, on a page the file has, no value on a structure page. A ref that
// fails would have a value read slice past its page, fault past the file's
// end or serve structure bytes as text. Its errors wrap ErrValueRef.
func (m Meta) CheckValueRefs(pageSize, numPages int) error {
	prev := xmltree.NodeID(-1)
	for i, r := range m.ValueRefs {
		// Values of consecutive nodes share pages: look a page up when it changes.
		newPage := i == 0 || r.Page != m.ValueRefs[i-1].Page
		switch {
		case r.Node <= prev:
			return fmt.Errorf("%w %d: node %d does not follow node %d", ErrValueRef, i, r.Node, prev)
		case int(r.Node) >= m.NumNodes:
			return fmt.Errorf("%w %d: node %d of %d", ErrValueRef, i, r.Node, m.NumNodes)
		case r.Len == 0 || int(r.Off)+int(r.Len) > pageSize:
			return fmt.Errorf("%w %d: bytes [%d,+%d) of a %d-byte page", ErrValueRef, i, r.Off, r.Len, pageSize)
		case newPage && int64(r.Page) >= int64(numPages):
			return fmt.Errorf("%w %d: page %d is past the end of a %d-page file", ErrValueRef, i, r.Page, numPages)
		case newPage && slices.Contains(m.StructurePages, r.Page):
			return fmt.Errorf("%w %d: page %d is a structure page", ErrValueRef, i, r.Page)
		}
		prev = r.Node
	}
	return nil
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
	return OpenScan(pool, m, nil)
}

// OpenScan is Open handing the caller what its scan of the block bodies
// sees besides: every node's extent and its class in the path summary the
// scan builds, as ForEachClassExtent reports them (extent may be nil), the
// first after the block headers have confirmed m.NumNodes. What was reported
// before an error is to be thrown away. The value refs are held against the
// pool's page file (CheckValueRefs) before anything is read.
func OpenScan(pool *storage.BufferPool, m Meta, extent ExtentFunc) (*Store, error) {
	if m.NumNodes <= 0 {
		return nil, fmt.Errorf("nok: metadata has %d nodes", m.NumNodes)
	}
	if err := m.CheckValueRefs(pool.Pager().PageSize(), pool.Pager().NumPages()); err != nil {
		return nil, err
	}
	s := &Store{
		pool:     pool,
		tags:     append([]string(nil), m.Tags...),
		tagIndex: make(map[string]int32, len(m.Tags)),
		numNodes: m.NumNodes,
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
			return nil, fmt.Errorf("nok: reopen block %d: %w", pid, err)
		}
		pi := readHeader(pid, f.Data)
		if err := pool.Unpin(pid, false); err != nil {
			return nil, err
		}
		pi.FirstNode = next
		next += xmltree.NodeID(pi.Count)
		s.dir = append(s.dir, pi)
	}
	if len(m.ValueRefs) > 0 {
		s.values = &ValueStore{pool: pool, refs: m.ValueRefs}
	}
	// Sanity: blocks must cover exactly the advertised node count.
	if int(next) != s.numNodes {
		return nil, fmt.Errorf("nok: blocks cover %d nodes, metadata says %d", next, s.numNodes)
	}
	// One pass decodes the block bodies: it holds the directory just read
	// against them (a header that lies about its block is caught here, not
	// by a query) and rebuilds the path summary — like the directory,
	// storage stays authoritative — against which any persisted copy is
	// verified before the store is trusted.
	var err error
	if s.paths, err = s.scanPathSummary(len(m.PathSummary.Tags), extent); err != nil {
		return nil, err
	}
	if err := m.PathSummary.VerifyAgainst(s.paths); err != nil {
		return nil, fmt.Errorf("nok: path summary failed verification: %w", err)
	}
	return s, nil
}
