package nok

import (
	"encoding/base64"
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
// Sidecar formats 1 and 2 hold Meta as a JSON object; format 3 as the base64
// of its binary image (AppendBinary). UnmarshalJSON takes either.
type Meta struct {
	NumNodes       int              `json:"num_nodes"`
	Tags           []string         `json:"tags"`
	StructurePages []storage.PageID `json:"structure_pages"`
	// PathSummary is the persisted path summary. Open rebuilds the
	// summary from the blocks regardless and verifies this copy against
	// the rebuild, so a stale or corrupted summary is caught rather than
	// trusted.
	PathSummary *pathsum.Meta `json:"path_summary,omitempty"`
	ValueRefs   ValueRefs     `json:"value_refs,omitempty"`
}

// AppendBinary appends m's image: AppendHead, then AppendTail.
func (m *Meta) AppendBinary(b []byte) []byte { return m.AppendTail(m.AppendHead(b)) }

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
// 0/1 flag and the path summary's image when there is one, then the
// structure pages. Every commit writes it anew.
func (m *Meta) AppendTail(b []byte) []byte {
	if m.PathSummary == nil {
		b = append(b, 0)
	} else {
		b = m.PathSummary.AppendBinary(append(b, 1))
	}
	b = wire.AppendUvarint(b, uint64(len(m.StructurePages)))
	for _, p := range m.StructurePages {
		b = wire.AppendUvarint(b, uint64(p))
	}
	return b
}

// UnmarshalBinary decodes what AppendBinary wrote, accepting nothing else.
// Like the JSON forms it checks only the encoding: CheckValueRefs and Open
// check what the image says.
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
	if r.Uint(1) == 1 {
		m.PathSummary = pathsum.ReadMeta(r)
	}
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

// UnmarshalJSON reads Meta from any sidecar format: an object (formats 1
// and 2) or a string holding the base64 of the binary image (format 3).
func (m *Meta) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var img []byte
		if err := json.Unmarshal(b, &img); err != nil {
			return fmt.Errorf("nok: metadata image: %w", err)
		}
		return m.UnmarshalBinary(img)
	}
	type object Meta
	return json.Unmarshal(b, (*object)(m))
}

// ValueRefs is the value index as Meta carries it: the ValueStore's own
// slice, shared and read-only. Its JSON form is one packed blob (sidecar
// format 2; base64 in a string): per ref a signed varint node delta, a
// signed varint page delta, uvarint Off, uvarint Len, the deltas taken from
// the ref before (from zero for the first). Format 1's array of
// {"n","p","o","l"} objects is still read. Decoding checks only the
// encoding; Meta.CheckValueRefs checks what the refs say.
type ValueRefs []valueRef

// MarshalJSON packs the refs.
func (v ValueRefs) MarshalJSON() ([]byte, error) {
	return json.Marshal(packValueRefs(v))
}

// UnmarshalJSON reads either sidecar format. The blob's string is taken as
// written, without JSON escapes: base64 needs none.
func (v *ValueRefs) UnmarshalJSON(b []byte) error {
	switch {
	case string(b) == "null":
		return nil
	case len(b) > 0 && b[0] == '[':
		return json.Unmarshal(b, (*[]valueRef)(v))
	case len(b) < 2 || b[0] != '"':
		return fmt.Errorf("nok: value refs are neither a packed string nor an array")
	}
	blob := make([]byte, base64.StdEncoding.DecodedLen(len(b)-2))
	n, err := base64.StdEncoding.Decode(blob, b[1:len(b)-1])
	if err != nil {
		return fmt.Errorf("nok: value refs: %w", err)
	}
	*v, err = unpackValueRefs(blob[:n])
	return err
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
// store's page size and its page file's page count, whichever format they
// came in: nodes strictly ascending and inside the document, every value
// non-empty and inside its page, on a page the file has, no value on a
// structure page. A ref that fails would have a value read slice past its
// page, fault past the file's end or serve structure bytes as text.
// Its errors wrap ErrValueRef.
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
		NumNodes: s.numNodes,
		Tags:     append([]string(nil), s.tags...),
	}
	if s.paths != nil {
		m.PathSummary = s.paths.ToMeta()
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
	classes := 0
	if m.PathSummary != nil {
		classes = len(m.PathSummary.Tags)
	}
	if s.paths, err = s.scanPathSummary(classes, extent); err != nil {
		return nil, err
	}
	if m.PathSummary != nil {
		persisted, err := pathsum.FromMeta(m.PathSummary)
		if err != nil {
			return nil, fmt.Errorf("nok: reopen path summary: %w", err)
		}
		if err := persisted.VerifyAgainst(s.paths); err != nil {
			return nil, fmt.Errorf("nok: path summary failed verification: %w", err)
		}
	}
	return s, nil
}
