package nok

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"dolxml/internal/pathsum"
	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// Meta is the serializable description of a Store, written beside the page
// file so a file-backed store can be reopened. The page directory itself is
// reconstructed from the block headers, which remain authoritative.
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
// nothing left over.
func unpackValueRefs(blob []byte) ([]valueRef, error) {
	refs := make([]valueRef, 0, len(blob)/4)
	bad := false
	uvarint := func() uint64 {
		u, n := binary.Uvarint(blob)
		if n <= 0 || (n > 1 && blob[n-1] == 0) {
			bad = true
			return 0
		}
		blob = blob[n:]
		return u
	}
	varint := func() int64 {
		u := uvarint()
		if u&1 != 0 {
			return ^int64(u >> 1)
		}
		return int64(u >> 1)
	}
	var node, page int64
	for len(blob) > 0 {
		node += varint()
		page += varint()
		off, length := uvarint(), uvarint()
		if bad || node < 0 || node > math.MaxInt32 || page < 0 || page > math.MaxUint32 || off > math.MaxUint16 || length > math.MaxUint16 {
			return nil, fmt.Errorf("nok: value ref %d is malformed", len(refs))
		}
		refs = append(refs, valueRef{xmltree.NodeID(node), storage.PageID(page), uint16(off), uint16(length)})
	}
	return refs, nil
}

// CheckValueRefs holds the value refs against the rest of the metadata, the
// store's page size and its page file's page count, whichever format they
// came in: nodes strictly ascending and inside the document, every value
// non-empty and inside its page, on a page the file has, no value on a
// structure page. A ref that fails would have a value read slice past its
// page, fault past the file's end or serve structure bytes as text.
func (m Meta) CheckValueRefs(pageSize, numPages int) error {
	prev := xmltree.NodeID(-1)
	for i, r := range m.ValueRefs {
		// Values of consecutive nodes share pages: look a page up when it changes.
		newPage := i == 0 || r.Page != m.ValueRefs[i-1].Page
		switch {
		case r.Node <= prev:
			return fmt.Errorf("nok: value ref %d: node %d does not follow node %d", i, r.Node, prev)
		case int(r.Node) >= m.NumNodes:
			return fmt.Errorf("nok: value ref %d: node %d of %d", i, r.Node, m.NumNodes)
		case r.Len == 0 || int(r.Off)+int(r.Len) > pageSize:
			return fmt.Errorf("nok: value ref %d: bytes [%d,+%d) of a %d-byte page", i, r.Off, r.Len, pageSize)
		case newPage && int64(r.Page) >= int64(numPages):
			return fmt.Errorf("nok: value ref %d: page %d is past the end of a %d-page file", i, r.Page, numPages)
		case newPage && slices.Contains(m.StructurePages, r.Page):
			return fmt.Errorf("nok: value ref %d: page %d is a structure page", i, r.Page)
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
// before an error is to be thrown away.
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
	if s.paths, err = s.scanPathSummary(extent); err != nil {
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
