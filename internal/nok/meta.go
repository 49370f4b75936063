package nok

import (
	"encoding/json"
	"fmt"
	"io"

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
	PathSummary *pathsum.Meta  `json:"path_summary,omitempty"`
	ValueRefs   []MetaValueRef `json:"value_refs,omitempty"`
}

// MetaValueRef mirrors the value index for serialization.
type MetaValueRef struct {
	Node xmltree.NodeID `json:"n"`
	Page storage.PageID `json:"p"`
	Off  uint16         `json:"o"`
	Len  uint16         `json:"l"`
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
		for _, r := range s.values.refs {
			m.ValueRefs = append(m.ValueRefs, MetaValueRef{Node: r.Node, Page: r.Page, Off: r.Off, Len: r.Len})
		}
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

// WriteMeta serializes the store's metadata as JSON.
func (s *Store) WriteMeta(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s.Meta())
}

// Open reconstructs a Store from metadata and a buffer pool over the
// original pages, re-reading each block header into the in-memory page
// directory.
func Open(pool *storage.BufferPool, m Meta) (*Store, error) {
	if m.NumNodes <= 0 {
		return nil, fmt.Errorf("nok: metadata has %d nodes", m.NumNodes)
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
		vs := &ValueStore{pool: pool}
		for _, r := range m.ValueRefs {
			vs.refs = append(vs.refs, valueRef{Node: r.Node, Page: r.Page, Off: r.Off, Len: r.Len})
		}
		s.values = vs
	}
	// Sanity: blocks must cover exactly the advertised node count.
	if int(next) != s.numNodes {
		return nil, fmt.Errorf("nok: blocks cover %d nodes, metadata says %d", next, s.numNodes)
	}
	// The path summary is rebuilt from the blocks — like the directory,
	// storage stays authoritative — and any persisted copy is verified
	// against the rebuild before the store is trusted. The rebuild is the
	// one pass that decodes the block bodies (and checks each against its
	// header's count).
	if err := s.RebuildPathSummary(); err != nil {
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

// ReadMeta parses metadata previously produced by WriteMeta.
func ReadMeta(r io.Reader) (Meta, error) {
	var m Meta
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return Meta{}, fmt.Errorf("nok: read metadata: %w", err)
	}
	return m, nil
}
