package pathsum

import (
	"fmt"
	"math"

	"dolxml/internal/wire"
)

// Meta is the serializable form of a Summary, embedded in the store's
// reopen metadata. Field names are terse because the block list scales
// with the store.
type Meta struct {
	Tags    []int32     `json:"t"`
	Parents []int32     `json:"p"`
	Modes   []uint8     `json:"m"`
	Codes   []uint32    `json:"c"`
	Blocks  []MetaBlock `json:"b"`
}

// MetaBlock is one structure block: the class it starts in. Words are the
// bitset of the classes occurring in the block that images written before
// the summary dropped its per-block class sets carry. Nothing reads them:
// FromMeta ignores them and ToMeta writes none. They are kept only so that
// an image decodes to a Meta that encodes back to the same bytes.
type MetaBlock struct {
	Start int32    `json:"s"`
	Words []uint64 `json:"w,omitempty"`
}

// ToMeta serializes the summary.
func (s *Summary) ToMeta() *Meta {
	m := &Meta{
		Tags:    make([]int32, len(s.nodes)),
		Parents: make([]int32, len(s.nodes)),
		Modes:   make([]uint8, len(s.nodes)),
		Codes:   make([]uint32, len(s.nodes)),
		Blocks:  make([]MetaBlock, len(s.starts)),
	}
	for i, n := range s.nodes {
		m.Tags[i] = n.Tag
		m.Parents[i] = n.Parent
		m.Modes[i] = uint8(n.Mode)
		m.Codes[i] = n.Code
	}
	for i, start := range s.starts {
		m.Blocks[i].Start = start
	}
	return m
}

// AppendBinary appends the summary's image in sidecar format 3: the tag,
// parent, mode and code columns, then the blocks (a uvarint count, then per
// block its start and its words: a count, 0 since the words went, and the
// words), all uvarints, a parent or a block start stored plus one, so the
// root context's -1 is 0. Columns that change with access updates (modes,
// codes) come after those that change only with the document's shape, so a
// journalled image shares the longest prefix with the one before it.
func (m *Meta) AppendBinary(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Tags)))
	for _, t := range m.Tags {
		b = wire.AppendUvarint(b, uint64(uint32(t)))
	}
	b = wire.AppendUvarint(b, uint64(len(m.Parents)))
	for _, p := range m.Parents {
		b = wire.AppendUvarint(b, uint64(uint32(p+1)))
	}
	b = wire.AppendUvarint(b, uint64(len(m.Blocks)))
	for _, blk := range m.Blocks {
		b = wire.AppendUvarint(b, uint64(uint32(blk.Start+1)))
		b = wire.AppendUvarint(b, uint64(len(blk.Words)))
		for _, w := range blk.Words {
			b = wire.AppendUvarint(b, w)
		}
	}
	b = wire.AppendUvarint(b, uint64(len(m.Modes)))
	for _, md := range m.Modes {
		b = wire.AppendUvarint(b, uint64(md))
	}
	b = wire.AppendUvarint(b, uint64(len(m.Codes)))
	for _, c := range m.Codes {
		b = wire.AppendUvarint(b, uint64(c))
	}
	return b
}

// ReadMeta decodes what AppendBinary wrote. It checks the encoding only
// (every value within its column's type); FromMeta checks the summary.
func ReadMeta(r *wire.Reader) *Meta {
	m := &Meta{}
	m.Tags = make([]int32, r.Len())
	for i := range m.Tags {
		m.Tags[i] = int32(r.Uint(math.MaxInt32))
	}
	m.Parents = make([]int32, r.Len())
	for i := range m.Parents {
		m.Parents[i] = int32(r.Uint(math.MaxUint32)) - 1
	}
	m.Blocks = make([]MetaBlock, r.Len())
	for i := range m.Blocks {
		m.Blocks[i].Start = int32(r.Uint(math.MaxUint32)) - 1
		if n := r.Len(); n > 0 {
			m.Blocks[i].Words = make([]uint64, n)
			for j := range m.Blocks[i].Words {
				m.Blocks[i].Words[j] = r.Uvarint()
			}
		}
	}
	m.Modes = make([]uint8, r.Len())
	for i := range m.Modes {
		m.Modes[i] = uint8(r.Uint(math.MaxUint8))
	}
	m.Codes = make([]uint32, r.Len())
	for i := range m.Codes {
		m.Codes[i] = uint32(r.Uint(math.MaxUint32))
	}
	return m
}

// FromMeta reconstructs and validates a summary: parents must precede
// children, the child map must stay canonical (one class per parent+tag),
// and depths are recomputed from the parent chain.
func FromMeta(m *Meta) (*Summary, error) {
	n := len(m.Tags)
	if len(m.Parents) != n || len(m.Modes) != n || len(m.Codes) != n {
		return nil, fmt.Errorf("pathsum: meta column lengths disagree (%d/%d/%d/%d)",
			len(m.Tags), len(m.Parents), len(m.Modes), len(m.Codes))
	}
	s := &Summary{
		nodes:     make([]Node, n),
		child:     make(map[childKey]int32, n),
		numbering: numberings.Add(1),
	}
	for i := 0; i < n; i++ {
		p := m.Parents[i]
		if p < -1 || p >= int32(i) {
			return nil, fmt.Errorf("pathsum: class %d has parent %d", i, p)
		}
		if m.Tags[i] < 0 {
			return nil, fmt.Errorf("pathsum: class %d has tag %d", i, m.Tags[i])
		}
		if m.Modes[i] > uint8(CodeMixed) {
			return nil, fmt.Errorf("pathsum: class %d has mode %d", i, m.Modes[i])
		}
		k := childKey{p, m.Tags[i]}
		if _, dup := s.child[k]; dup {
			return nil, fmt.Errorf("pathsum: duplicate class (parent %d, tag %d)", p, m.Tags[i])
		}
		depth := int32(0)
		if p >= 0 {
			depth = s.nodes[p].Depth + 1
		}
		s.nodes[i] = Node{Tag: m.Tags[i], Parent: p, Depth: depth, Mode: CodeMode(m.Modes[i]), Code: m.Codes[i]}
		s.child[k] = int32(i)
	}
	s.starts = make([]int32, len(m.Blocks))
	for i, b := range m.Blocks {
		if b.Start < -1 || int(b.Start) >= n {
			return nil, fmt.Errorf("pathsum: block %d starts in class %d of %d", i, b.Start, n)
		}
		s.starts[i] = b.Start
	}
	return s, nil
}
