package pathsum

import "fmt"

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

// MetaBlock mirrors BlockPaths.
type MetaBlock struct {
	Start int32    `json:"s"`
	Bits  []uint64 `json:"w,omitempty"`
}

// ToMeta serializes the summary.
func (s *Summary) ToMeta() *Meta {
	m := &Meta{
		Tags:    make([]int32, len(s.nodes)),
		Parents: make([]int32, len(s.nodes)),
		Modes:   make([]uint8, len(s.nodes)),
		Codes:   make([]uint32, len(s.nodes)),
		Blocks:  make([]MetaBlock, len(s.blocks)),
	}
	for i, n := range s.nodes {
		m.Tags[i] = n.Tag
		m.Parents[i] = n.Parent
		m.Modes[i] = uint8(n.Mode)
		m.Codes[i] = n.Code
	}
	for i, b := range s.blocks {
		m.Blocks[i] = MetaBlock{Start: b.Start, Bits: append([]uint64(nil), b.Bits...)}
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
	s.blocks = make([]BlockPaths, len(m.Blocks))
	for i, b := range m.Blocks {
		if b.Start < -1 || int(b.Start) >= n {
			return nil, fmt.Errorf("pathsum: block %d starts in class %d of %d", i, b.Start, n)
		}
		s.blocks[i] = BlockPaths{Start: b.Start, Bits: append([]uint64(nil), b.Bits...)}
	}
	return s, nil
}
