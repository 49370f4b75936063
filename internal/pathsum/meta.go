package pathsum

import (
	"fmt"
	"math"

	"dolxml/internal/wire"
)

// Meta is the serializable form of a Summary, embedded in the store's
// reopen metadata.
type Meta struct {
	Tags    []int32
	Parents []int32
	Modes   []uint8
	Codes   []uint32
	Blocks  []MetaBlock
}

// MetaBlock is one structure block: the class it starts in.
type MetaBlock struct {
	Start int32
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

// AppendBinary appends the summary's image in sidecar format 3: the tag and
// parent columns, the blocks (a count, then per block its start and a 0,
// where blocks once counted their class words, kept so the bytes stay as
// they were), then the mode and code columns, all uvarints, a parent or a
// block start stored plus one, so the root context's -1 is 0. Columns that
// change with access updates (modes, codes) come after those that change
// only with the document's shape, so a journalled image shares the longest
// prefix with the one before it.
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
		b = append(wire.AppendUvarint(b, uint64(uint32(blk.Start+1))), 0)
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

// ReadMeta decodes what AppendBinary wrote, accepting nothing else: a
// block's 0 must be 0. It checks the encoding only (every value within its
// column's type); VerifyAgainst checks the summary.
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
		r.Uint(0)
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

// VerifyAgainst checks the persisted summary m against one rebuilt fresh
// from the blocks: what FromMeta(m) and then VerifyAgainst(rebuilt) check,
// without building a Summary from m. Depths are not compared: m derives
// them from its parents, as the rebuilt summary does, so the mapping of
// m's classes onto rebuilt ones preserves them.
func (m *Meta) VerifyAgainst(rebuilt *Summary) error {
	n := len(m.Tags)
	if len(m.Parents) != n || len(m.Modes) != n || len(m.Codes) != n {
		return fmt.Errorf("pathsum: meta column lengths disagree (%d/%d/%d/%d)",
			len(m.Tags), len(m.Parents), len(m.Modes), len(m.Codes))
	}
	if len(m.Blocks) != len(rebuilt.starts) {
		return fmt.Errorf("pathsum: %d blocks, storage has %d", len(m.Blocks), len(rebuilt.starts))
	}
	// mapTo[i] is class i's class in rebuilt, -1 for a class storage no
	// longer has. Two classes of one (parent, tag) map to one rebuilt
	// class (owner catches them) or are both extinct (extinct does).
	mapTo := make([]int32, n)
	owner := make([]int32, len(rebuilt.nodes))
	for i := range owner {
		owner[i] = -1
	}
	var extinct map[childKey]bool
	mapped := 0
	for i := 0; i < n; i++ {
		p, tag := m.Parents[i], m.Tags[i]
		switch {
		case p < -1 || p >= int32(i):
			return fmt.Errorf("pathsum: class %d has parent %d", i, p)
		case tag < 0:
			return fmt.Errorf("pathsum: class %d has tag %d", i, tag)
		case m.Modes[i] > uint8(CodeMixed):
			return fmt.Errorf("pathsum: class %d has mode %d", i, m.Modes[i])
		}
		rid, ok := int32(-1), false
		if p == -1 || mapTo[p] >= 0 {
			parent := int32(-1)
			if p >= 0 {
				parent = mapTo[p]
			}
			rid, ok = rebuilt.ChildOf(parent, tag)
		}
		if !ok {
			k := childKey{p, tag}
			if extinct == nil {
				extinct = make(map[childKey]bool)
			}
			if extinct[k] {
				return fmt.Errorf("pathsum: duplicate class (parent %d, tag %d)", p, tag)
			}
			extinct[k] = true
			mapTo[i] = -1
			continue
		}
		if owner[rid] >= 0 {
			return fmt.Errorf("pathsum: duplicate class (parent %d, tag %d)", p, tag)
		}
		owner[rid], mapTo[i] = int32(i), rid
		mapped++
		rn := rebuilt.nodes[rid]
		if CodeMode(m.Modes[i]) == CodeUniform && (rn.Mode != CodeUniform || rn.Code != m.Codes[i]) {
			return fmt.Errorf("pathsum: class %d claims uniform code %d, storage disagrees", i, m.Codes[i])
		}
	}
	if mapped != len(rebuilt.nodes) {
		return fmt.Errorf("pathsum: summary is missing %d live path classes", len(rebuilt.nodes)-mapped)
	}
	for b, blk := range m.Blocks {
		start, want := blk.Start, int32(-1)
		if start < -1 || int(start) >= n {
			return fmt.Errorf("pathsum: block %d starts in class %d of %d", b, start, n)
		}
		if start >= 0 {
			if mapTo[start] < 0 {
				return fmt.Errorf("pathsum: block %d starts in extinct class %d", b, start)
			}
			want = mapTo[start]
		}
		if want != rebuilt.starts[b] {
			return fmt.Errorf("pathsum: block %d start class mismatch", b)
		}
	}
	return nil
}
