package pathsum

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// FromMeta reconstructs and validates a summary: parents must precede
// children, the child map must stay canonical (one class per parent+tag),
// and depths are recomputed from the parent chain. It is the reference
// Meta.VerifyAgainst is held to: FromMeta then Summary.VerifyAgainst.
func FromMeta(m *Meta) (*Summary, error) {
	n := len(m.Tags)
	if len(m.Parents) != n || len(m.Modes) != n || len(m.Codes) != n {
		return nil, fmt.Errorf("pathsum: meta column lengths disagree (%d/%d/%d/%d)",
			len(m.Tags), len(m.Parents), len(m.Modes), len(m.Codes))
	}
	s := &Summary{
		nodes:     make([]Node, n),
		child:     newChildIndex(n),
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
		if _, dup := s.child.get(s.nodes[:i], p, m.Tags[i]); dup {
			return nil, fmt.Errorf("pathsum: duplicate class (parent %d, tag %d)", p, m.Tags[i])
		}
		depth := int32(0)
		if p >= 0 {
			depth = s.nodes[p].Depth + 1
		}
		s.nodes[i] = Node{Tag: m.Tags[i], Parent: p, Depth: depth, Mode: CodeMode(m.Modes[i]), Code: m.Codes[i]}
		s.child.put(s.nodes[:i+1], int32(i))
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

// randomSummary builds the summary of a random document of up to n
// elements over tags tags, cut into blocks at random, access codes drawn
// from two so that some classes stay uniform.
func randomSummary(t *testing.T, rng *rand.Rand, n, tags int) *Summary {
	t.Helper()
	b := NewBuilder(0)
	type entry struct {
		tag    int32
		closes int
	}
	var entries []entry
	var gen func(depth int)
	gen = func(depth int) {
		entries = append(entries, entry{int32(rng.Intn(tags)), 0})
		for len(entries) < n && depth < 6 && rng.Intn(3) > 0 {
			gen(depth + 1)
		}
		entries[len(entries)-1].closes++
	}
	gen(0)
	for i, e := range entries {
		b.Entry(e.tag, e.closes, uint32(rng.Intn(2)))
		if i == len(entries)-1 || rng.Intn(4) == 0 {
			b.EndBlock()
		}
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Meta.VerifyAgainst accepts exactly the persisted summaries FromMeta
// accepts and the rebuilt summary then verifies: random summaries, their
// images edited column by column — parents, tags, modes, codes, block
// starts, a column cut short, extinct classes and duplicates appended —
// and held against their own rebuild or another document's.
func TestMetaVerifyMatchesFromMeta(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var accepted, refused int
	for round := 0; round < 3000; round++ {
		rebuilt := randomSummary(t, rng, 2+rng.Intn(60), 1+rng.Intn(5))
		persisted := rebuilt
		if rng.Intn(8) == 0 {
			persisted = randomSummary(t, rng, 2+rng.Intn(60), 1+rng.Intn(5))
		}
		m := persisted.ToMeta()
		n, cut := len(m.Tags), false
		for edits := rng.Intn(3); edits > 0; edits-- {
			i := rng.Intn(n)
			switch rng.Intn(9) {
			case 0:
				m.Parents[i] = int32(rng.Intn(n+2)) - 2
			case 1:
				m.Tags[i] = int32(rng.Intn(7)) - 1
			case 2:
				m.Modes[i] = uint8(rng.Intn(4))
			case 3:
				m.Codes[i] = uint32(rng.Intn(3))
			case 4:
				m.Blocks[rng.Intn(len(m.Blocks))].Start = int32(rng.Intn(n+3)) - 2
			case 5:
				cut = true
			case 6, 7:
				// An extinct class under a class that exists, or a
				// duplicate of one.
				m.Tags = append(m.Tags, int32(5+rng.Intn(2)))
				m.Parents = append(m.Parents, int32(rng.Intn(n+1))-1)
				m.Modes = append(m.Modes, uint8(CodeMixed))
				m.Codes = append(m.Codes, 0)
			case 8:
				// A duplicate of a live class.
				m.Tags = append(m.Tags, m.Tags[i])
				m.Parents = append(m.Parents, m.Parents[i])
				m.Modes = append(m.Modes, uint8(CodeMixed))
				m.Codes = append(m.Codes, 0)
			}
		}
		if cut {
			m.Codes = m.Codes[:len(m.Codes)-1]
		}
		want := func() error {
			s, err := FromMeta(m)
			if err != nil {
				return err
			}
			return s.VerifyAgainst(rebuilt)
		}()
		got := m.VerifyAgainst(rebuilt)
		if (got == nil) != (want == nil) {
			t.Fatalf("round %d: Meta.VerifyAgainst says %v, FromMeta and VerifyAgainst say %v\nmeta %+v", round, got, want, m)
		}
		if got == nil {
			accepted++
		} else {
			refused++
		}
	}
	if accepted < 600 || refused < 600 {
		t.Fatalf("%d images accepted and %d refused: the edits do not test both sides", accepted, refused)
	}
	t.Logf("%d accepted, %d refused", accepted, refused)
}

// ChildrenOf lists, for every class and the root context, exactly the
// classes whose parent it is, ascending, and ChildOf finds each of them.
func TestChildrenOfListsEachParentsClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for round := 0; round < 300; round++ {
		s := randomSummary(t, rng, 2+rng.Intn(80), 1+rng.Intn(6))
		for p := int32(-1); p < int32(s.NumNodes()); p++ {
			var want []int32
			for id := range s.nodes {
				if s.nodes[id].Parent == p {
					want = append(want, int32(id))
				}
			}
			if got := s.ChildrenOf(p); !slices.Equal(got, want) {
				t.Fatalf("round %d: ChildrenOf(%d) = %v, want %v", round, p, got, want)
			}
			for _, c := range want {
				if got, ok := s.ChildOf(p, s.nodes[c].Tag); !ok || got != c {
					t.Fatalf("round %d: ChildOf(%d, %d) = %d, %v; want %d", round, p, s.nodes[c].Tag, got, ok, c)
				}
			}
		}
	}
}
