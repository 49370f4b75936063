package btree

import (
	"fmt"
	"slices"
	"sync"

	"dolxml/internal/xmltree"
)

// Runs is a tag index as flat runs: every posting, grouped by tag, each
// tag's in document order — what a leaf walk of a loaded Tree yields, held
// in one slice instead of pages. It suits an index that is replaced, never
// edited, and small enough to keep in memory: a served snapshot's. It may
// hold the same postings grouped a second way, by path class.
type Runs struct {
	tags grouping
	// The grouping by path class, built from classOf (node ID → class) the
	// first time a class is asked for, against the class numbering
	// numbering of numClasses classes; classOf is nil without one.
	classOnce  sync.Once
	classes    grouping
	classOf    []int32
	numClasses int
	numbering  uint64
}

// grouping is every posting grouped by a key, each key's in document order:
// key k's run is postings[start[k]:start[k+1]].
type grouping struct {
	postings []Posting
	start    []int32
}

// run returns key k's run: shared, not to be written.
func (g grouping) run(k int32) []Posting {
	if k < 0 || int(k) >= len(g.start)-1 {
		return nil
	}
	lo, hi := g.start[k], g.start[k+1]
	return g.postings[lo:hi:hi]
}

// NewRuns groups by tag the entries of a document's nodes 0, 1, … in that
// order, tags in [0, numTags): a counting sort.
func NewRuns(entries []Entry, numTags int) (*Runs, error) {
	g := grouping{postings: make([]Posting, len(entries)), start: make([]int32, numTags+1)}
	for i, e := range entries {
		if e.Tag < 0 || int(e.Tag) >= numTags || int(e.Node) != i {
			return nil, fmt.Errorf("btree: entry %d (tag %d, node %d) is out of place", i, e.Tag, e.Node)
		}
		g.start[e.Tag+1]++
	}
	for t := 0; t < numTags; t++ {
		g.start[t+1] += g.start[t]
	}
	next := slices.Clone(g.start)
	for _, e := range entries {
		g.postings[next[e.Tag]] = e.Posting
		next[e.Tag]++
	}
	return &Runs{tags: g}, nil
}

// Classes is the second key of NewClassRuns: Of[i] is node i's path class,
// in [0, Count), under the class numbering Numbering. A class's nodes carry
// one tag.
type Classes struct {
	Of        []int32
	Count     int
	Numbering uint64
}

// NewClassRuns is NewRuns with the postings to be grouped a second time, by
// path class, when a class is first asked for: the same counting sort, over
// the tag runs — a class has one tag, so each class's postings come out of
// one tag run in its document order. It keeps cl.Of.
func NewClassRuns(entries []Entry, numTags int, cl Classes) (*Runs, error) {
	if len(cl.Of) != len(entries) {
		return nil, fmt.Errorf("btree: %d classes for %d entries", len(cl.Of), len(entries))
	}
	for i, c := range cl.Of {
		if c < 0 || int(c) >= cl.Count {
			return nil, fmt.Errorf("btree: node %d has class %d of %d", i, c, cl.Count)
		}
	}
	r, err := NewRuns(entries, numTags)
	if err != nil {
		return nil, err
	}
	r.classOf, r.numClasses, r.numbering = cl.Of, cl.Count, cl.Numbering
	return r, nil
}

// Postings returns tag's run: shared, not to be written.
func (r *Runs) Postings(tag int32) ([]Posting, error) {
	return r.tags.run(tag), nil
}

// ClassPostings returns the postings of a path class, in document order:
// shared, not to be written. Nil without a class grouping.
func (r *Runs) ClassPostings(class int32) []Posting {
	if r.classOf == nil {
		return nil
	}
	r.classOnce.Do(r.groupClasses)
	return r.classes.run(class)
}

// ClassOf returns node n's path class, -1 without a class grouping.
func (r *Runs) ClassOf(n xmltree.NodeID) int32 {
	if r.classOf == nil {
		return -1
	}
	return r.classOf[n]
}

func (r *Runs) groupClasses() {
	g := grouping{postings: make([]Posting, len(r.tags.postings)), start: make([]int32, r.numClasses+1)}
	for _, p := range r.tags.postings {
		g.start[r.classOf[p.Node]+1]++
	}
	for c := 0; c < r.numClasses; c++ {
		g.start[c+1] += g.start[c]
	}
	next := slices.Clone(g.start)
	for _, p := range r.tags.postings {
		c := r.classOf[p.Node]
		g.postings[next[c]] = p
		next[c]++
	}
	r.classes = g
}

// ClassNumbering reports the class numbering and class count the class
// grouping is built against; ok is false without one.
func (r *Runs) ClassNumbering() (numbering uint64, classes int, ok bool) {
	return r.numbering, r.numClasses, r.classOf != nil
}

// ValueRuns is a value index over Runs: per tag the postings of the nodes
// that carry a text value, sorted by (value, node). A tag's run is built the
// first time the tag is looked up, so a tag no query tests costs nothing.
type ValueRuns struct {
	tags *Runs
	load func(nodes []xmltree.NodeID) ([]string, error)
	runs []valueRun
}

// valueRun is one tag's values, ascending, and their postings beside them.
// A failed build is kept like a finished one: every lookup of the tag
// reports it.
type valueRun struct {
	once     sync.Once
	err      error
	values   []string
	postings []Posting
}

// NewValueRuns returns the value index over tags. load returns the text
// values of the given nodes, which ascend, "" for a node that has none.
func NewValueRuns(tags *Runs, load func(nodes []xmltree.NodeID) ([]string, error)) *ValueRuns {
	return &ValueRuns{tags: tags, load: load, runs: make([]valueRun, len(tags.tags.start)-1)}
}

// ValuePostings returns the postings with the tag and value, in document
// order: shared, not to be written.
func (v *ValueRuns) ValuePostings(tag int32, value string) ([]Posting, error) {
	if tag < 0 || int(tag) >= len(v.runs) {
		return nil, nil
	}
	r := &v.runs[tag]
	r.once.Do(func() { r.err = v.build(tag, r) })
	if r.err != nil {
		return nil, r.err
	}
	lo, _ := slices.BinarySearch(r.values, value)
	hi := lo
	for hi < len(r.values) && r.values[hi] == value {
		hi++
	}
	return r.postings[lo:hi:hi], nil
}

func (v *ValueRuns) build(tag int32, r *valueRun) error {
	ps, _ := v.tags.Postings(tag)
	nodes := make([]xmltree.NodeID, len(ps))
	for i, p := range ps {
		nodes[i] = p.Node
	}
	values, err := v.load(nodes)
	if err != nil {
		return err
	}
	entries := make([]ValueEntry, 0, len(ps))
	for i, val := range values {
		if val != "" {
			entries = append(entries, ValueEntry{tag, val, ps[i]})
		}
	}
	if len(entries) == 0 {
		return nil
	}
	entries = sortValueEntries(entries)
	r.values, r.postings = make([]string, len(entries)), make([]Posting, len(entries))
	for i, e := range entries {
		r.values[i], r.postings[i] = e.Value, e.Posting
	}
	return nil
}
