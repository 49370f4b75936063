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
// edited, and small enough to keep in memory: a served snapshot's.
type Runs struct {
	postings []Posting
	// start[t] is where tag t's run begins and start[t+1] where it ends.
	start []int32
}

// NewRuns groups by tag the entries of a document's nodes 0, 1, … in that
// order, tags in [0, numTags): a counting sort.
func NewRuns(entries []Entry, numTags int) (*Runs, error) {
	r := &Runs{postings: make([]Posting, len(entries)), start: make([]int32, numTags+1)}
	for i, e := range entries {
		if e.Tag < 0 || int(e.Tag) >= numTags || int(e.Node) != i {
			return nil, fmt.Errorf("btree: entry %d (tag %d, node %d) is out of place", i, e.Tag, e.Node)
		}
		r.start[e.Tag+1]++
	}
	for t := 0; t < numTags; t++ {
		r.start[t+1] += r.start[t]
	}
	next := slices.Clone(r.start)
	for _, e := range entries {
		r.postings[next[e.Tag]] = e.Posting
		next[e.Tag]++
	}
	return r, nil
}

// Postings returns tag's run: shared, not to be written.
func (r *Runs) Postings(tag int32) ([]Posting, error) {
	if tag < 0 || int(tag) >= len(r.start)-1 {
		return nil, nil
	}
	lo, hi := r.start[tag], r.start[tag+1]
	return r.postings[lo:hi:hi], nil
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
	return &ValueRuns{tags: tags, load: load, runs: make([]valueRun, len(tags.start)-1)}
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
