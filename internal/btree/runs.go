package btree

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"dolxml/internal/xmltree"
)

// Runs is a tag index as flat runs grouped by path class: every posting
// once, grouped by its node's class, each class's in document order — one
// counting sort of a document's nodes, held in one slice instead of pages.
// A path class names one tag, so a tag's postings are the union of its
// classes' runs, merged in document order when asked for (Arion et al.'s
// path partitioning). It suits an index that is replaced, never edited, and
// small enough to keep in memory: a served snapshot's.
type Runs struct {
	// Class c's run is postings[start[c]:start[c+1]]; tag t's classes,
	// ascending, are tagClass[tagStart[t]:tagStart[t+1]].
	postings           []Posting
	start              []int32
	tagStart, tagClass []int32
	// numbering is the class numbering the runs are grouped by.
	numbering uint64
}

// Classes is the grouping key of NewClassRuns: Of[i] is node i's path
// class, in [0, len(Tag)), under the class numbering Numbering, and Tag[c]
// is class c's tag (a path class names one tag).
type Classes struct {
	Of        []int32
	Tag       []int32
	Numbering uint64
}

// NewClassRuns groups by path class the postings of a document's nodes 0,
// 1, … in that order, class tags in [0, numTags): a counting sort in place.
// The runs keep postings, reordered, and cl.Of is overwritten with scratch;
// the caller reads neither afterwards. On an error neither is touched.
func NewClassRuns(postings []Posting, numTags int, cl Classes) (*Runs, error) {
	if len(cl.Of) != len(postings) {
		return nil, fmt.Errorf("btree: %d classes for %d postings", len(cl.Of), len(postings))
	}
	count := len(cl.Tag)
	r := &Runs{postings: postings, start: make([]int32, count+1),
		tagStart: make([]int32, numTags+1), numbering: cl.Numbering}
	for i, p := range postings {
		c := cl.Of[i]
		switch {
		case int(p.Node) != i:
			return nil, fmt.Errorf("btree: posting %d (node %d) is out of place", i, p.Node)
		case c < 0 || int(c) >= count:
			return nil, fmt.Errorf("btree: node %d has class %d of %d", i, c, count)
		}
		r.start[c+1]++
	}
	// A class without nodes is listed under no tag.
	for c, t := range cl.Tag {
		if r.start[c+1] == 0 {
			continue
		}
		if t < 0 || int(t) >= numTags {
			return nil, fmt.Errorf("btree: class %d has tag %d of %d", c, t, numTags)
		}
		r.tagStart[t+1]++
	}
	for _, offsets := range [][]int32{r.start, r.tagStart} {
		for k := 1; k < len(offsets); k++ {
			offsets[k] += offsets[k-1]
		}
	}
	r.tagClass = make([]int32, r.tagStart[numTags])
	next := slices.Clone(r.tagStart)
	for c, t := range cl.Tag {
		if r.start[c+1] > r.start[c] {
			r.tagClass[next[t]] = int32(c)
			next[t]++
		}
	}
	// Each node's place in its class's run, in document order; then the
	// cycles of that permutation, each posting moved once into its place
	// (a place taken is marked -1).
	next = slices.Clone(r.start)
	for i, c := range cl.Of {
		cl.Of[i] = next[c]
		next[c]++
	}
	for i, to := range cl.Of {
		if to < 0 || int(to) == i {
			continue
		}
		p := postings[i]
		for int(to) != i {
			p, postings[to] = postings[to], p
			to, cl.Of[to] = cl.Of[to], -1
		}
		postings[i] = p
	}
	return r, nil
}

// ClassPostings returns the postings of a path class, in document order:
// shared, not to be written.
func (r *Runs) ClassPostings(class int32) []Posting {
	if class < 0 || int(class) >= len(r.start)-1 {
		return nil
	}
	lo, hi := r.start[class], r.start[class+1]
	return r.postings[lo:hi:hi]
}

// Postings returns tag's postings in document order: its one class's run,
// shared, or its classes' runs merged into a fresh slice; not to be
// written either way.
func (r *Runs) Postings(tag int32) ([]Posting, error) {
	if tag < 0 || int(tag) >= len(r.tagStart)-1 {
		return nil, nil
	}
	classes := r.tagClass[r.tagStart[tag]:r.tagStart[tag+1]]
	if len(classes) == 1 {
		return r.ClassPostings(classes[0]), nil
	}
	runs, n := make([][]Posting, len(classes)), 0
	for k, c := range classes {
		runs[k] = r.ClassPostings(c)
		n += len(runs[k])
	}
	out := make([]Posting, 0, n)
	Merge(runs, func(run []Posting, _ int) { out = append(out, run...) })
	return out, nil
}

// Merge hands fn the postings of runs — each run in document order — in
// document order, in stretches of one run (shared, not to be written) with
// the run's index: a k-way merge through a min-heap of the runs' next
// postings, which hands on at once as much of the first run as comes
// before every other.
func Merge(runs [][]Posting, fn func(run []Posting, k int)) {
	if len(runs) == 1 {
		fn(runs[0], 0)
		return
	}
	var buf [8]mergeHead
	h := mergeHeap(buf[:0])
	for k, run := range runs {
		if len(run) > 0 {
			h = append(h, mergeHead{run[0].Node, int32(k), 0})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h) > 0 {
		top := h[0]
		run, n := runs[top.k], len(runs[top.k])
		if len(h) > 1 {
			next := h[1].node
			if len(h) > 2 {
				next = min(next, h[2].node)
			}
			n = int(top.at) + 1
			for n < len(run) && run[n].Node < next {
				n++
			}
		}
		fn(run[top.at:n:n], int(top.k))
		if n == len(run) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			h[0].node, h[0].at = run[n].Node, int32(n)
		}
		h.down(0)
	}
}

// mergeHead is run k's next posting in a merge: its node and its place.
type mergeHead struct {
	node  xmltree.NodeID
	k, at int32
}

// mergeHeap is a min-heap of runs by their next node.
type mergeHeap []mergeHead

func (h mergeHeap) down(i int) {
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1].node < h[c].node {
			c++
		}
		if h[i].node <= h[c].node {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}

// ClassNumbering reports the class numbering and class count the runs are
// grouped by.
func (r *Runs) ClassNumbering() (numbering uint64, classes int) {
	return r.numbering, len(r.start) - 1
}

// Bytes is the memory the runs hold: the postings and the offsets.
func (r *Runs) Bytes() int64 {
	return int64(cap(r.postings))*int64(unsafe.Sizeof(Posting{})) +
		int64(cap(r.start)+cap(r.tagStart)+cap(r.tagClass))*int64(unsafe.Sizeof(int32(0)))
}

// ValueRuns is a value index over Runs: per tag the postings of the nodes
// that carry a text value, sorted by (value, node). A tag's run is built the
// first time the tag is looked up, so a tag no query tests costs nothing.
type ValueRuns struct {
	tags *Runs
	load func(nodes []xmltree.NodeID) ([]string, error)
	runs []valueRun
	// bytes is what the runs built so far hold.
	bytes atomic.Int64
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
	return &ValueRuns{tags: tags, load: load, runs: make([]valueRun, len(tags.tagStart)-1)}
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
	n := int64(len(entries)) * int64(unsafe.Sizeof("")+unsafe.Sizeof(Posting{}))
	for i, e := range entries {
		r.values[i], r.postings[i] = e.Value, e.Posting
		n += int64(len(e.Value))
	}
	v.bytes.Add(n)
	return nil
}

// Bytes is the memory the value runs built so far hold: their postings and
// values. It may be read while runs are being built.
func (v *ValueRuns) Bytes() int64 { return v.bytes.Load() }
