// Package join implements structural joins on the ancestor-descendant
// relationship: the Stack-Tree-Desc (STD) algorithm of Al-Khalifa et al.
// (ICDE 2002) that the NoK query processor uses to combine NoK subtree
// matches (paper §3.1), and the secure ε-STD variant of paper §4.2, which
// additionally requires every node on the path from the ancestor to the
// descendant to be accessible (the Gabillon–Bruno semantics) while loading
// each document page at most once.
package join

import (
	"cmp"
	"slices"
	"sort"

	"dolxml/internal/xmltree"
)

// Item is a join input: a candidate node with its region encoding.
type Item struct {
	// Node is the candidate's document-order ID (region start).
	Node xmltree.NodeID
	// End is the last node of the candidate's subtree (region end).
	End xmltree.NodeID
	// Level is the candidate's depth.
	Level int
}

// Pair is one join output: anc is a proper ancestor of desc.
type Pair struct {
	Anc  xmltree.NodeID
	Desc xmltree.NodeID
}

// SortItems sorts candidates by document order, as the stack-based joins
// require.
func SortItems(items []Item) {
	slices.SortFunc(items, func(a, b Item) int { return cmp.Compare(a.Node, b.Node) })
}

// STD performs the Stack-Tree-Desc structural join: it returns every pair
// (a, d) with a ∈ ancs, d ∈ descs and a a proper ancestor of d. Both inputs
// must be sorted by Node (use SortItems). Output is ordered by descendant.
//
// The algorithm merges the two sorted lists, maintaining a stack of nested
// ancestors that enclose the current position; each descendant emits one
// pair per stacked ancestor.
func STD(ancs, descs []Item) []Pair {
	var out []Pair
	var j STDJoiner
	for _, d := range descs {
		for ; len(ancs) > 0 && ancs[0].Node <= d.Node; ancs = ancs[1:] {
			j.Push(ancs[0])
		}
		out = append(out, j.Probe(d)...)
	}
	return out
}

// SelfOrDescendantSTD is STD with the descendant-or-self axis: pairs where
// a == d are also emitted when both lists contain the node.
func SelfOrDescendantSTD(ancs, descs []Item) []Pair {
	out := STD(ancs, descs)
	// Add the a == d pairs by merging.
	ai := 0
	for _, d := range descs {
		for ai < len(ancs) && ancs[ai].Node < d.Node {
			ai++
		}
		if ai < len(ancs) && ancs[ai].Node == d.Node {
			out = append(out, Pair{Anc: d.Node, Desc: d.Node})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Desc != out[j].Desc {
			return out[i].Desc < out[j].Desc
		}
		return out[i].Anc < out[j].Anc
	})
	return out
}
