// Package join implements structural joins on the ancestor-descendant
// relationship: the Stack-Tree-Desc (STD) algorithm of Al-Khalifa et al.
// (ICDE 2002) that the NoK query processor uses to combine NoK subtree
// matches (paper §3.1), and the secure ε-STD variant of paper §4.2, which
// additionally requires every node on the path from the ancestor to the
// descendant to be accessible (the Gabillon–Bruno semantics) while loading
// each document page at most once.
package join

import "dolxml/internal/xmltree"

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
