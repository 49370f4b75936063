package query

import (
	"slices"

	"dolxml/internal/xmltree"
)

// MatchDocument evaluates a pattern tree directly against an in-memory
// document, without access control or physical storage — used for rule
// target selection before a store is sealed, and as a reference
// implementation. It returns the distinct bindings of the returning node
// in document order.
func MatchDocument(doc *xmltree.Document, t *PatternTree) []xmltree.NodeID {
	return matchDocument(doc, t, nil)
}

// matchDocument is MatchDocument with every binding also passing bindable
// (nil admits any node): the bindings semantics' reference, under which a
// bound node must be accessible and a descendant step crosses any node.
//
// It is linear in the document per pattern node: memo holds by (pattern
// node, data node) whether the pattern node's subtree embeds at the data
// node (exists) and whether it embeds at a proper descendant of it (below),
// 0 while unknown, then 1 for no and 2 for yes.
func matchDocument(doc *xmltree.Document, t *PatternTree, bindable func(xmltree.NodeID) bool) []xmltree.NodeID {
	n := doc.Len()
	memo := make([]uint8, 2*t.Len()*n)
	var exists, below func(p *PatternNode, v xmltree.NodeID) bool
	exists = func(p *PatternNode, v xmltree.NodeID) bool {
		k := p.id*n + int(v)
		if memo[k] == 0 {
			ok := (p.Tag == "*" || doc.Tag(v) == p.Tag) && (bindable == nil || bindable(v)) && (p.Value == "" || doc.Value(v) == p.Value)
			for _, c := range p.Children {
				if !ok {
					break
				}
				if c.Axis == AxisChild {
					ok = false
					for w := doc.FirstChild(v); w != xmltree.InvalidNode && !ok; w = doc.NextSibling(w) {
						ok = exists(c, w)
					}
				} else {
					ok = below(c, v)
				}
			}
			memo[k] = 1
			if ok {
				memo[k] = 2
			}
		}
		return memo[k] == 2
	}
	below = func(p *PatternNode, v xmltree.NodeID) bool {
		k := (t.Len()+p.id)*n + int(v)
		if memo[k] == 0 {
			memo[k] = 1
			for w := doc.FirstChild(v); w != xmltree.InvalidNode; w = doc.NextSibling(w) {
				if exists(p, w) || below(p, w) {
					memo[k] = 2
					break
				}
			}
		}
		return memo[k] == 2
	}

	// Walk the pattern's spine from the root to the returning node,
	// narrowing the data nodes, in document order, that bind it in a whole
	// embedding of the pattern.
	cur := []xmltree.NodeID{}
	for v := range n {
		if (t.Root.Axis != AxisChild || xmltree.NodeID(v) == doc.Root()) && exists(t.Root, xmltree.NodeID(v)) {
			cur = append(cur, xmltree.NodeID(v))
		}
	}
	spine := spineOf(t, patternParents(t))
	for p := t.Root; p != t.ReturningNode(); {
		k := slices.IndexFunc(p.Children, func(c *PatternNode) bool { return spine[c.id] })
		next, nxt := p.Children[k], []xmltree.NodeID{}
		if next.Axis == AxisChild {
			for _, u := range cur {
				for w := doc.FirstChild(u); w != xmltree.InvalidNode; w = doc.NextSibling(w) {
					if exists(next, w) {
						nxt = append(nxt, w)
					}
				}
			}
			slices.Sort(nxt)
		} else {
			// Of the nodes of cur before v, the one reaching furthest
			// encloses v if any does.
			reach, j := xmltree.InvalidNode, 0
			for v := range xmltree.NodeID(n) {
				for ; j < len(cur) && cur[j] < v; j++ {
					reach = max(reach, doc.End(cur[j]))
				}
				if v <= reach && exists(next, v) {
					nxt = append(nxt, v)
				}
			}
		}
		cur, p = nxt, next
	}
	return cur
}
