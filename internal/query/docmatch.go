package query

import (
	"sort"

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
func matchDocument(doc *xmltree.Document, t *PatternTree, bindable func(xmltree.NodeID) bool) []xmltree.NodeID {
	ret := t.ReturningNode()

	// containsRet marks pattern nodes whose subtree holds the returning
	// node.
	containsRet := map[*PatternNode]bool{}
	var mark func(p *PatternNode) bool
	mark = func(p *PatternNode) bool {
		v := p == ret
		for _, c := range p.Children {
			if mark(c) {
				v = true
			}
		}
		containsRet[p] = v
		return v
	}
	mark(t.Root)

	matchesTag := func(p *PatternNode, n xmltree.NodeID) bool {
		if p.Tag != "*" && doc.Tag(n) != p.Tag || bindable != nil && !bindable(n) {
			return false
		}
		return p.Value == "" || doc.Value(n) == p.Value
	}

	// Existential match memo for (pattern node, data node) pairs.
	type key struct {
		p *PatternNode
		n xmltree.NodeID
	}
	memo := map[key]bool{}
	var exists func(p *PatternNode, n xmltree.NodeID) bool
	exists = func(p *PatternNode, n xmltree.NodeID) bool {
		k := key{p, n}
		if v, ok := memo[k]; ok {
			return v
		}
		memo[k] = false // break cycles defensively; trees have none
		ok := matchesTag(p, n)
		if ok {
			for _, c := range p.Children {
				found := false
				if c.Axis == AxisChild {
					for v := doc.FirstChild(n); v != xmltree.InvalidNode && !found; v = doc.NextSibling(v) {
						found = exists(c, v)
					}
				} else {
					for v := n + 1; v <= doc.End(n) && !found; v++ {
						found = exists(c, v)
					}
				}
				if !found {
					ok = false
					break
				}
			}
		}
		memo[k] = ok
		return ok
	}

	// Walk the pattern path from the root toward ret, narrowing data
	// candidates; every node on the path must fully match (its other
	// branches existentially).
	var roots []xmltree.NodeID
	if t.Root.Axis == AxisChild {
		roots = []xmltree.NodeID{doc.Root()}
	} else {
		for n := 0; n < doc.Len(); n++ {
			roots = append(roots, xmltree.NodeID(n))
		}
	}
	cur := map[xmltree.NodeID]bool{}
	for _, r := range roots {
		if exists(t.Root, r) {
			cur[r] = true
		}
	}
	p := t.Root
	for p != ret {
		// Descend into the child whose subtree holds ret.
		var next *PatternNode
		for _, c := range p.Children {
			if containsRet[c] {
				next = c
				break
			}
		}
		if next == nil {
			break
		}
		nxt := map[xmltree.NodeID]bool{}
		for n := range cur {
			if next.Axis == AxisChild {
				for v := doc.FirstChild(n); v != xmltree.InvalidNode; v = doc.NextSibling(v) {
					if exists(next, v) {
						nxt[v] = true
					}
				}
			} else {
				for v := n + 1; v <= doc.End(n); v++ {
					if exists(next, v) {
						nxt[v] = true
					}
				}
			}
		}
		cur = nxt
		p = next
	}
	out := make([]xmltree.NodeID, 0, len(cur))
	for n := range cur {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
