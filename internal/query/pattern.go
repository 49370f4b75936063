// Package query implements twig queries over NoK/DOL stores: an XPath
// subset parser producing pattern trees, the decomposition of pattern
// trees into NoK subtrees connected by ancestor-descendant edges (paper
// §3.1), the ε-NoK secure pattern-matching algorithm (Algorithm 1) and its
// non-secure counterpart, and the end-to-end evaluator that combines NoK
// subtree matches with structural joins under either of the paper's two
// secure-evaluation semantics (§4, §4.2).
package query

import (
	"fmt"
	"strings"
)

// Axis is the relationship of a pattern node to its pattern parent.
type Axis int

// Supported axes.
const (
	// AxisChild is the parent-child axis ("/"). On the pattern root it
	// anchors the match to the document root.
	AxisChild Axis = iota
	// AxisDescendant is the ancestor-descendant axis ("//"). On the
	// pattern root it allows matches anywhere in the document.
	AxisDescendant
)

func (a Axis) String() string {
	if a == AxisDescendant {
		return "//"
	}
	return "/"
}

// PatternNode is one node of a twig query pattern tree.
type PatternNode struct {
	// Tag is the required tag name; "*" matches any tag.
	Tag string
	// Value, when non-empty, requires the matched node's text value to
	// equal it.
	Value string
	// Axis relates the node to its pattern parent (or anchors the root).
	Axis Axis
	// Children are the node's pattern children in query order.
	Children []*PatternNode
	// Returning marks the node whose bindings form the query result.
	Returning bool

	id int // dense index assigned by the pattern tree
}

// PatternTree is a twig query.
type PatternTree struct {
	Root  *PatternNode
	nodes []*PatternNode // by id, in a preorder walk
}

// NewPatternTree finalizes a hand-built pattern rooted at root: it assigns
// node IDs and validates that exactly one node is marked returning (when
// none is, the root becomes the returning node, matching the paper's
// convention of one returning node per pattern tree).
func NewPatternTree(root *PatternNode) (*PatternTree, error) {
	if root == nil {
		return nil, fmt.Errorf("query: nil pattern root")
	}
	t := &PatternTree{Root: root}
	returning := 0
	var walk func(p *PatternNode) error
	walk = func(p *PatternNode) error {
		if p.Tag == "" {
			return fmt.Errorf("query: pattern node with empty tag")
		}
		p.id = len(t.nodes)
		t.nodes = append(t.nodes, p)
		if p.Returning {
			returning++
		}
		for _, c := range p.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	switch returning {
	case 0:
		root.Returning = true
	case 1:
	default:
		return nil, fmt.Errorf("query: %d returning nodes, want at most 1", returning)
	}
	return t, nil
}

// Len returns the number of pattern nodes.
func (t *PatternTree) Len() int { return len(t.nodes) }

// ReturningNode returns the pattern node whose bindings are the result.
func (t *PatternTree) ReturningNode() *PatternNode {
	for _, n := range t.nodes {
		if n.Returning {
			return n
		}
	}
	return t.Root
}

// String renders the pattern as an XPath-like expression.
func (t *PatternTree) String() string {
	var sb strings.Builder
	t.writeTo(&sb)
	return sb.String()
}

// writeTo appends String's render to sb.
func (t *PatternTree) writeTo(sb *strings.Builder) {
	sb.Grow(16 * len(t.nodes))
	var walk func(p *PatternNode, top bool)
	walk = func(p *PatternNode, top bool) {
		sb.WriteString(p.Axis.String())
		sb.WriteString(p.Tag)
		if p.Value != "" {
			fmt.Fprintf(sb, "[.=%q]", p.Value)
		}
		// Render all but the last child as predicates, the last child as
		// path continuation — a readable approximation.
		for i, c := range p.Children {
			if i < len(p.Children)-1 {
				sb.WriteString("[")
				walk(c, false)
				sb.WriteString("]")
			} else {
				walk(c, false)
			}
		}
	}
	walk(t.Root, true)
}

// NoKSubtree is one unit of the pattern decomposition: a maximal pattern
// fragment connected purely by parent-child edges. Subtrees are linked by
// the ancestor-descendant edges that were cut.
type NoKSubtree struct {
	// Root is the subtree's pattern root.
	Root *PatternNode
	// Parent is the index of the parent subtree (-1 for the top).
	Parent int
	// Link is the pattern node inside the parent subtree from which the
	// cut ancestor-descendant edge originates (nil for the top).
	Link *PatternNode
}

// Decompose splits the pattern tree into NoK subtrees at its descendant
// edges, returning the subtrees in a parents-before-children order (§3.1).
func (t *PatternTree) Decompose() []NoKSubtree {
	var subs []NoKSubtree
	var walk func(p *PatternNode, subIdx int)
	walk = func(p *PatternNode, subIdx int) {
		for _, c := range p.Children {
			if c.Axis == AxisDescendant {
				childIdx := len(subs)
				subs = append(subs, NoKSubtree{Root: c, Parent: subIdx, Link: p})
				walk(c, childIdx)
			} else {
				walk(c, subIdx)
			}
		}
	}
	subs = append(subs, NoKSubtree{Root: t.Root, Parent: -1})
	walk(t.Root, 0)
	return subs
}

// nokChildren returns p's pattern children connected by the child axis —
// the children Algorithm 1 must match within one NoK subtree.
func nokChildren(p *PatternNode) []*PatternNode {
	var out []*PatternNode
	for _, c := range p.Children {
		if c.Axis == AxisChild {
			out = append(out, c)
		}
	}
	return out
}

// descendantChildren returns p's pattern children connected by the
// descendant axis (the cut edges).
func descendantChildren(p *PatternNode) []*PatternNode {
	var out []*PatternNode
	for _, c := range p.Children {
		if c.Axis == AxisDescendant {
			out = append(out, c)
		}
	}
	return out
}
