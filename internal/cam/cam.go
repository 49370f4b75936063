// Package cam implements the Compressed Accessibility Map of Yu,
// Srivastava, Lakshmanan and Jagadish (VLDB 2002), the single-subject
// baseline the DOL paper compares against in Figure 4.
//
// A CAM is a set of labeled document nodes. Each label carries two bits:
// the accessibility of the node itself (self) and the default accessibility
// of its descendants (desc). The accessibility of an arbitrary node d is
// determined by the nearest labeled ancestor-or-self c: self(c) if c == d,
// otherwise desc(c). The root is always labeled, so every node resolves.
//
// Build computes a minimum-size CAM by a two-state bottom-up dynamic
// program over the tree: for each node and each inherited descendant
// default, either the node's accessibility agrees with the inherited
// default (no label needed), or a label is placed and the cheaper of the
// two descendant defaults is chosen for its subtree.
package cam

import (
	"fmt"
	"sort"

	"dolxml/internal/bitset"
	"dolxml/internal/xmltree"
)

// Label is one CAM entry.
type Label struct {
	Node xmltree.NodeID
	// Self is the accessibility of the labeled node itself.
	Self bool
	// Desc is the default accessibility of the node's descendants.
	Desc bool
}

// CAM is a compressed accessibility map for a single subject over one
// document.
type CAM struct {
	labels []Label // sorted by Node
	byNode map[xmltree.NodeID]int
	doc    *xmltree.Document
}

// Build computes a minimum CAM for the accessibility assignment acc, where
// bit n of acc is node n's accessibility.
func Build(doc *xmltree.Document, acc *bitset.Bitset) *CAM {
	n := doc.Len()
	if n == 0 {
		return &CAM{byNode: map[xmltree.NodeID]int{}, doc: doc}
	}
	// dp[v][c] = minimal labels in v's subtree when the inherited
	// descendant default is c (0 = deny, 1 = allow).
	// choice[v][c]: -1 = no label; 0/1 = label with that desc default.
	dp := make([][2]int32, n)
	choice := make([][2]int8, n)

	// Children sums per node per default, accumulated in reverse
	// document order (children have larger IDs than parents, so a single
	// reverse pass visits children before parents).
	sum := make([][2]int32, n)
	for v := n - 1; v >= 0; v-- {
		id := xmltree.NodeID(v)
		av := 0
		if acc.Test(v) {
			av = 1
		}
		for c := 0; c < 2; c++ {
			best := int32(1<<30 - 1)
			bestChoice := int8(-2)
			if av == c {
				if s := sum[v][c]; s < best {
					best = s
					bestChoice = -1
				}
			}
			for d := 0; d < 2; d++ {
				if s := 1 + sum[v][d]; s < best {
					best = s
					bestChoice = int8(d)
				}
			}
			dp[v][c] = best
			choice[v][c] = bestChoice
		}
		if p := doc.Parent(id); p != xmltree.InvalidNode {
			sum[p][0] += dp[v][0]
			sum[p][1] += dp[v][1]
		}
	}

	// The root is always labeled: pick the cheaper descendant default.
	cam := &CAM{byNode: make(map[xmltree.NodeID]int), doc: doc}
	type frame struct {
		node xmltree.NodeID
		ctx  int8 // inherited default, or root marker 2
	}
	stack := []frame{{0, 2}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := int(fr.node)
		var ch int8
		if fr.ctx == 2 {
			// Forced root label with the cheaper default.
			if sum[v][0] <= sum[v][1] {
				ch = 0
			} else {
				ch = 1
			}
		} else {
			ch = choice[v][fr.ctx]
		}
		nextCtx := fr.ctx
		if ch >= 0 || fr.ctx == 2 {
			if fr.ctx == 2 {
				nextCtx = ch
			} else {
				nextCtx = ch
			}
			cam.labels = append(cam.labels, Label{
				Node: fr.node,
				Self: acc.Test(v),
				Desc: nextCtx == 1,
			})
		}
		for c := doc.FirstChild(fr.node); c != xmltree.InvalidNode; c = doc.NextSibling(c) {
			stack = append(stack, frame{c, nextCtx})
		}
	}
	sort.Slice(cam.labels, func(i, j int) bool { return cam.labels[i].Node < cam.labels[j].Node })
	for i, l := range cam.labels {
		cam.byNode[l.Node] = i
	}
	return cam
}

// Len returns the number of CAM labels — the paper's Figure 4 metric.
func (c *CAM) Len() int { return len(c.labels) }

// Accessible resolves node n's accessibility via the nearest labeled
// ancestor-or-self.
func (c *CAM) Accessible(n xmltree.NodeID) (bool, error) {
	if !c.doc.Valid(n) {
		return false, fmt.Errorf("cam: invalid node %d", n)
	}
	for v := n; v != xmltree.InvalidNode; v = c.doc.Parent(v) {
		if i, ok := c.byNode[v]; ok {
			if v == n {
				return c.labels[i].Self, nil
			}
			return c.labels[i].Desc, nil
		}
	}
	return false, fmt.Errorf("cam: node %d has no labeled ancestor (missing root label)", n)
}
