package xmlmodel

import (
	"math/rand"
	"slices"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/xmltree"
)

// Node is one element of the model: its tag, value, access row (one bit
// per subject) and children in document order.
type Node struct {
	Tag, Value string
	Row        *bitset.Bitset
	Kids       []*Node
}

// Model is a document with per-node access rows and a subject directory of
// users and groups, mutated by plain tree operations. Node IDs are preorder
// positions, as in the stores it is held to; every operation takes the IDs
// of the document before it. Pins are the states snapshots were pinned in,
// oldest first.
type Model struct {
	Root *Node
	// Group and MemberOf describe the subjects: whether each is a group,
	// and the groups it was added to.
	Group    []bool
	MemberOf [][]int
	Pins     []*Model
}

// New returns the model of doc under m, whose subjects are all users.
func New(doc *xmltree.Document, m *acl.Matrix) *Model {
	var build func(n xmltree.NodeID) *Node
	build = func(n xmltree.NodeID) *Node {
		x := &Node{Tag: doc.Tag(n), Value: doc.Value(n), Row: m.Row(n).Clone()}
		for _, c := range doc.Children(n) {
			x.Kids = append(x.Kids, build(c))
		}
		return x
	}
	return &Model{Root: build(doc.Root()), Group: make([]bool, m.NumSubjects()), MemberOf: make([][]int, m.NumSubjects())}
}

// Subjects is the number of subjects.
func (m *Model) Subjects() int { return len(m.Group) }

// Nodes lists the nodes in document order: Nodes()[n] is node n.
func (m *Model) Nodes() []*Node {
	var out []*Node
	var walk func(x *Node)
	walk = func(x *Node) {
		out = append(out, x)
		for _, k := range x.Kids {
			walk(k)
		}
	}
	walk(m.Root)
	return out
}

// node returns node n without listing the others.
func (m *Model) node(n xmltree.NodeID) *Node {
	var found *Node
	id := xmltree.NodeID(0)
	var walk func(x *Node)
	walk = func(x *Node) {
		if id == n {
			found = x
		}
		id++
		for _, k := range x.Kids {
			if found == nil {
				walk(k)
			}
		}
	}
	walk(m.Root)
	return found
}

// Clone returns a deep copy without pins.
func (m *Model) Clone() *Model {
	var clone func(x *Node) *Node
	clone = func(x *Node) *Node {
		c := &Node{Tag: x.Tag, Value: x.Value, Row: x.Row.Clone(), Kids: make([]*Node, len(x.Kids))}
		for i, k := range x.Kids {
			c.Kids[i] = clone(k)
		}
		return c
	}
	mo := make([][]int, len(m.MemberOf))
	for i, g := range m.MemberOf {
		mo[i] = slices.Clone(g)
	}
	return &Model{Root: clone(m.Root), Group: slices.Clone(m.Group), MemberOf: mo}
}

// Flatten returns the document and its access matrix.
func (m *Model) Flatten() (*xmltree.Document, *acl.Matrix) {
	nodes := m.Nodes()
	acc := acl.NewMatrix(len(nodes), m.Subjects())
	for i, x := range nodes {
		acc.SetRow(xmltree.NodeID(i), x.Row)
	}
	return m.Hide(nil), acc
}

// Hide returns the document with every node bindable rejects (nil admits
// all) retagged to a name no twig asks for: node IDs stay, a descendant step
// crosses such a node, and no named step binds it. A * step still does, so a
// test that answers a twig with a * step on a hidden document gets a
// superset.
func (m *Model) Hide(bindable []bool) *xmltree.Document {
	b := xmltree.NewBuilder()
	id := 0
	var walk func(x *Node)
	walk = func(x *Node) {
		tag := x.Tag
		if bindable != nil && !bindable[id] {
			tag = "\x00hidden"
		}
		id++
		b.Begin(tag)
		b.Text(x.Value)
		for _, k := range x.Kids {
			walk(k)
		}
		b.End()
	}
	walk(m.Root)
	return b.MustFinish()
}

// Bindable reports per node whether the user may bind it: under bindings
// semantics when a subject of its effective set — the user and every group
// it belongs to, transitively — may access the node, under pruned-subtree
// semantics when one may access the node and each of its ancestors.
func (m *Model) Bindable(user int, pruned bool) []bool {
	eff := m.Effective(user)
	var out []bool
	var walk func(x *Node, ok bool)
	walk = func(x *Node, ok bool) {
		acc := false
		for s, in := range eff {
			acc = acc || in && x.Row.Test(s)
		}
		out = append(out, acc && ok)
		for _, k := range x.Kids {
			walk(k, !pruned || acc && ok)
		}
	}
	walk(m.Root, true)
	return out
}

// Effective reports per subject whether it is in s's effective set: s and
// every group s belongs to, transitively.
func (m *Model) Effective(s int) []bool {
	eff := make([]bool, m.Subjects())
	var join func(s int)
	join = func(s int) {
		if !eff[s] {
			eff[s] = true
			for _, g := range m.MemberOf[s] {
				join(g)
			}
		}
	}
	join(s)
	return eff
}

// Equal reports whether m and o hold the same document, access rows,
// subjects and effective sets.
func (m *Model) Equal(o *Model) bool {
	a, b := m.Nodes(), o.Nodes()
	if len(a) != len(b) || !slices.Equal(m.Group, o.Group) {
		return false
	}
	for i, x := range a {
		y := b[i]
		if x.Tag != y.Tag || x.Value != y.Value || len(x.Kids) != len(y.Kids) || !x.Row.Equal(y.Row) {
			return false
		}
	}
	for s := range m.Group {
		if !slices.Equal(m.Effective(s), o.Effective(s)) {
			return false
		}
	}
	return true
}

// detach removes x from its parent's children.
func detach(nodes []*Node, x *Node) {
	for _, p := range nodes {
		if i := slices.Index(p.Kids, x); i >= 0 {
			p.Kids = slices.Delete(p.Kids, i, i+1)
			return
		}
	}
}

func subtree(x *Node) []*Node {
	out := []*Node{x}
	for _, k := range x.Kids {
		out = append(out, subtree(k)...)
	}
	return out
}

// SetAccess grants or revokes subject s on node n or, with whole, on n's
// subtree.
func (m *Model) SetAccess(n xmltree.NodeID, s int, allowed, whole bool) {
	x := m.node(n)
	if !whole {
		x.Row.SetTo(s, allowed)
		return
	}
	for _, y := range subtree(x) {
		y.Row.SetTo(s, allowed)
	}
}

// SetRange grants or revokes subject s on the nodes lo..hi.
func (m *Model) SetRange(lo, hi xmltree.NodeID, s int, allowed bool) {
	for _, x := range m.Nodes()[lo : hi+1] {
		x.Row.SetTo(s, allowed)
	}
}

// Insert adds frag, with the access rows of acc, as a child of parent right
// after its child after, or first when after is InvalidNode.
func (m *Model) Insert(parent, after xmltree.NodeID, frag *xmltree.Document, acc *acl.Matrix) {
	place(m.Nodes(), New(frag, acc).Root, parent, after)
}

// place puts x among the children of nodes[parent], after nodes[after].
func place(nodes []*Node, x *Node, parent, after xmltree.NodeID) {
	p, pos := nodes[parent], 0
	if after != xmltree.InvalidNode {
		pos = slices.Index(p.Kids, nodes[after]) + 1
	}
	p.Kids = slices.Insert(p.Kids, pos, x)
}

// Delete removes node n's subtree.
func (m *Model) Delete(n xmltree.NodeID) {
	nodes := m.Nodes()
	detach(nodes, nodes[n])
}

// Move makes node n's subtree a child of parent, after its child after or
// first when after is InvalidNode.
func (m *Model) Move(n, parent, after xmltree.NodeID) {
	nodes := m.Nodes()
	detach(nodes, nodes[n])
	place(nodes, nodes[n], parent, after)
}

// AddSubject adds a user, or a group, with no access anywhere or, when like
// is a subject, the access like has on its own; it returns the new subject.
func (m *Model) AddSubject(group bool, like int) int {
	s := m.Subjects()
	m.Group = append(m.Group, group)
	m.MemberOf = append(m.MemberOf, nil)
	for _, x := range m.Nodes() {
		x.Row.Resize(s + 1)
		x.Row.SetTo(s, like >= 0 && x.Row.Test(like))
	}
	return s
}

// AddMember makes member a member of group.
func (m *Model) AddMember(group, member int) {
	m.MemberOf[member] = append(m.MemberOf[member], group)
}

// Kind names an operation.
type Kind int

const (
	SetAccess Kind = iota
	SetRange
	AddUser
	AddUserLike
	AddGroup
	AddMember
	Insert
	InsertRows
	Delete
	Move
	Vacuum
	Pin
	Release
	Reopen
	Crash
	Evict
)

// Updates are the facade's eight update kinds and Vacuum.
var Updates = []Kind{SetAccess, AddUser, AddUserLike, AddGroup, AddMember, Insert, Delete, Move, Vacuum}

func (k Kind) String() string {
	return [...]string{"set-access", "set-range", "add-user", "add-user-like", "add-group", "add-member",
		"insert", "insert-rows", "delete", "move", "vacuum", "pin", "release", "reopen", "crash", "evict"}[k]
}

// Operation is one operation Op applied to a model. Node, Parent, After
// and Hi are IDs in the document before it; Subject is the subject granted
// or revoked, the group a member joins, or the subject added; Other is the
// subject a new user copies (-1 for none) or the member who joins; Pin is
// the index of the pin a Release drops. A Crash is an update, Update, that
// a crash strikes at one of its commit's fault points; Before is the model
// before it, which the crash may have kept. An Evict changes nothing: a
// registry evicts the store and opens or revives it.
type Operation struct {
	Kind             Kind
	Node, Hi         xmltree.NodeID
	Parent, After    xmltree.NodeID
	Subject, Other   int
	Allowed, Subtree bool
	Frag             *xmltree.Document
	FragACL          *acl.Matrix
	Pin              int
	Update           *Operation
	Before           *Model
}

// Op draws an operation of one of the kinds, applies it to the model and
// returns it, for the caller to apply to the system under test. Accesses
// change on single nodes, whole subtrees (mostly revokes) and ranges;
// inserts put a small fragment first or after any child, every node of it
// with the parent's access row (Insert, as the facade inserts) or a random
// row of its own (InsertRows); deletes take subtrees under a tenth of the
// document, and only from documents of twenty nodes or more; moves take
// such a subtree under a node outside it, first or after a sibling before
// or after the moved range. Members join groups only as users. A crash
// draws its update from Updates.
func Op(rng *rand.Rand, m *Model, kinds ...Kind) Operation {
	for {
		op := Operation{Kind: kinds[rng.Intn(len(kinds))], Node: xmltree.InvalidNode, After: xmltree.InvalidNode, Other: -1}
		nodes := m.Nodes()
		node := func() xmltree.NodeID { return xmltree.NodeID(1 + rng.Intn(len(nodes)-1)) }
		size := func(n xmltree.NodeID) int { return len(subtree(nodes[n])) }
		childOf := func(p xmltree.NodeID) xmltree.NodeID {
			if kids := nodes[p].Kids; len(kids) > 0 && rng.Intn(4) > 0 {
				return xmltree.NodeID(slices.Index(nodes, kids[rng.Intn(len(kids))]))
			}
			return xmltree.InvalidNode
		}
		if len(nodes) < 2 && !slices.Contains([]Kind{AddUser, AddGroup, Insert, InsertRows, Vacuum, Pin, Reopen, Crash, Evict}, op.Kind) {
			continue
		}
		switch op.Kind {
		case SetAccess:
			op.Node, op.Subject, op.Allowed, op.Subtree = node(), rng.Intn(m.Subjects()), rng.Intn(3) == 0, rng.Intn(2) == 0
			m.SetAccess(op.Node, op.Subject, op.Allowed, op.Subtree)
		case SetRange:
			lo := rng.Intn(len(nodes))
			op.Node, op.Hi = xmltree.NodeID(lo), xmltree.NodeID(lo+rng.Intn(len(nodes)-lo))
			op.Subject, op.Allowed = rng.Intn(m.Subjects()), rng.Intn(2) == 0
			m.SetRange(op.Node, op.Hi, op.Subject, op.Allowed)
		case AddUser, AddGroup:
			op.Subject = m.AddSubject(op.Kind == AddGroup, -1)
		case AddUserLike:
			op.Other = rng.Intn(m.Subjects())
			op.Subject = m.AddSubject(false, op.Other)
		case AddMember:
			var groups, users []int
			for s, g := range m.Group {
				if g {
					groups = append(groups, s)
				} else {
					users = append(users, s)
				}
			}
			if len(groups) == 0 || len(users) == 0 {
				continue
			}
			op.Subject, op.Other = groups[rng.Intn(len(groups))], users[rng.Intn(len(users))]
			m.AddMember(op.Subject, op.Other)
		case Insert, InsertRows:
			op.Parent = xmltree.NodeID(rng.Intn(len(nodes)))
			op.After = childOf(op.Parent)
			op.Frag = Doc(rng, 1+rng.Intn(6), Mixed)
			op.FragACL = acl.NewMatrix(op.Frag.Len(), m.Subjects())
			for n := 0; n < op.Frag.Len(); n++ {
				row := nodes[op.Parent].Row
				if op.Kind == InsertRows {
					row = bitset.New(m.Subjects())
					for s := 0; s < m.Subjects(); s++ {
						row.SetTo(s, rng.Intn(2) == 0)
					}
				}
				op.FragACL.SetRow(xmltree.NodeID(n), row)
			}
			m.Insert(op.Parent, op.After, op.Frag, op.FragACL)
		case Delete:
			if op.Node = node(); len(nodes) < 20 || size(op.Node) >= len(nodes)/10 {
				continue
			}
			m.Delete(op.Node)
		case Move:
			op.Node, op.Parent = node(), xmltree.NodeID(rng.Intn(len(nodes)))
			end := op.Node + xmltree.NodeID(size(op.Node)) - 1
			if size(op.Node) >= max(len(nodes)/10, 2) || op.Parent >= op.Node && op.Parent <= end {
				continue
			}
			if op.After = childOf(op.Parent); op.After == op.Node {
				op.After = xmltree.InvalidNode
			}
			m.Move(op.Node, op.Parent, op.After)
		case Pin:
			m.Pins = append(m.Pins, m.Clone())
		case Release:
			if len(m.Pins) == 0 {
				continue
			}
			op.Pin = rng.Intn(len(m.Pins))
			m.Pins = slices.Delete(m.Pins, op.Pin, op.Pin+1)
		case Crash:
			op.Before = m.Clone()
			u := Op(rng, m, Updates...)
			op.Update = &u
		}
		return op
	}
}
