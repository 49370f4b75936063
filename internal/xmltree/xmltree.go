// Package xmltree models an XML document as an ordered tree of element
// nodes, the data model of the DOL paper (§2): nodes correspond to elements,
// edges to parent/child relationships, and siblings are ordered.
//
// Nodes are identified by their document-order (preorder) position, a dense
// NodeID starting at 0 for the root. This identity is what the NoK physical
// encoding and the DOL access-control labeling are defined over: "document
// order" in the paper is exactly increasing NodeID here.
//
// A Document is immutable once built. Use Builder for programmatic
// construction or Parse to read serialized XML (attributes become child
// nodes tagged "@name" so instance-level access controls can target them).
package xmltree

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// NodeID identifies a node by its document-order (preorder) position.
type NodeID int32

// InvalidNode is the null node reference.
const InvalidNode NodeID = -1

// TagID indexes a Document's interned tag table.
type TagID int32

// node is the arena record for one element.
type node struct {
	tag         TagID
	parent      NodeID
	firstChild  NodeID
	nextSibling NodeID
	end         NodeID // last descendant in preorder; end == id for leaves
	level       int32  // root is level 0
	valOff      uint32 // value is text[valOff:valOff+valLen]
	valLen      uint32
}

// Document is an immutable ordered tree of elements in document order.
type Document struct {
	nodes    []node
	tags     []string
	tagIndex map[string]TagID
	text     string // every node's value, back to back
}

// Len returns the number of nodes in the document.
func (d *Document) Len() int { return len(d.nodes) }

// Root returns the root node ID, or InvalidNode for an empty document.
func (d *Document) Root() NodeID {
	if len(d.nodes) == 0 {
		return InvalidNode
	}
	return 0
}

// Valid reports whether n is a node of this document.
func (d *Document) Valid(n NodeID) bool { return n >= 0 && int(n) < len(d.nodes) }

func (d *Document) check(n NodeID) {
	if !d.Valid(n) {
		panic(fmt.Sprintf("xmltree: invalid node %d (document has %d nodes)", n, len(d.nodes)))
	}
}

// Tag returns the tag name of node n.
func (d *Document) Tag(n NodeID) string {
	d.check(n)
	return d.tags[d.nodes[n].tag]
}

// TagIDOf returns the interned tag ID of node n.
func (d *Document) TagIDOf(n NodeID) TagID {
	d.check(n)
	return d.nodes[n].tag
}

// Value returns the text content of node n ("" if none).
func (d *Document) Value(n NodeID) string {
	d.check(n)
	nd := &d.nodes[n]
	return d.text[nd.valOff : nd.valOff+nd.valLen]
}

// Parent returns the parent of n, or InvalidNode for the root.
func (d *Document) Parent(n NodeID) NodeID {
	d.check(n)
	return d.nodes[n].parent
}

// FirstChild returns the first child of n, or InvalidNode if n is a leaf.
func (d *Document) FirstChild(n NodeID) NodeID {
	d.check(n)
	return d.nodes[n].firstChild
}

// NextSibling returns the following sibling of n, or InvalidNode.
func (d *Document) NextSibling(n NodeID) NodeID {
	d.check(n)
	return d.nodes[n].nextSibling
}

// End returns the ID of the last node in n's subtree (n itself for leaves).
// A node a is an ancestor of d exactly when a < d && d <= End(a).
func (d *Document) End(n NodeID) NodeID {
	d.check(n)
	return d.nodes[n].end
}

// SubtreeSize returns the number of nodes in n's subtree, including n.
func (d *Document) SubtreeSize(n NodeID) int {
	d.check(n)
	return int(d.nodes[n].end-n) + 1
}

// Level returns the depth of n; the root has level 0.
func (d *Document) Level(n NodeID) int {
	d.check(n)
	return int(d.nodes[n].level)
}

// Children returns the child IDs of n in sibling order.
func (d *Document) Children(n NodeID) []NodeID {
	d.check(n)
	var out []NodeID
	for c := d.nodes[n].firstChild; c != InvalidNode; c = d.nodes[c].nextSibling {
		out = append(out, c)
	}
	return out
}

// CloseCount returns the number of subtrees that end immediately after node
// n in document order — the number of ')' following n's entry in the NoK
// "closing parens" encoding. It is 0 exactly when n has a first child.
func (d *Document) CloseCount(n NodeID) int {
	d.check(n)
	if d.nodes[n].firstChild != InvalidNode {
		return 0
	}
	// n is a leaf: n's own subtree closes, plus every ancestor whose
	// subtree also ends at n.
	c := 1
	for a := d.nodes[n].parent; a != InvalidNode && d.nodes[a].end == n; a = d.nodes[a].parent {
		c++
	}
	return c
}

// NodesWithTag returns, in document order, every node whose tag is tag.
func (d *Document) NodesWithTag(tag string) []NodeID {
	t, ok := d.tagIndex[tag]
	if !ok {
		return nil
	}
	var out []NodeID
	for i := range d.nodes {
		if d.nodes[i].tag == t {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// MaxDepth returns the maximum node level plus one (depth of the tree), or
// 0 for an empty document.
func (d *Document) MaxDepth() int {
	max := int32(-1)
	for i := range d.nodes {
		if d.nodes[i].level > max {
			max = d.nodes[i].level
		}
	}
	return int(max) + 1
}

// WriteXML serializes the document as XML to w. Attribute nodes (tags
// starting with '@') are emitted as attributes of their parent element.
func (d *Document) WriteXML(w io.Writer) error {
	if len(d.nodes) == 0 {
		return nil
	}
	buf, err := d.appendXML(make([]byte, 0, 2*writeChunk), 0, w)
	if err == nil {
		_, err = w.Write(buf)
	}
	return err
}

// writeChunk is how many bytes WriteXML gathers before it writes them.
const writeChunk = 32 << 10

// appendXML appends n's subtree to buf, handing buf to w whenever it holds
// writeChunk bytes.
func (d *Document) appendXML(buf []byte, n NodeID, w io.Writer) ([]byte, error) {
	tag := d.tags[d.nodes[n].tag]
	buf = append(append(buf, '<'), tag...)
	for c := d.nodes[n].firstChild; c != InvalidNode; c = d.nodes[c].nextSibling {
		if ct := d.tags[d.nodes[c].tag]; strings.HasPrefix(ct, "@") {
			buf = AppendAttr(buf, ct[1:], d.Value(c))
		}
	}
	buf = appendEscaped(append(buf, '>'), d.Value(n))
	for c := d.nodes[n].firstChild; c != InvalidNode; c = d.nodes[c].nextSibling {
		if !strings.HasPrefix(d.tags[d.nodes[c].tag], "@") {
			var err error
			if buf, err = d.appendXML(buf, c, w); err != nil {
				return nil, err
			}
		}
	}
	buf = append(append(append(buf, '<', '/'), tag...), '>')
	if len(buf) < writeChunk {
		return buf, nil
	}
	_, err := w.Write(buf)
	return buf[:0], err
}

// AppendAttr appends ` name="value"` to buf, the value escaped so that
// it reads back unchanged.
func AppendAttr(buf []byte, name, value string) []byte {
	buf = append(append(append(buf, ' '), name...), '=', '"')
	return append(appendEscaped(buf, value), '"')
}

// appendEscaped appends s to buf escaped as xml.EscapeText escapes it:
// markup, quotes, tab, newline and CR as references, and anything outside
// XML's character range as U+FFFD.
func appendEscaped(buf []byte, s string) []byte {
	last := 0
	for i, r := range s {
		esc := "\uFFFD"
		if r < utf8.RuneSelf {
			esc = escapes[r]
		} else if inCharRange(r) && (r != utf8.RuneError || strings.HasPrefix(s[i:], "\uFFFD")) {
			esc = ""
		}
		if esc != "" {
			_, w := utf8.DecodeRuneInString(s[i:])
			buf = append(append(buf, s[last:i]...), esc...)
			last = i + w
		}
	}
	return append(buf, s[last:]...)
}

// escapes holds what appendEscaped writes for each ASCII byte, or "".
var escapes = func() (e [utf8.RuneSelf]string) {
	for c := range 0x20 {
		e[c] = "\uFFFD"
	}
	e['\t'], e['\n'], e['\r'] = "&#x9;", "&#xA;", "&#xD;"
	e['"'], e['\''], e['&'], e['<'], e['>'] = "&#34;", "&#39;", "&amp;", "&lt;", "&gt;"
	return e
}()

// Tags returns the document's tag table in TagID order (a copy).
func (d *Document) Tags() []string {
	out := make([]string, len(d.tags))
	copy(out, d.tags)
	return out
}
