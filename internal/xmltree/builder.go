package xmltree

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"unsafe"
)

// Builder constructs a Document in document order. Calls follow the shape of
// a SAX stream: Begin(tag) opens an element, Text appends to the current
// element's text content, End() closes the most recently opened element.
// This mirrors the paper's observation (§2) that a document-order encoding
// can be constructed on the fly in a single pass over the XML input.
type Builder struct {
	doc   *Document
	stack []frame
	// text is the value arena: each closed element's value, copied in at
	// End and turned into the Document's one text string at Finish.
	text []byte
	// pend holds the open elements' pending text, outermost first, so only
	// the innermost one grows; End moves it to text.
	pend []byte
	key  []byte // scratch for "@name" attribute tags
	done bool
}

// frame is one open element: its last child, so the next one is linked in
// O(1), and where its pending text starts in pend.
type frame struct {
	id, last NodeID
	pend     int
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{doc: &Document{tagIndex: make(map[string]TagID)}}
}

// intern returns tag's TagID, adding a copy of tag to the table if it is
// new, so a tag may be a view of bytes the caller reuses.
func (b *Builder) intern(tag string) TagID {
	if t, ok := b.doc.tagIndex[tag]; ok {
		return t
	}
	tag = strings.Clone(tag)
	t := TagID(len(b.doc.tags))
	b.doc.tags = append(b.doc.tags, tag)
	b.doc.tagIndex[tag] = t
	return t
}

// attrTag interns "@" + name without building the string first.
func (b *Builder) attrTag(name string) TagID {
	b.key = append(append(b.key[:0], '@'), name...)
	return b.intern(unsafe.String(unsafe.SliceData(b.key), len(b.key)))
}

// Begin opens a new element with the given tag as a child of the currently
// open element (or as the root) and returns its NodeID.
func (b *Builder) Begin(tag string) NodeID {
	return b.open(b.intern(tag))
}

func (b *Builder) open(tag TagID) NodeID {
	if b.done {
		panic("xmltree: Begin after Finish")
	}
	if len(b.stack) == 0 && len(b.doc.nodes) > 0 {
		panic("xmltree: document already has a root")
	}
	id := NodeID(len(b.doc.nodes))
	n := node{tag: tag, parent: InvalidNode, firstChild: InvalidNode, nextSibling: InvalidNode, end: id}
	if len(b.stack) > 0 {
		f := &b.stack[len(b.stack)-1]
		n.parent = f.id
		n.level = b.doc.nodes[f.id].level + 1
		if f.last == InvalidNode {
			b.doc.nodes[f.id].firstChild = id
		} else {
			b.doc.nodes[f.last].nextSibling = id
		}
		f.last = id
	}
	b.doc.nodes = append(b.doc.nodes, n)
	b.stack = append(b.stack, frame{id: id, last: InvalidNode, pend: len(b.pend)})
	return id
}

// Text appends text content to the currently open element.
func (b *Builder) Text(s string) {
	if len(b.stack) == 0 {
		panic("xmltree: Text with no open element")
	}
	b.pend = append(b.pend, s...)
}

// Attr adds an attribute to the currently open element, represented as a
// leaf child node tagged "@name" holding the attribute value.
func (b *Builder) Attr(name, value string) {
	b.open(b.attrTag(name))
	b.Text(value)
	b.End()
}

// Element is shorthand for Begin(tag); Text(value); End().
func (b *Builder) Element(tag, value string) NodeID {
	id := b.Begin(tag)
	if value != "" {
		b.Text(value)
	}
	b.End()
	return id
}

// End closes the most recently opened element.
func (b *Builder) End() {
	if len(b.stack) == 0 {
		panic("xmltree: End with no open element")
	}
	f := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	n := &b.doc.nodes[f.id]
	n.end = NodeID(len(b.doc.nodes) - 1)
	n.valOff, n.valLen = uint32(len(b.text)), uint32(len(b.pend)-f.pend)
	b.text = append(b.text, b.pend[f.pend:]...)
	b.pend = b.pend[:f.pend]
}

// Depth returns the number of currently open elements.
func (b *Builder) Depth() int { return len(b.stack) }

// Finish validates and returns the completed document. The builder must not
// be reused afterwards.
func (b *Builder) Finish() (*Document, error) {
	if b.done {
		return nil, errors.New("xmltree: Finish called twice")
	}
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("xmltree: %d unclosed elements", len(b.stack))
	}
	if len(b.doc.nodes) == 0 {
		return nil, errors.New("xmltree: empty document")
	}
	if uint64(len(b.text)) > math.MaxUint32 {
		return nil, errors.New("xmltree: values exceed 4 GiB")
	}
	b.done = true
	b.doc.text = string(b.text)
	b.text, b.pend = nil, nil
	return b.doc, nil
}

// MustFinish is Finish that panics on error, for tests and generators whose
// construction sequence is statically correct.
func (b *Builder) MustFinish() *Document {
	d, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return d
}
