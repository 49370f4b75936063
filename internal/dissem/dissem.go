// Package dissem implements secure dissemination of XML streams, the
// application sketched in the paper's conclusion (§7): because DOL is a
// document-order encoding, a single pass suffices to filter an XML stream
// down to the part a subject may see. The filter enforces the
// pruned-subtree (Gabillon–Bruno) view: an element is emitted exactly when
// it and every ancestor is accessible, so the output is a well-formed
// document fragment of the source.
package dissem

import (
	"encoding/xml"
	"fmt"
	"io"

	"dolxml/internal/acl"
	"dolxml/internal/dol"
	"dolxml/internal/xmltree"
)

// AccessFunc decides the accessibility of the node with the given
// document-order ID. IDs are assigned by the filter in document order as
// elements open, matching xmltree/DOL numbering (attributes are not
// numbered by the stream filter; they travel with their element).
type AccessFunc func(xmltree.NodeID) bool

// Filter copies the XML document on r to w in one pass, keeping only the
// elements visible under the pruned-subtree semantics: an element is
// written iff accessible reports true for it and for each of its
// ancestors. Invisible subtrees are consumed without buffering. Character
// data inside visible elements is preserved; comments and processing
// instructions are dropped (they carry no node identity).
//
// Note: because the stream filter does not materialize attribute nodes,
// its node numbering matches xmltree documents only for attribute-free
// input; use securexml's ExportVisible when the accessibility source was
// built from a parsed document with attributes.
func Filter(r io.Reader, w io.Writer, accessible AccessFunc) error {
	dec := xml.NewDecoder(r)
	enc := xml.NewEncoder(w)
	var next xmltree.NodeID
	// visible[i] records whether the i-th currently-open element is
	// emitted; an element is emitted only when all enclosing ones are.
	var visible []bool
	emitting := func() bool {
		for _, v := range visible {
			if !v {
				return false
			}
		}
		return true
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("dissem: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			id := next
			next++
			vis := emitting() && accessible(id)
			visible = append(visible, vis)
			if vis {
				if err := enc.EncodeToken(t); err != nil {
					return err
				}
			}
		case xml.EndElement:
			if len(visible) == 0 {
				return fmt.Errorf("dissem: unbalanced end element </%s>", t.Name.Local)
			}
			wasVisible := visible[len(visible)-1] && emitting()
			if wasVisible {
				if err := enc.EncodeToken(t); err != nil {
					return err
				}
			}
			visible = visible[:len(visible)-1]
		case xml.CharData:
			if len(visible) > 0 && emitting() {
				if err := enc.EncodeToken(t); err != nil {
					return err
				}
			}
		}
	}
	if len(visible) != 0 {
		return fmt.Errorf("dissem: %d unclosed elements", len(visible))
	}
	return enc.Flush()
}

// SubjectAccess adapts a labeling and a single subject to an AccessFunc.
func SubjectAccess(lab *dol.Labeling, s acl.SubjectID) AccessFunc {
	return func(n xmltree.NodeID) bool { return lab.Accessible(n, s) }
}
