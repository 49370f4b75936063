package securexml

import (
	"encoding/xml"
	"fmt"
	"io"

	"dolxml/internal/nok"
	"dolxml/internal/xmltree"
)

// ExportVisible serializes the document fragment the user may see under
// the given mode — the pruned-subtree view (an element appears exactly
// when it and all its ancestors are accessible) — directly from the
// physical store in one document-order pass. Attribute nodes are emitted
// as attributes of their (visible) parents when accessible and omitted
// when not, so the authorized view hides individual attributes too.
//
// The output is the dissemination primitive of the paper's conclusion:
// the materialized secure view for one subject.
func (s *Store) ExportVisible(user, mode string, w io.Writer) error {
	r, err := s.acquire()
	if err != nil {
		return err
	}
	defer s.release(r)
	sn := r.sn
	view, err := s.viewAt(sn, user, mode)
	if err != nil {
		return err
	}

	st := sn.st
	vs := st.Values()

	var stack []exportFrame
	allVisible := true // whether every frame on the stack is visible

	// completeOpen finishes the top frame's start tag before nested
	// element content is written.
	completeOpen := func() error {
		if len(stack) == 0 {
			return nil
		}
		top := &stack[len(stack)-1]
		if !top.visible || !top.openPending {
			return nil
		}
		if _, err := io.WriteString(w, ">"); err != nil {
			return err
		}
		if top.textPending != "" {
			if err := xml.EscapeText(w, []byte(top.textPending)); err != nil {
				return err
			}
			top.textPending = ""
		}
		top.openPending = false
		return nil
	}

	var walkErr error
	err = st.WalkSubtree(0, func(ni nok.NodeInfo) bool {
		if walkErr != nil {
			return false
		}
		tag := st.TagName(ni.Entry.Tag)
		accessible := view.CodeAllowed(ni.Code)
		visible := allVisible && accessible

		var value string
		if vs != nil {
			value, walkErr = vs.Value(ni.ID)
			if walkErr != nil {
				return false
			}
		}

		if len(tag) > 0 && tag[0] == '@' {
			// Attribute node: attach to the parent's pending start tag.
			if visible && len(stack) > 0 {
				top := &stack[len(stack)-1]
				if top.visible && top.openPending {
					if _, err := w.Write(xmltree.AppendAttr(nil, tag[1:], value)); err != nil {
						walkErr = err
						return false
					}
				}
			}
			// Attribute nodes are leaves; their close is handled below.
		} else {
			if walkErr = completeOpen(); walkErr != nil {
				return false
			}
			if visible {
				if _, err := fmt.Fprintf(w, "<%s", tag); err != nil {
					walkErr = err
					return false
				}
			}
			stack = append(stack, exportFrame{tag: tag, visible: visible, openPending: visible, textPending: value})
			if !visible {
				allVisible = false
			}
		}

		// Handle the subtrees closing after this node. Attribute nodes
		// close themselves (they were never pushed), so the first close
		// of an attribute entry is a no-op on the stack.
		closes := ni.Entry.CloseCount
		if len(tag) > 0 && tag[0] == '@' {
			closes--
		}
		for k := 0; k < closes; k++ {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if top.visible {
				if top.openPending {
					if _, err := io.WriteString(w, ">"); err != nil {
						walkErr = err
						return false
					}
					if top.textPending != "" {
						if err := xml.EscapeText(w, []byte(top.textPending)); err != nil {
							walkErr = err
							return false
						}
					}
				}
				if _, err := fmt.Fprintf(w, "</%s>", top.tag); err != nil {
					walkErr = err
					return false
				}
			}
			allVisible = frameAllVisible(stack)
		}
		return true
	})
	if err != nil {
		return err
	}
	return walkErr
}

// exportFrame tracks one open element during ExportVisible's walk.
type exportFrame struct {
	tag     string
	visible bool
	// openPending means "<tag" has been written but not yet ">".
	openPending bool
	// textPending is the element's own text, written right after the
	// open tag is completed.
	textPending string
}

func frameAllVisible(stack []exportFrame) bool {
	for _, f := range stack {
		if !f.visible {
			return false
		}
	}
	return true
}
