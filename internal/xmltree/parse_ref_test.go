package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// refParse is the encoding/xml front end Parse replaced, kept as the
// reference the scanner is fuzzed against: Decoder.Token in strict mode,
// attributes but not namespace declarations as "@name" children, and each
// CharData token kept unless it is blank.
func refParse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	b := NewBuilder()
	sawRoot := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if sawRoot && b.Depth() == 0 {
				return nil, fmt.Errorf("xmltree: multiple root elements (second is <%s>)", t.Name.Local)
			}
			sawRoot = true
			b.Begin(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				b.Attr(a.Name.Local, a.Value)
			}
		case xml.EndElement:
			b.End()
		case xml.CharData:
			if b.Depth() == 0 {
				continue
			}
			if s := string(t); strings.TrimSpace(s) != "" {
				b.Text(s)
			}
		}
	}
	return b.Finish()
}
