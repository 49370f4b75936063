package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// Parse reads serialized XML from r and builds a Document. Element
// attributes become child nodes tagged "@name"; character data is attached
// to the enclosing element (whitespace-only runs are dropped). Comments and
// processing instructions are ignored, matching the element-tree data model
// of the paper. It accepts what encoding/xml's strict Decoder accepts
// (DESIGN.md §4), and the Document copies every tag and value it keeps.
func Parse(r io.Reader) (*Document, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	// The scan only reads data, and the Document copies what it keeps.
	return ParseString(unsafe.String(unsafe.SliceData(data), len(data)))
}

// ParseString is Parse over an in-memory string.
func ParseString(s string) (doc *Document, err error) {
	p := parser{src: s, b: NewBuilder(), names: map[string]bool{}}
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(*xml.SyntaxError)
			if !ok {
				panic(r)
			}
			doc, err = nil, fmt.Errorf("xmltree: parse: %w", se)
		}
	}()
	p.run()
	return p.b.Finish()
}

// MustParseString is ParseString that panics on error, for tests with
// literal documents.
func MustParseString(s string) *Document {
	d, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return d
}

// parser scans src once, calling its Builder for each element and
// decoding character data and attribute values straight into its buffers.
type parser struct {
	src   string
	b     *Builder
	open  []string        // raw names of the open elements
	attrs []attr          // the start tag being read
	ns    []nsBind        // xmlns:p declarations in scope, innermost last
	names map[string]bool // non-ASCII names already checked
}

// attr is an attribute of the start tag, its value text[off:off+n]; the
// value of one that is not kept, a namespace declaration, stays unused.
type attr struct {
	name   string
	off, n int
}

// nsBind is an xmlns:prefix declaration of the element at depth. If it
// binds prefix to "xmlns", encoding/xml made prefix:name attributes look
// like declarations, which Parse dropped.
type nsBind struct {
	prefix string
	xmlns  bool
	depth  int
}

// fail raises a syntax error at src[i], which ParseString recovers.
func (p *parser) fail(i int, msg string) {
	line := 1 + strings.Count(p.src[:min(i, len(p.src))], "\n")
	panic(&xml.SyntaxError{Msg: msg, Line: line})
}

// at returns src[i], failing at the end of the input.
func (p *parser) at(i int) byte {
	if i >= len(p.src) {
		p.fail(i, "unexpected EOF")
	}
	return p.src[i]
}

func (p *parser) run() {
	for i := 0; i < len(p.src); {
		if p.src[i] != '<' {
			mark := len(p.b.pend)
			p.b.pend, i = p.decode(p.b.pend, i, 0)
			p.keepUnlessBlank(mark)
			continue
		}
		switch p.at(i + 1) {
		case '/':
			i = p.endTag(i + 2)
		case '?', '!':
			i = p.markup(i)
		default:
			i = p.startTag(i + 1)
		}
	}
	if len(p.open) > 0 {
		p.fail(len(p.src), "unexpected EOF")
	}
}

// keepUnlessBlank keeps the run decoded at pend[mark:], as Parse kept a
// CharData token, unless it is blank or no element is open.
func (p *parser) keepUnlessBlank(mark int) {
	if len(p.open) == 0 || len(bytes.TrimSpace(p.b.pend[mark:])) == 0 {
		p.b.pend = p.b.pend[:mark]
	}
}

// decode appends the text at src[i:] to out, expanding references,
// reading "\r\n" and "\r" as "\n" and checking every character. In
// character data (quote 0) it stops before '<'; in an attribute value it
// stops after the closing quote.
func (p *parser) decode(out []byte, i int, quote byte) ([]byte, int) {
	s, start := p.src, i
	for i < len(s) {
		c := s[i]
		if plain[c] {
			i++
			continue
		}
		out = append(out, s[start:i]...)
		switch {
		case c == '\r':
			if out, i = append(out, '\n'), i+1; i < len(s) && s[i] == '\n' {
				i++
			}
		case c < 0x20:
			p.fail(i, fmt.Sprintf("illegal character code %U", rune(c)))
		case c >= utf8.RuneSelf:
			r, w := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && w == 1 {
				p.fail(i, "invalid UTF-8")
			}
			if !inCharRange(r) {
				p.fail(i, fmt.Sprintf("illegal character code %U", r))
			}
			out, i = append(out, s[i:i+w]...), i+w
		// A quote or ']' is literal unless it closes the value or starts "]]>".
		case c != quote && c != '<' && c != '&' && !(quote == 0 && strings.HasPrefix(s[i:], "]]>")):
			out, i = append(out, c), i+1
		case c == '&':
			out, i = p.reference(out, i)
		case c == '<' && quote == 0:
			return out, i
		case c == quote:
			return out, i + 1
		case c == '<':
			p.fail(i, "unescaped < inside quoted string")
		default:
			p.fail(i, "unescaped ]]> not in CDATA section")
		}
		start = i
	}
	if quote != 0 {
		p.fail(i, "unexpected EOF")
	}
	return append(out, s[start:]...), i
}

// plain marks the bytes decode copies without looking: printable ASCII
// other than markup, quotes and ']', and tab and newline.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`<&]"'`, rune(c))
	}
	t['\t'], t['\n'] = true, true
	return t
}()

// reference appends the expansion of the reference at src[i], an '&', and
// returns the index after its ';'.
func (p *parser) reference(out []byte, i int) ([]byte, int) {
	s := p.src
	if p.at(i+1) != '#' {
		for _, e := range [...]string{"lt;<", "gt;>", "amp;&", "apos;'", `quot;"`} {
			if name := e[:len(e)-1]; strings.HasPrefix(s[i+1:], name) {
				return append(out, e[len(e)-1]), i + 1 + len(name)
			}
		}
		p.fail(i, "invalid character entity")
	}
	j, base := i+2, 10
	if p.at(j) == 'x' {
		j, base = j+1, 16
	}
	digits := j
	for c := p.at(j); '0' <= c && c <= '9' || base == 16 && 'a' <= c|0x20 && c|0x20 <= 'f'; c = p.at(j) {
		j++
	}
	n, err := strconv.ParseUint(s[digits:j], base, 64)
	if s[j] != ';' || err != nil || n > utf8.MaxRune {
		p.fail(i, "invalid character entity")
	}
	// A surrogate is written as U+FFFD, as string(rune(n)) writes it.
	if r := rune(n); utf8.ValidRune(r) && !inCharRange(r) {
		p.fail(i, fmt.Sprintf("illegal character code %U", r))
	}
	return utf8.AppendRune(out, rune(n)), j + 1
}

// inCharRange reports whether r is in XML's Char production.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D || r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}

// startTag reads the start tag whose name begins at src[i].
func (p *parser) startTag(i int) int {
	s, b := p.src, p.b
	name, i := p.name(i, "expected element name after <")
	p.attrs = p.attrs[:0]
	for i = skipSpace(s, i); p.at(i) != '>' && s[i] != '/'; i = skipSpace(s, i) {
		name, j := p.name(i, "expected attribute name in element")
		if i = skipSpace(s, j); p.at(i) != '=' {
			p.fail(i, "attribute name without = in element")
		}
		if i = skipSpace(s, i+1); p.at(i) != '"' && s[i] != '\'' {
			p.fail(i, "unquoted or missing attribute value in element")
		}
		a := attr{name: name, off: len(b.text)}
		b.text, i = p.decode(b.text, i+1, s[i])
		if a.n = len(b.text) - a.off; strings.HasPrefix(name, "xmlns:") {
			p.ns = append(p.ns, nsBind{name[6:], string(b.text[a.off:]) == "xmlns", len(p.open) + 1})
		}
		p.attrs = append(p.attrs, a)
	}
	empty := s[i] == '/'
	if empty && p.at(i+1) != '>' {
		p.fail(i, "expected /> in element")
	}
	_, local := splitName(name)
	if len(p.open) == 0 && len(b.doc.nodes) > 0 {
		p.fail(i, "multiple root elements (second is <"+local+">)")
	}
	p.open = append(p.open, name)
	b.Begin(local)
	for _, a := range p.attrs {
		if prefix, local := splitName(a.name); local != "xmlns" && prefix != "xmlns" && !p.boundToXmlns(prefix) {
			id := b.open(b.attrTag(local))
			b.End()
			b.doc.nodes[id].valOff, b.doc.nodes[id].valLen = uint32(a.off), uint32(a.n)
		}
	}
	if empty {
		p.close()
		return i + 2
	}
	return i + 1
}

// boundToXmlns reports whether prefix names the namespace "xmlns" here.
func (p *parser) boundToXmlns(prefix string) bool {
	for k := len(p.ns) - 1; k >= 0 && prefix != "" && prefix != "xml"; k-- {
		if p.ns[k].prefix == prefix {
			return p.ns[k].xmlns
		}
	}
	return false
}

// close ends the innermost open element and its namespace declarations.
func (p *parser) close() {
	for len(p.ns) > 0 && p.ns[len(p.ns)-1].depth == len(p.open) {
		p.ns = p.ns[:len(p.ns)-1]
	}
	p.open = p.open[:len(p.open)-1]
	p.b.End()
}

// endTag reads the end tag whose name begins at src[i].
func (p *parser) endTag(i int) int {
	name, j := p.name(i, "expected element name after </")
	if j = skipSpace(p.src, j); p.at(j) != '>' {
		p.fail(j, "invalid characters between </"+name+" and >")
	}
	if len(p.open) == 0 {
		p.fail(i, "unexpected end element </"+name+">")
	}
	if top := p.open[len(p.open)-1]; top != name {
		p.fail(i, "element <"+top+"> closed by </"+name+">")
	}
	p.close()
	return j + 1
}

// markup hands the comment, CDATA section, processing instruction or
// directive at src[i] to encoding/xml, so that it is read exactly as the
// Decoder reads it, and keeps a CDATA section's text.
func (p *parser) markup(i int) int {
	dec := xml.NewDecoder(strings.NewReader(p.src[i:]))
	tok, err := dec.RawToken()
	if err != nil {
		msg := err.Error()
		if se, ok := err.(*xml.SyntaxError); ok {
			msg = se.Msg
		}
		p.fail(i+int(dec.InputOffset()), msg)
	}
	if text, ok := tok.(xml.CharData); ok {
		p.b.pend = append(p.b.pend, text...)
		p.keepUnlessBlank(len(p.b.pend) - len(text))
	}
	return i + int(dec.InputOffset())
}

// name reads the tag or attribute name at src[i]: ASCII name bytes and
// any byte ≥ 0x80, with at most one colon.
func (p *parser) name(i int, missing string) (string, int) {
	j, high := i, byte(0)
	for c := p.at(j); c >= utf8.RuneSelf || isNameByte(c); c = p.at(j) {
		j, high = j+1, high|c
	}
	n := p.src[i:j]
	if n == "" || strings.Count(n, ":") > 1 {
		p.fail(i, missing)
	}
	if c := n[0]; high < utf8.RuneSelf && ('0' <= c && c <= '9' || c == '-' || c == '.') ||
		high >= utf8.RuneSelf && !p.nonASCIIName(n) {
		p.fail(i, "invalid XML name: "+n)
	}
	return n, j
}

// nonASCIIName reports whether encoding/xml, asked once per distinct name
// instead of carrying XML's name tables, accepts n as a name. ':' is a name
// character wherever '_' is, so swapping them avoids namespaces.
func (p *parser) nonASCIIName(n string) bool {
	ok, seen := p.names[n]
	if !seen {
		probe := "<" + strings.ReplaceAll(n, ":", "_") + "/>"
		_, err := xml.NewDecoder(strings.NewReader(probe)).Token()
		ok = err == nil
		p.names[n] = ok
	}
	return ok
}

func isNameByte(c byte) bool {
	return 'a' <= c|0x20 && c|0x20 <= 'z' || '0' <= c && c <= '9' || c == '_' || c == ':' || c == '.' || c == '-'
}

// splitName splits a raw name at its colon as encoding/xml does: a name
// with an empty prefix or local part keeps the colon in its local part.
func splitName(n string) (prefix, local string) {
	if pre, loc, ok := strings.Cut(n, ":"); ok && pre != "" && loc != "" {
		return pre, loc
	}
	return "", n
}

func skipSpace(s string, i int) int { return len(s) - len(strings.TrimLeft(s[i:], " \t\r\n")) }
