package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// paperDoc builds the 12-node data tree from Figure 2 of the paper:
// (a(b)(c)(d)(e(f)(g)(h(i)(j)(k)(l)))).
func paperDoc(t testing.TB) *Document {
	t.Helper()
	b := NewBuilder()
	b.Begin("a")
	b.Element("b", "")
	b.Element("c", "")
	b.Element("d", "")
	b.Begin("e")
	b.Element("f", "")
	b.Element("g", "")
	b.Begin("h")
	b.Element("i", "")
	b.Element("j", "")
	b.Element("k", "")
	b.Element("l", "")
	b.End() // h
	b.End() // e
	b.End() // a
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPaperDocShape(t *testing.T) {
	d := paperDoc(t)
	if d.Len() != 12 {
		t.Fatalf("Len = %d, want 12", d.Len())
	}
	// Document order: a b c d e f g h i j k l.
	wantTags := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	for i, w := range wantTags {
		if got := d.Tag(NodeID(i)); got != w {
			t.Errorf("Tag(%d) = %q, want %q", i, got, w)
		}
	}
	if d.Root() != 0 {
		t.Errorf("Root = %d", d.Root())
	}
	if got := d.FirstChild(0); got != 1 {
		t.Errorf("FirstChild(a) = %d, want 1", got)
	}
	if got := d.NextSibling(1); got != 2 {
		t.Errorf("NextSibling(b) = %d, want 2", got)
	}
	if got := d.NextSibling(4); got != InvalidNode {
		t.Errorf("NextSibling(e) = %d, want invalid", got)
	}
	if got := d.Parent(7); got != 4 {
		t.Errorf("Parent(h) = %d, want 4 (e)", got)
	}
	if got := d.End(4); got != 11 {
		t.Errorf("End(e) = %d, want 11", got)
	}
	if got := d.End(7); got != 11 {
		t.Errorf("End(h) = %d, want 11", got)
	}
	if got := d.SubtreeSize(4); got != 8 {
		t.Errorf("SubtreeSize(e) = %d, want 8", got)
	}
	if got := d.Level(11); got != 3 {
		t.Errorf("Level(l) = %d, want 3", got)
	}
	if got := d.MaxDepth(); got != 4 {
		t.Errorf("MaxDepth = %d, want 4", got)
	}
}

func TestCloseCounts(t *testing.T) {
	d := paperDoc(t)
	// Structure string: a b) c) d) e f) g) h i) j) k) l))))
	want := []int{0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 4}
	for i, w := range want {
		if got := d.CloseCount(NodeID(i)); got != w {
			t.Errorf("CloseCount(%s) = %d, want %d", d.Tag(NodeID(i)), got, w)
		}
	}
	// Sum of close counts equals node count (every subtree closes once).
	sum := 0
	for i := 0; i < d.Len(); i++ {
		sum += d.CloseCount(NodeID(i))
	}
	if sum != d.Len() {
		t.Errorf("total closes = %d, want %d", sum, d.Len())
	}
}

func TestChildren(t *testing.T) {
	d := paperDoc(t)
	got := d.Children(0)
	want := []NodeID{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Children(a) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Children(a) = %v, want %v", got, want)
		}
	}
	if d.Children(1) != nil {
		t.Error("leaf should have no children")
	}
}

func TestNodesWithTagAndPath(t *testing.T) {
	d := MustParseString(`<r><x/><y><x/></y></r>`)
	xs := d.NodesWithTag("x")
	if len(xs) != 2 || xs[0] != 1 || xs[1] != 3 {
		t.Fatalf("NodesWithTag(x) = %v", xs)
	}
	if d.NodesWithTag("zzz") != nil {
		t.Error("missing tag should give nil")
	}
}

func TestTagInterning(t *testing.T) {
	d := MustParseString(`<a><b/><b/><b/></a>`)
	if len(d.tags) != 2 {
		t.Fatalf("%d tags, want 2", len(d.tags))
	}
	tb, ok := d.tagIndex["b"]
	if !ok {
		t.Fatal("tag b missing")
	}
	if d.tags[tb] != "b" {
		t.Fatal("tag name mismatch")
	}
	if _, ok := d.tagIndex["zzz"]; ok {
		t.Fatal("unexpected tag")
	}
}

func TestParseTextAndAttrs(t *testing.T) {
	d := MustParseString(`<item id="7"><name>socks</name><quantity>2</quantity></item>`)
	// Nodes: item, @id, name, quantity.
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	if d.Tag(1) != "@id" || d.Value(1) != "7" {
		t.Errorf("attr node = %q/%q", d.Tag(1), d.Value(1))
	}
	if d.Value(2) != "socks" {
		t.Errorf("Value(name) = %q", d.Value(2))
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range parseErrorInputs {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) should fail", bad)
		}
	}
	// The error names the line it is on.
	_, err := ParseString("<a>\n  <b>\n  </c>\n</a>")
	var se *xml.SyntaxError
	if !errors.As(err, &se) || se.Line != 3 || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("mismatched end tag on line 3: err = %v", err)
	}
}

// parseErrorInputs are inputs every parse must reject.
var parseErrorInputs = []string{"", "<a>", "<a></b>", "not xml at all <", "<a/><b/>"}

// parseEdgeCases are inputs on the edges of what encoding/xml's strict
// decoder accepts; Parse must agree with it on each.
var parseEdgeCases = []string{
	// names and namespaces
	`<p:a q:x="1" xmlns:q="u"><p:b/></p:a>`, `<a:b:c/>`, `<a x:y:z="1"/>`, `<:a a:="1"/>`,
	`<a xmlns="u" xmlns:q="v" q:x="1" y="2" z:xmlns="3"/>`, `<a xmlns:="1" b="2"/>`,
	`<a p:x="1" xmlns:p="xml&#110;s"/>`, `<a><b xmlns:p="xmlns"/><c p:x="1"/></a>`,
	`<a xmlns:p="xmlns"><b xmlns:p="v" p:x="1"/><c p:x="2"/></a>`, `<a xml:lang="en" xmlns:xml="xmlns"/>`,
	`<p:a></a>`, `<a></p:a>`, `<1a/>`, `<-a/>`, `<_a.b-c/>`, `<é/>`, `<a é="1"/>`, "<a\u00b7/>",
	"<\u00b7a/>", `<a:é:b/>`, `<?é:a:b ?><a/>`, "<a\xff/>", `< a/>`, `<a/ >`, `</a>`, `<a/></a>`,
	// attributes
	`<a x="1"y='2'/>`, `<a x=1/>`, `<a x/>`, `<a x="<"/>`, `<a x = '1' />`, `<a x="]]>"/>`, `<a x="1`,
	"<a x='\t\r\n'/>", `<a x="" y="&quot;&apos;"/>`,
	// references
	`<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x41;&#x1F600;</a>`, `<a>&nbsp;</a>`, `<a>&#0;</a>`,
	`<a>&#xD800;</a>`, `<a>&#xFFFE;</a>`, `<a>&#x110000;</a>`, `<a>&#99999999999999999999999;</a>`,
	`<a>&#X41;</a>`, `<a>&lt</a>`, `<a>&#;</a>`, `<a>&#x;</a>`, `<a>&</a>`, `<a>&#32;</a>`, `<a>&#160;</a>`,
	// line ends and characters
	"<a>x\r\ny\rz\r</a>", "<a>\r\n</a>", "<a>&#13;\n</a>", "<a>\x01</a>", "<a>\xff</a>", "<a>\ufffe</a>",
	"<a>\u0085</a>", "<a> </a>", "<a> x </a>", "<a> <b/> </a>", "<a>x<b>y</b>z</a>",
	// CDATA, comments, processing instructions, directives
	`<a>]]></a>`, `<a>]]&gt;]]</a>`, `<a><![CDATA[<&]]]]></a>`, `<a><![CDATA[ ]]>x</a>`, `<a><![CDATA[x`,
	"<a><![CDATA[\r\n\x01]]></a>", `<a><![CDAT[x]]></a>`, `<a><!-- x -- y --></a>`, `<a><!----></a>`,
	`<a><!---></a>`, `<a><!-x--></a>`, `<!-- c --><a/><!-- d -->`, `<a><!--`,
	`<?xml version="1.0" encoding="UTF-8"?><a/>`, `<?xml version="1.1"?><a/>`, `<?xml encoding="latin1"?><a/>`,
	`<?xml version='1.0' encoding='utf-8'?><a/>`, `<?xml version= "1.1"?><a/>`, `<?xml version=1.1 version="2"?><a/>`,
	`<?xml encoding="UtF-8"?><a/>`, `<?xml encoding="?><a/>`, `<?xml-stylesheet version="2"?><a/>`, `<??><a/>`,
	`<a><?pi x?></a>`, `<a><?pi`, `<!DOCTYPE a [<!ENTITY x "y>">]><a/>`, `<!DOCTYPE a [<!-- > --> ]><a/>`,
	`<!><a/>`, `<!'><a/>`, `<!DOCTYPE a <x> ><a/>`, `<!DOCTYPE a <!-x>><a/>`, `<a><!DOCTYPE b></a>`,
	// outside the root
	"x<a/>", "<a/>x", "<a/>&bad;", "\ufeff<a/>", "<a/>\x00", " \n<a/>\n ",
}

// FuzzParseMatchesEncodingXML: on every input either both Parse and the
// encoding/xml front end it replaced reject it, or both build the same
// Document. A plain go test runs it on the edge cases above.
func FuzzParseMatchesEncodingXML(f *testing.F) {
	for _, s := range append(parseEdgeCases, parseErrorInputs...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if msg := parseDiff(s); msg != "" {
			t.Fatal(msg)
		}
	})
}

// parseDiff parses s with ParseString and refParse and describes how the
// results differ, or returns "".
func parseDiff(s string) string {
	got, gerr := ParseString(s)
	want, werr := refParse(strings.NewReader(s))
	switch {
	case (gerr == nil) != (werr == nil):
		return fmt.Sprintf("Parse err = %v, encoding/xml err = %v", gerr, werr)
	case gerr != nil:
		return ""
	case got.Len() != want.Len() || len(got.tags) != len(want.tags):
		return fmt.Sprintf("%d nodes / %d tags, want %d / %d", got.Len(), len(got.tags), want.Len(), len(want.tags))
	}
	for t, name := range want.tags {
		if got.tags[t] != name {
			return fmt.Sprintf("tag %d = %q, want %q", t, got.tags[t], name)
		}
	}
	type nodeView struct {
		Tag                                  TagID
		Value                                string
		Parent, FirstChild, NextSibling, End NodeID
		Level                                int
	}
	view := func(d *Document, n NodeID) nodeView {
		return nodeView{d.TagIDOf(n), d.Value(n), d.Parent(n), d.FirstChild(n), d.NextSibling(n), d.End(n), d.Level(n)}
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := view(got, NodeID(i)), view(want, NodeID(i)); g != w {
			return fmt.Sprintf("node %d: %#v, want %#v", i, g, w)
		}
	}
	return ""
}

// A parsed Document copies every tag and value: none points into the
// bytes it was parsed from.
func TestParsedDocumentOwnsItsStrings(t *testing.T) {
	src := `<r a="v"><b>text &amp; more</b><c><![CDATA[raw]]></c><b>x</b></r>`
	check := func(d *Document, inputs ...[]byte) {
		t.Helper()
		inside := func(s string) bool {
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			for _, in := range inputs {
				lo := uintptr(unsafe.Pointer(unsafe.SliceData(in)))
				if s != "" && lo <= p && p < lo+uintptr(cap(in)) {
					return true
				}
			}
			return false
		}
		for i := 0; i < d.Len(); i++ {
			if n := NodeID(i); inside(d.Tag(n)) || inside(d.Value(n)) {
				t.Errorf("node %d (%s=%q) points into the input", i, d.Tag(n), d.Value(n))
			}
		}
	}
	s := strings.Clone(src)
	check(MustParseString(s), unsafe.Slice(unsafe.StringData(s), len(s)))
	// Parse reads into a buffer of its own; the spy keeps every buffer it
	// is handed, so the bytes read lie in one of them.
	spy := &spyReader{r: strings.NewReader(src)}
	d, err := Parse(spy)
	if err != nil {
		t.Fatal(err)
	}
	check(d, spy.reads...)
}

// TestValueArenaHoldsEachValueOnce parses text interleaved with children,
// where an element's pending text is interrupted by every child's value,
// and checks that the Document keeps each value's bytes once: its text
// grows with the input, not with the square of it.
func TestValueArenaHoldsEachValueOnce(t *testing.T) {
	const n = 10000
	d := MustParseString("<a>" + strings.Repeat("y<b>t</b>", n) + "</a>")
	if got, want := d.Value(0), strings.Repeat("y", n); got != want {
		t.Fatalf("root value has %d bytes, want %d", len(got), len(want))
	}
	total := 0
	for i := 0; i < d.Len(); i++ {
		total += len(d.Value(NodeID(i)))
	}
	if len(d.text) != total || total != 2*n {
		t.Fatalf("arena holds %d bytes for %d bytes of values, want %d", len(d.text), total, 2*n)
	}
	b := NewBuilder()
	b.Begin("a")
	b.Text("x")
	b.Attr("k", "v")
	b.Text("y")
	b.Element("b", "t")
	b.Text("z")
	b.End()
	d = b.MustFinish()
	if d.Value(0) != "xyz" || d.Value(1) != "v" || d.Value(2) != "t" || d.text != "vtxyz" {
		t.Fatalf("values %q %q %q, arena %q", d.Value(0), d.Value(1), d.Value(2), d.text)
	}
}

// spyReader keeps every buffer its Read is handed.
type spyReader struct {
	r     io.Reader
	reads [][]byte
}

func (s *spyReader) Read(p []byte) (int, error) {
	s.reads = append(s.reads, p)
	return s.r.Read(p)
}

func TestParseIgnoresCommentsAndWhitespace(t *testing.T) {
	d := MustParseString("<a>\n  <!-- hi -->\n  <b>x</b>\n</a>")
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Value(0) != "" {
		t.Errorf("root value = %q, want empty", d.Value(0))
	}
}

func TestWriteXMLRoundTrip(t *testing.T) {
	src := `<site lang="en"><regions><africa><item id="1"><name>carved mask</name></item></africa></regions></site>`
	d := MustParseString(src)
	var sb strings.Builder
	if err := d.WriteXML(&sb); err != nil {
		t.Fatal(err)
	}
	d2 := MustParseString(sb.String())
	if d2.Len() != d.Len() {
		t.Fatalf("round trip node count %d != %d", d2.Len(), d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		n := NodeID(i)
		if d.Tag(n) != d2.Tag(n) || d.Value(n) != d2.Value(n) ||
			d.Parent(n) != d2.Parent(n) {
			t.Fatalf("node %d differs after round trip", i)
		}
	}
}

// Attribute values survive WriteXML and ParseString unchanged, escapes and
// characters Go would quote included.
func TestWriteXMLAttrRoundTrip(t *testing.T) {
	for _, v := range []string{`a\b`, "\t", "\r", "\n", "\r\n", `"`, `'`, "<&>", "]]>", "é日本\U0001F600", "\u0085", "\u0080\u009f", "\u00ad\u2028"} {
		b := NewBuilder()
		b.Begin("r")
		b.Attr("k", v)
		b.End()
		var sb strings.Builder
		if err := b.MustFinish().WriteXML(&sb); err != nil {
			t.Fatal(err)
		}
		d, err := ParseString(sb.String())
		if err != nil {
			t.Fatalf("%q written as %s: %v", v, sb.String(), err)
		}
		if got := d.Value(1); got != v {
			t.Errorf("%q written as %s reads back %q", v, sb.String(), got)
		}
	}
}

// TestAppendEscapedMatchesEscapeText checks the writer's escaper against
// encoding/xml's on edge cases and random bytes, invalid UTF-8 included.
func TestAppendEscapedMatchesEscapeText(t *testing.T) {
	same := func(s string) bool {
		var want strings.Builder
		if err := xml.EscapeText(&want, []byte(s)); err != nil {
			t.Fatal(err)
		}
		return string(appendEscaped(nil, s)) == want.String()
	}
	for _, s := range []string{"", "plain", "a<b>&\"'\t\n\r", "\x00\x1f\x7f", "\uFFFD", "\xff", "é\xed\xa0\x80", "\uFFFE\U0010FFFF", "x\xef\xbf"} {
		if !same(s) {
			t.Errorf("%q escapes to %q", s, appendEscaped(nil, s))
		}
	}
	if err := quick.Check(func(b []byte) bool { return same(string(b)) }, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.Begin("a")
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish with open element should fail")
	}

	b2 := NewBuilder()
	if _, err := b2.Finish(); err == nil {
		t.Fatal("Finish on empty builder should fail")
	}
}

func TestBuilderPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("End without Begin", func() { NewBuilder().End() })
	mustPanic("Text without Begin", func() { NewBuilder().Text("x") })
	mustPanic("second root", func() {
		b := NewBuilder()
		b.Element("a", "")
		b.Begin("b")
	})
}

func TestAccessorPanicsOnInvalidNode(t *testing.T) {
	d := MustParseString("<a/>")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Tag(5)
}

// randomDoc builds a random tree with n nodes using rng: elements, some
// with a random value, and attributes ahead of each element's children.
func randomDoc(rng *rand.Rand, n int) *Document {
	b := NewBuilder()
	b.Begin("r")
	open, fresh := 1, true // fresh: the innermost open element has no element child yet
	for i := 1; i < n; i++ {
		if fresh && rng.Intn(4) == 0 {
			b.Attr("k"+string(rune('a'+rng.Intn(3))), randomValue(rng))
			continue
		}
		// Random walk: open a child or close an element (keeping root open).
		for open > 1 && rng.Intn(3) == 0 {
			b.End()
			open--
		}
		b.Begin("t" + string(rune('a'+rng.Intn(5))))
		open, fresh = open+1, true
		if rng.Intn(2) == 0 {
			b.Text(randomValue(rng))
		}
	}
	for ; open > 0; open-- {
		b.End()
	}
	return b.MustFinish()
}

// randomValue draws a non-blank value holding markup characters,
// backslashes, line ends and non-ASCII runes.
func randomValue(rng *rand.Rand) string {
	pieces := []string{"a", "Zz", " ", "<", "&", ">", `"`, "'", `\`, "\r", "\n", "\r\n", "\t", "]]>", "é", "日本", "\u0085", "\U0001F600"}
	var sb strings.Builder
	for k := rng.Intn(6); k >= 0; k-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	if strings.TrimSpace(sb.String()) == "" {
		sb.WriteString("x")
	}
	return sb.String()
}

// Property: preorder invariants hold for random trees — parent < child,
// End consistency, ancestor iff interval containment, and CloseCount sums
// to the node count.
func TestRandomTreeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		d := randomDoc(rng, n)
		if d.Len() != n {
			return false
		}
		closes := 0
		for i := 0; i < n; i++ {
			id := NodeID(i)
			closes += d.CloseCount(id)
			if p := d.Parent(id); p != InvalidNode {
				if p >= id {
					return false
				}
				if d.End(p) < d.End(id) {
					return false
				}
				if d.Level(id) != d.Level(p)+1 {
					return false
				}
			}
			// First child, if any, is id+1.
			if fc := d.FirstChild(id); fc != InvalidNode && fc != id+1 {
				return false
			}
			// Interval containment test against explicit ancestor walk.
			for j := 0; j < n; j += 7 {
				a := NodeID(j)
				walk := false
				for p := d.Parent(id); p != InvalidNode; p = d.Parent(p) {
					if p == a {
						walk = true
						break
					}
				}
				if walk != (a < id && id <= d.End(a)) {
					return false
				}
			}
		}
		return closes == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialization round-trips structure for random trees.
func TestRandomRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDoc(rng, 1+rng.Intn(100))
		var sb strings.Builder
		if err := d.WriteXML(&sb); err != nil {
			return false
		}
		d2, err := ParseString(sb.String())
		if err != nil {
			return false
		}
		if d2.Len() != d.Len() {
			return false
		}
		for i := 0; i < d.Len(); i++ {
			id := NodeID(i)
			if d.Tag(id) != d2.Tag(id) || d.Parent(id) != d2.Parent(id) || d.Value(id) != d2.Value(id) ||
				d.End(id) != d2.End(id) || d.Level(id) != d2.Level(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuilder(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bu := NewBuilder()
		bu.Begin("root")
		for j := 0; j < 1000; j++ {
			bu.Begin("item")
			bu.Element("name", "thing")
			bu.End()
		}
		bu.End()
		bu.MustFinish()
	}
}
