package xmltree_test

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
)

// warmReadXML is the serialized document of the benchmark's warm_read
// tenant.
var warmReadXML = sync.OnceValue(func() string {
	var sb strings.Builder
	if err := xmark.Generate(xmark.Scaled(0, 20000)).WriteXML(&sb); err != nil {
		panic(err)
	}
	return sb.String()
})

func BenchmarkParse(b *testing.B) {
	src := warmReadXML()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.ParseString(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteXML(b *testing.B) {
	src := warmReadXML()
	doc := xmltree.MustParseString(src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := doc.WriteXML(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// markupXML is a document of the kind the scanner hands to encoding/xml:
// every record holds a comment and a CDATA section, and half the names
// are non-ASCII.
var markupXML = sync.OnceValue(func() string {
	var sb strings.Builder
	sb.WriteString(`<?xml version="1.0" encoding="UTF-8"?><库>`)
	for i := range 5000 {
		fmt.Fprintf(&sb, "<記録 id=\"%d\"><!-- record %d --><名前><![CDATA[name <%d> & co]]></名前><note>plain text %d</note></記録>\n", i, i, i, i)
	}
	sb.WriteString(`</库>`)
	return sb.String()
})

func BenchmarkParseMarkup(b *testing.B) {
	src := markupXML()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.ParseString(src); err != nil {
			b.Fatal(err)
		}
	}
}
