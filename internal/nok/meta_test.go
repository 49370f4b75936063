package nok

import (
	"strings"
	"testing"

	"dolxml/internal/storage"
)

// What a ref says is checked against the document, the page size and the
// structure pages.
func TestMetaValidateRejectsBadRefs(t *testing.T) {
	good := Meta{NumNodes: 10, StructurePages: []storage.PageID{0, 5}, ValueRefs: ValueRefs{{1, 1, 0, 8}, {3, 1, 8, 248}, {9, 2, 0, 1}}}
	if err := good.CheckValueRefs(256, 8); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		at   int
		ref  valueRef
		want string
	}{
		{"node repeated", 1, valueRef{1, 1, 8, 8}, "does not follow"},
		{"node out of order", 2, valueRef{2, 2, 0, 1}, "does not follow"},
		{"negative node", 0, valueRef{-1, 1, 0, 8}, "does not follow"},
		{"node past the document", 2, valueRef{10, 2, 0, 1}, "node 10 of 10"},
		{"length past the page", 1, valueRef{3, 1, 8, 249}, "256-byte page"},
		{"offset and length wrapping uint16", 1, valueRef{3, 1, 65535, 2}, "256-byte page"},
		{"empty value", 1, valueRef{3, 1, 8, 0}, "256-byte page"},
		{"structure page", 2, valueRef{9, 5, 0, 1}, "structure page"},
		{"page past the file", 2, valueRef{9, 8, 0, 1}, "past the end of a 8-page file"},
	} {
		m := good
		m.ValueRefs = append(ValueRefs(nil), good.ValueRefs...)
		m.ValueRefs[c.at] = c.ref
		if err := m.CheckValueRefs(256, 8); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error naming %q", c.name, err, c.want)
		}
		pager := storage.NewMemPager(256)
		for pager.NumPages() < 8 {
			if _, err := pager.Allocate(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Open(storage.NewBufferPool(pager, 8), m); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Open: %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
