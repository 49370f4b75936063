package nok

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dolxml/internal/storage"
)

// Both sidecar formats decode to the same refs, and what is written is the
// packed one.
func TestValueRefsJSONFormats(t *testing.T) {
	refs := ValueRefs{{2, 1, 0, 1}, {4, 1, 1, 2}, {5, 7, 0, 300}, {9, 3, 4000, 96}}
	const format1 = `[{"n":2,"p":1,"o":0,"l":1},{"n":4,"p":1,"o":1,"l":2},{"n":5,"p":7,"o":0,"l":300},{"n":9,"p":3,"o":4000,"l":96}]`
	packed, err := json.Marshal(refs)
	if err != nil {
		t.Fatal(err)
	}
	if packed[0] != '"' || len(packed) >= len(format1)/3 {
		t.Fatalf("packed form is %s", packed)
	}
	for _, in := range []string{format1, string(packed)} {
		var got ValueRefs
		if err := json.Unmarshal([]byte(in), &got); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if !reflect.DeepEqual(got, refs) {
			t.Fatalf("%s decoded to %v, want %v", in, got, refs)
		}
	}
	var m Meta
	if err := json.Unmarshal([]byte(`{"num_nodes":3,"value_refs":null}`), &m); err != nil || m.ValueRefs != nil {
		t.Fatalf("null refs: %v, %v", m.ValueRefs, err)
	}
	for _, bad := range []string{
		`7`, `{}`, `"!!!!"`, `"AgIAAQ"`, // not a string or array, not base64, unpadded
		`"AgIA"`,                          // a ref cut short
		`"AgIAAYAA"`,                      // a padded varint
		`[{"n":2,"p":1,"o":0,"l":70000}]`, // length beyond uint16
		`[{"n":2,"p":-1,"o":0,"l":1}]`,
	} {
		var got ValueRefs
		if err := json.Unmarshal([]byte(bad), &got); err == nil {
			t.Errorf("%s decoded to %v", bad, got)
		}
	}
}

// What a ref says is checked against the document, the page size and the
// structure pages, whichever format it came in.
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
