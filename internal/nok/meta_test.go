package nok

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// What a ref says is checked against the document, the page size and the
// structure pages.
func TestMetaValidateRejectsBadRefs(t *testing.T) {
	good := Meta{NumNodes: 10, StructurePages: []storage.PageID{0, 5}, ValueRefs: refsOf([]valueRef{{1, 1, 0, 8}, {3, 1, 8, 248}, {9, 2, 0, 1}})}
	if _, err := good.checkValueRefs(256, 8); err != nil {
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
		{"negative node", 0, valueRef{-1, 1, 0, 8}, "is malformed"}, // no image holds one
		{"node past the document", 2, valueRef{10, 2, 0, 1}, "node 10 of 10"},
		{"length past the page", 1, valueRef{3, 1, 8, 249}, "256-byte page"},
		{"offset and length wrapping uint16", 1, valueRef{3, 1, 65535, 2}, "256-byte page"},
		{"empty value", 1, valueRef{3, 1, 8, 0}, "256-byte page"},
		{"structure page", 2, valueRef{9, 5, 0, 1}, "structure page"},
		{"page past the file", 2, valueRef{9, 8, 0, 1}, "past the end of a 8-page file"},
	} {
		m := good
		refs := slices.Clone(good.ValueRefs.All())
		refs[c.at] = c.ref
		m.ValueRefs = refsOf(refs)
		if _, err := m.checkValueRefs(256, 8); err == nil || !strings.Contains(err.Error(), c.want) {
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

// A store opened from an image keeps its value refs packed until a value is
// read; frozen clones share the one unpacking, whichever reads first, and an
// edit installs refs of its own, which the clones do not see. Run it with
// -race.
func TestValueRefsUnpackAtFirstRead(t *testing.T) {
	b := xmltree.NewBuilder()
	b.Begin("r")
	for i := 0; i < 40; i++ {
		b.Element("x", fmt.Sprintf("value-%d", i))
	}
	b.End()
	doc := b.MustFinish()
	s := buildStore(t, doc, 128, BuildOptions{StoreValues: true})
	m := s.Meta()
	var back Meta
	if err := back.UnmarshalBinary(m.AppendTail(m.AppendHead(nil))); err != nil {
		t.Fatal(err)
	}
	s, err := Open(s.pool, back)
	if err != nil {
		t.Fatal(err)
	}
	vs := s.Values()
	if vs.refs.im.unpacked.Load() || vs.NumValues() != 40 {
		t.Fatalf("opened with %d refs, unpacked %v", vs.NumValues(), vs.refs.im.unpacked.Load())
	}
	if _, err := vs.ValuesCtx(context.Background(), nil); err != nil || vs.refs.im.unpacked.Load() {
		t.Fatalf("asking for no value unpacked the refs (%v)", err)
	}
	// The first reads race: the live store's and two clones', each with
	// the gauge read beside them.
	frozen := s.Freeze()
	var wg sync.WaitGroup
	for g, st := range []*Store{s, frozen, s.Freeze(), frozen} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := xmltree.NodeID(1 + g)
			if vals, err := st.Values().ValuesCtx(context.Background(), []xmltree.NodeID{n}); err != nil || vals[0] != fmt.Sprintf("value-%d", g) {
				t.Errorf("reader %d reads %q (%v) at node %d", g, vals, err, n)
			}
			if st.Values().Bytes() <= 0 {
				t.Errorf("reader %d: no bytes held", g)
			}
		}()
	}
	wg.Wait()
	if !vs.refs.im.unpacked.Load() || frozen.Values().refs.im != vs.refs.im {
		t.Fatal("the clones' reads did not unpack the refs they share")
	}
	if img := vs.refs.image(); !bytes.Equal(img, packValueRefs(vs.refs.All())) {
		t.Fatal("the image kept differs from the refs unpacked, packed again")
	}
	vs.DeleteRange(1, 1)
	if v, _ := vs.Value(1); v != "value-1" || frozen.Values().refs.im.list[0].Node != 1 {
		t.Fatalf("after deleting node 1 the store reads %q at node 1, and the clone's first ref is node %d", v, frozen.Values().refs.im.list[0].Node)
	}
}
