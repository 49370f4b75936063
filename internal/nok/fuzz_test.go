package nok

import (
	"bytes"
	"testing"

	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// FuzzDecodeEntry hardens the block entry decoder against corrupt pages:
// arbitrary bytes must either fail cleanly or decode to an entry that
// re-encodes within the consumed length.
func FuzzDecodeEntry(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendEntry(nil, Entry{Tag: 5, CloseCount: 3}))
	f.Add(appendEntry(nil, Entry{Tag: 1 << 20, CloseCount: 1, HasCode: true, Code: 77}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, n, err := decodeEntry(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decoded %d bytes of %d", n, len(data))
		}
		re := appendEntry(nil, e)
		if len(re) > n {
			// Re-encoding may be shorter (non-canonical varints) but
			// never longer than what was consumed.
			t.Fatalf("entry %+v re-encodes to %d bytes, consumed %d", e, len(re), n)
		}
	})
}

// FuzzDecodeBlock hardens the block decoder against torn and corrupt
// pages: arbitrary page bytes under an arbitrary directory record must
// either fail cleanly or decode to a block whose positional index passes
// CheckConsistency's recomputation and whose lookups stay in range.
func FuzzDecodeBlock(f *testing.F) {
	page := func(pi PageInfo, es ...Entry) []byte {
		data := make([]byte, 128)
		body := data[headerSize:headerSize]
		for _, e := range es {
			body = appendEntry(body, e)
		}
		pi.Count = len(es)
		writeHeader(data, pi, len(body))
		return data
	}
	good := page(PageInfo{StartDepth: 1, MinDepth: 1, AccessCode: 3},
		Entry{Tag: 1}, Entry{Tag: 2, CloseCount: 1}, Entry{Tag: 2, CloseCount: 2, HasCode: true, Code: 9}, Entry{Tag: 1, CloseCount: 1})
	f.Add(good, uint16(4), uint16(1), uint32(3))
	f.Add(good, uint16(5), uint16(1), uint32(3))
	f.Add(good[:20], uint16(4), uint16(1), uint32(3))
	f.Add(page(PageInfo{}, Entry{Tag: 0, CloseCount: 7}), uint16(1), uint16(0), uint32(0))
	torn := append([]byte(nil), good...)
	torn[10], torn[11] = 0xFF, 0xFF
	f.Add(torn, uint16(4), uint16(1), uint32(3))
	f.Fuzz(func(t *testing.T, data []byte, count, startDepth uint16, code uint32) {
		pi := PageInfo{Count: int(count), StartDepth: startDepth, AccessCode: code}
		blk, err := decodeBlock(pi, data)
		if err != nil {
			return
		}
		if len(blk) != pi.Count {
			t.Fatalf("decoded %d entries under a directory record of %d", len(blk), pi.Count)
		}
		if _, _, _, err := checkIndex(pi, blk); err != nil {
			t.Fatal(err)
		}
		for j := range blk {
			if next := int(blk[j].next); next <= j || next > len(blk) {
				t.Fatalf("entry %d of %d has successor offset %d", j, len(blk), next)
			}
		}
		if j := firstUpTo(blk, int(startDepth)); len(blk) > 0 && j != 0 {
			t.Fatalf("first entry at level ≤ the start depth is %d, want 0", j)
		}
	})
}

// FuzzValueRefs hardens the sidecar's packed value refs: arbitrary bytes
// must either fail to decode or to validate, or be exactly the packing of
// refs that are sorted, inside the document and inside their pages.
func FuzzValueRefs(f *testing.F) {
	f.Add([]byte{})
	f.Add(packValueRefs([]valueRef{{2, 1, 0, 1}, {4, 1, 1, 2}, {5, 7, 0, 300}, {9, 3, 4000, 96}}))
	f.Add(packValueRefs([]valueRef{{7, 9, 0, 4}, {3, 2, 0, 4}})) // nodes descend
	f.Add(packValueRefs([]valueRef{{1, 2, 4000, 97}}))           // runs off its page
	f.Add(packValueRefs([]valueRef{{1, 6, 0, 4}}))               // on a structure page
	f.Add([]byte{0x02, 0x02, 0x00})                              // cut short
	f.Add([]byte{0x02, 0x02, 0x00, 0x81, 0x00})                  // padded varint
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		refs, err := unpackValueRefs(data)
		if err != nil {
			return
		}
		if re := packValueRefs(refs); !bytes.Equal(re, data) {
			t.Fatalf("%x decodes to %v, which packs to %x", data, refs, re)
		}
		m := Meta{NumNodes: 1 << 20, StructurePages: []storage.PageID{0, 6}, ValueRefs: refs}
		if m.CheckValueRefs(4096) != nil {
			return
		}
		prev := xmltree.NodeID(-1)
		for i, r := range refs {
			if r.Node <= prev || int(r.Node) >= m.NumNodes || r.Len == 0 || int(r.Off)+int(r.Len) > 4096 || r.Page == 0 || r.Page == 6 {
				t.Fatalf("ref %d = %+v after node %d passed validation", i, r, prev)
			}
			prev = r.Node
		}
	})
}
