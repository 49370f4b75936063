package nok

import (
	"bytes"
	"slices"
	"testing"

	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// entryPage wraps body as the body of a block of count entries that starts
// deep enough (level 0x8000, under code 7) for any close count a test writes.
func entryPage(count int, body []byte) (PageInfo, []byte) {
	pi := PageInfo{Count: count, StartDepth: 0x8000, AccessCode: 7}
	data := make([]byte, headerSize+len(body))
	copy(data[headerSize:], body)
	writeHeader(data, pi, len(body))
	return pi, data
}

// FuzzDecodeEntry hardens the entry decoding inside decodeBlock against
// corrupt pages: arbitrary bytes as the body of a one-entry page must be
// accepted exactly when the reference entry decoder takes all of them as
// one entry that keeps the level in range, and then index as that entry.
func FuzzDecodeEntry(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendEntry(nil, Entry{Tag: 5, CloseCount: 3}))
	f.Add(appendEntry(nil, Entry{Tag: 1 << 20, CloseCount: 1, HasCode: true, Code: 77}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	for _, c := range badEntries {
		f.Add(c.body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0x8000 {
			return
		}
		pi, page := entryPage(1, data)
		blk, err := decodeBlock(pi, page)
		e, n, refErr := decodeEntry(data)
		level := int(pi.StartDepth) + 1 - e.CloseCount
		want := refErr == nil && n == len(data) && level >= 0 && level <= 0xFFFF
		if (err == nil) != want {
			t.Fatalf("body %x: decodeBlock says %v; the reference decodes %+v from %d bytes, %v", data, err, e, n, refErr)
		}
		if err != nil {
			return
		}
		code := pi.AccessCode
		if e.HasCode {
			code = e.Code
		}
		if got := blk[0]; got.entry() != e || got.code != code || got.level != pi.StartDepth || got.next != 1 {
			t.Fatalf("body %x indexed as %+v, entry %+v", data, got, e)
		}
	})
}

// FuzzDecodeBlock hardens the block decoder against torn and corrupt
// pages: arbitrary page bytes under an arbitrary directory record must
// either fail cleanly or decode to a block whose positional index passes
// CheckConsistency's recomputation and whose lookups stay in range — and
// the per-entry reference decoder must reach the same verdict and, on
// accept, the same slots.
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
		ref, refErr := refDecodeBlock(pi, data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decodeBlock says %v, the reference decoder %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(blk, ref) {
			t.Fatalf("decoded %+v, the reference decoder %+v", blk, ref)
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
// refs that are sorted, inside the document, inside their pages and inside
// the page file.
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
		if m.CheckValueRefs(4096, 1<<16) != nil {
			return
		}
		prev := xmltree.NodeID(-1)
		for i, r := range refs {
			if r.Node <= prev || int(r.Node) >= m.NumNodes || r.Len == 0 || int(r.Off)+int(r.Len) > 4096 || r.Page == 0 || r.Page == 6 || r.Page >= 1<<16 {
				t.Fatalf("ref %d = %+v after node %d passed validation", i, r, prev)
			}
			prev = r.Node
		}
	})
}
