package nok

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
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
// accept, the same slots, and the offset marks a splice takes must be the
// entry offsets the reference decoder saw.
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
		ref, refMarks, refErr := refDecodeBlock(pi, data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decodeBlock says %v, the reference decoder %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(blk, ref) {
			t.Fatalf("decoded %+v, the reference decoder %+v", blk, ref)
		}
		if marks := offsetMarks(data[headerSize:headerSize+int(binary.LittleEndian.Uint16(data[10:12]))], pi.Count); !slices.Equal(marks, refMarks) {
			t.Fatalf("offset marks %v, the reference decoder's %v", marks, refMarks)
		}
		if len(blk) != pi.Count {
			t.Fatalf("decoded %d entries under a directory record of %d", len(blk), pi.Count)
		}
		ic := newIndexCheck(pi)
		for j := range blk {
			if !ic.step(&blk[j]) {
				t.Fatal(ic.fail(pi, j, &blk[j]))
			}
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
// must either fail to unpack or be exactly the packing of the refs they
// unpack to, and the packed check Open runs must accept them exactly when
// they unpack to refs that are sorted, inside the document, inside their
// pages and inside the page file; a checked image unpacks lazily to the
// same refs.
func FuzzValueRefs(f *testing.F) {
	f.Add([]byte{})
	f.Add(packValueRefs([]valueRef{{2, 1, 0, 1}, {4, 1, 1, 2}, {5, 7, 0, 300}, {9, 3, 4000, 96}}))
	f.Add(packValueRefs([]valueRef{{7, 9, 0, 4}, {3, 2, 0, 4}})) // nodes descend
	f.Add(packValueRefs([]valueRef{{1, 2, 4000, 97}}))           // runs off its page
	f.Add(packValueRefs([]valueRef{{1, 6, 0, 4}}))               // on a structure page
	f.Add([]byte{0x02, 0x02, 0x00})                              // cut short
	f.Add([]byte{0x02, 0x02, 0x00, 0x81, 0x00})                  // padded varint
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0, 0, 1})
	f.Add(packValueRefs([]valueRef{{1, 1, 0, 1}, {2, 1, 65535, 0}, {70000, 1 << 20, 300, 65535}})) // long varints
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := refUnpack(data)
		if got, err := unpackValueRefs(data, 0); (err == nil) != (wantErr == nil) || !slices.Equal(got, want) {
			t.Fatalf("%x unpacks to %v (%v), the reference decoder's %v (%v)", data, got, err, want, wantErr)
		}
		m := Meta{NumNodes: 1 << 20, StructurePages: []storage.PageID{0, 6}, ValueRefs: ValueRefs{&refImage{packed: data}}}
		served, checked := m.checkValueRefs(4096, 1<<16)
		if checked != nil && !errors.Is(checked, ErrValueRef) {
			t.Fatalf("%x: the packed check fails with %v, which wraps no ErrValueRef", data, checked)
		}
		refs, err := unpackValueRefs(data, 0)
		if err != nil {
			if checked == nil {
				t.Fatalf("%x does not unpack (%v), yet passed the packed check", data, err)
			}
			return
		}
		if re := packValueRefs(refs); !bytes.Equal(re, data) {
			t.Fatalf("%x decodes to %v, which packs to %x", data, refs, re)
		}
		valid := true
		prev := xmltree.NodeID(-1)
		for _, r := range refs {
			if r.Node <= prev || int(r.Node) >= m.NumNodes || r.Len == 0 || int(r.Off)+int(r.Len) > 4096 || r.Page == 0 || r.Page == 6 || r.Page >= 1<<16 {
				valid = false
				break
			}
			prev = r.Node
		}
		if valid != (checked == nil) {
			t.Fatalf("%x unpacks to %v, valid %v, but the packed check says %v", data, refs, valid, checked)
		}
		if lazy := served.All(); valid && !slices.Equal(lazy, refs) {
			t.Fatalf("%x unpacks lazily to %v, at once to %v", data, lazy, refs)
		}
	})
}

// refUnpack is the byte-at-a-time decoder of packed value refs that
// scanRefs replaced, the reference it is held to.
func refUnpack(blob []byte) ([]valueRef, error) {
	var refs []valueRef
	var node, page int64
	for len(blob) > 0 {
		var f [4]uint64
		for i := range f {
			v, n := binary.Uvarint(blob)
			if n <= 0 || n > 1 && blob[n-1] == 0 {
				return nil, errors.New("malformed")
			}
			f[i], blob = v, blob[n:]
		}
		node += int64(f[0]>>1) ^ -int64(f[0]&1)
		page += int64(f[1]>>1) ^ -int64(f[1]&1)
		if node < 0 || node > math.MaxInt32 || page < 0 || page > math.MaxUint32 || f[2] > math.MaxUint16 || f[3] > math.MaxUint16 {
			return nil, errors.New("malformed")
		}
		refs = append(refs, valueRef{xmltree.NodeID(node), storage.PageID(page), uint16(f[2]), uint16(f[3])})
	}
	return refs, nil
}

// FuzzRecodeSplice holds the splice against laying the block out again on
// a document, its codes and a recode decoded from the fuzz bytes: each byte
// of data is one element — tag a–d in its low two bits, its code in force in
// the next two, and in the high four how many elements close after it — and
// block, from and span pick the range, whose codes edit maps as an ACL edit
// maps them (old code c becomes edit's nibble c). The spliced store must
// hold the relayout's bytes, and its decode cache a decode of them
// (checkTwins).
func FuzzRecodeSplice(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0x16, 0x27, 0x08, 0x19, 0x1a, 0x2b}, false, uint16(0), uint16(1), uint16(3), uint32(0x3210))
	f.Add([]byte{0x00, 0x04, 0x04, 0x18, 0x0c, 0x1d, 0x02, 0x23, 0x11, 0x06}, true, uint16(1), uint16(0), uint16(9), uint32(0x1111))
	f.Add(bytes.Repeat([]byte{0x01, 0x15, 0x0a, 0x2e}, 60), true, uint16(2), uint16(5), uint16(40), uint32(0x2301))
	f.Fuzz(func(t *testing.T, data []byte, small bool, block, from, span uint16, edit uint32) {
		if len(data) == 0 || len(data) > 4000 {
			return
		}
		b := xmltree.NewBuilder()
		codes := make(arrayCodes, len(data))
		depth := 0
		for k, c := range data {
			b.Begin(string(rune('a' + c&3)))
			depth++
			codes[k] = uint32(c >> 2 & 3)
			// The root closes last, with everything still open.
			closes := min(int(c>>4), depth-1)
			if k == len(data)-1 {
				closes = depth
			}
			for ; closes > 0; closes-- {
				b.End()
				depth--
			}
		}
		doc := b.MustFinish()
		pageSize := storage.DefaultPageSize
		if small {
			pageSize = 64
		}
		sa, sb := recodeTwins(t, doc, codes, pageSize)
		i := int(block) % sa.NumPages()
		pi := sa.PageInfoAt(i)
		lo := int(from) % pi.Count
		_, old, err := sa.AppendEntries(nil, nil, i, lo, lo+1+int(span)%(pi.Count-lo))
		if err != nil {
			t.Fatal(err)
		}
		for k, c := range old {
			old[k] = edit >> (4 * (c & 7)) & 0xF
		}
		applyRecode(t, sa, sb, i, lo, old)
		checkTwins(t, sa, sb, i)
	})
}

// The walk's index check names what it refused: an entry indexed at
// another level or code, or an entry that closes below the root.
func TestIndexCheckNamesTheFault(t *testing.T) {
	pi := PageInfo{Page: 7, StartDepth: 1, AccessCode: 3}
	for _, c := range []struct {
		name string
		blk  []slot
		want string
	}{
		{"level", []slot{{tag: 1, code: 3, level: 2, cf: 2}}, "entry 0 indexed at level 2 code 3, recomputed 1 and 3"},
		{"code", []slot{{tag: 1, code: 3, level: 1}, {tag: 1, code: 4, level: 2, cf: 2}}, "entry 1 indexed at level 2 code 4, recomputed 2 and 3"},
		{"below the root", []slot{{tag: 1, code: 3, level: 1, cf: 3 << 1}}, "closes below the root"},
	} {
		ic, err := newIndexCheck(pi), error(nil)
		for j := range c.blk {
			if !ic.step(&c.blk[j]) {
				err = ic.fail(pi, j, &c.blk[j])
				break
			}
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
