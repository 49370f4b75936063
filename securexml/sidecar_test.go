package securexml

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/nok"
	"dolxml/internal/pathsum"
	"dolxml/internal/wire"
	"dolxml/internal/xmark"
)

// FuzzSidecarImage hardens store.json and the two binary images inside it:
// arbitrary bytes decode to an error or to a value that encodes to exactly
// those bytes, and never panic — each image alone, inside an envelope, and
// as a whole file. The seeds are two current stores and the forms no writer
// emits any more (retiredSidecars, retiredNokImages, retiredCodebooks).
func FuzzSidecarImage(f *testing.F) {
	var small persistedStore // the retired forms are made from the smaller store
	for _, nodes := range []int{1500, 300} {
		dir, _ := churnTenant(f, 1, 2, nodes, 512)
		ps, _, err := readMeta(dir)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(nokImage(&ps.Nok), storeImage(ps), encodeSidecar(ps))
		small = ps
	}
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add([]byte{5, 1, 1, 'a', 2, 0x80, 0x00, 1, 0, 0, 0, 0, 0, 1, 7}, []byte{1, 4, 'r', 'e', 'a', 'd', 0, 0, 0, 0}, []byte(nil)) // padded varint
	for _, file := range retiredSidecars(f, small) {
		f.Add([]byte(nil), []byte(nil), file)
	}
	for _, img := range retiredNokImages(small) {
		f.Add(img, storeImage(small), []byte(nil))
	}
	for _, cb := range retiredCodebooks(small.Codebook) {
		ps := small
		ps.Codebook = cb
		f.Add(nokImage(&small.Nok), storeImage(ps), encodeSidecar(ps))
	}
	f.Fuzz(func(t *testing.T, nokImg, storeImg, file []byte) {
		var m nok.Meta
		nokErr := m.UnmarshalBinary(nokImg)
		if nokErr == nil {
			if re := nokImage(&m); !bytes.Equal(re, nokImg) {
				t.Fatalf("nok image %x decodes to %+v, which encodes to %x", nokImg, m, re)
			}
		}
		var ps persistedStore
		storeErr := ps.readStoreImage(storeImg)
		if storeErr == nil {
			if re := storeImage(ps); !bytes.Equal(re, storeImg) {
				t.Fatalf("store image %x decodes to %+v, which encodes to %x", storeImg, ps, re)
			}
		}
		_, err := decodeSidecar(appendEnvelope(nil, 4096, nil, nokImg, storeImg))
		if (err == nil) != (nokErr == nil && storeErr == nil) {
			t.Fatalf("the envelope decodes with %v; its images with %v and %v", err, nokErr, storeErr)
		}
		if ps, err := decodeSidecar(file); err == nil {
			if re := encodeSidecar(ps); !bytes.Equal(re, file) {
				t.Fatalf("store.json %q decodes to a store whose store.json is %q", file, re)
			}
		}
	})
}

// encodeSidecar is ps as the canonical format-4 store.json marshalMeta
// writes.
func encodeSidecar(ps persistedStore) []byte {
	return appendEnvelope(nil, ps.PageSize, nil, nokImage(&ps.Nok), storeImage(ps))
}

// nokImage is m's nok image, as marshalMeta writes it.
func nokImage(m *nok.Meta) []byte { return m.AppendTail(m.AppendHead(nil)) }

// storeImage is ps's store image.
func storeImage(ps persistedStore) []byte {
	return wire.AppendBytes(appendStoreHead(nil, ps.Modes, ps.Dir), ps.Codebook)
}

// retiredSidecars are ps's store.json in the forms readers once took and no
// writer emits: format 1 (the whole store spelled out in JSON, one object
// per value ref), format 2 (format 1 with the value refs one packed base64
// string), the format-3 envelope, whose codebook could hold dense rows, and
// format 4 re-indented.
func retiredSidecars(tb testing.TB, ps persistedStore) map[string][]byte {
	tb.Helper()
	type block struct {
		S int32 `json:"s"`
	}
	type ref struct {
		N int64 `json:"n"`
		P int64 `json:"p"`
		O int64 `json:"o"`
		L int64 `json:"l"`
	}
	sum := ps.Nok.PathSummary
	blocks := make([]block, len(sum.Blocks))
	for i, b := range sum.Blocks {
		blocks[i].S = b.Start
	}
	refs := make([]ref, len(ps.Nok.ValueRefs.All()))
	packed := make([][4]int64, len(refs))
	for i, r := range ps.Nok.ValueRefs.All() {
		refs[i] = ref{int64(r.Node), int64(r.Page), int64(r.Off), int64(r.Len)}
		packed[i] = [4]int64{refs[i].N, refs[i].P, refs[i].O, refs[i].L}
	}
	type summary struct {
		T []int32  `json:"t"`
		P []int32  `json:"p"`
		M []uint8  `json:"m"`
		C []uint32 `json:"c"`
		B []block  `json:"b"`
	}
	type nokMeta struct {
		NumNodes       int      `json:"num_nodes"`
		Tags           []string `json:"tags"`
		StructurePages []uint32 `json:"structure_pages"`
		PathSummary    summary  `json:"path_summary"`
		ValueRefs      any      `json:"value_refs"`
	}
	type directory struct {
		Names    []string          `json:"names"`
		IsGroup  []bool            `json:"is_group"`
		MemberOf [][]acl.SubjectID `json:"member_of"`
	}
	out := map[string][]byte{}
	for format, valueRefs := range map[int]any{1: refs, 2: packRefs(packed...)} {
		pages := make([]uint32, len(ps.Nok.StructurePages))
		for i, p := range ps.Nok.StructurePages {
			pages[i] = uint32(p)
		}
		b, err := json.Marshal(struct {
			Format   int       `json:"format"`
			PageSize int       `json:"page_size"`
			Modes    []string  `json:"modes"`
			Dir      directory `json:"directory"`
			Nok      nokMeta   `json:"nok"`
			Codebook []byte    `json:"codebook"`
		}{format, ps.PageSize, ps.Modes, directory(ps.Dir),
			nokMeta{ps.Nok.NumNodes, ps.Nok.Tags, pages, summary{sum.Tags, sum.Parents, sum.Modes, sum.Codes, blocks}, valueRefs},
			ps.Codebook})
		if err != nil {
			tb.Fatal(err)
		}
		out[fmt.Sprintf("format %d", format)] = b
	}
	out["format 3"] = bytes.Replace(encodeSidecar(ps), []byte(`{"format":4,`), []byte(`{"format":3,`), 1)
	var indented bytes.Buffer
	if err := json.Indent(&indented, encodeSidecar(ps), "", "  "); err != nil {
		tb.Fatal(err)
	}
	out["format 4 re-indented"] = indented.Bytes()
	return out
}

// retiredNokImages are ps's nok image in the forms readers once took and no
// writer emits: with no path summary (its flag 0) and with the summary's
// first block carrying a class word.
func retiredNokImages(ps persistedStore) map[string][]byte {
	head := ps.Nok.AppendHead(nil)
	img := nokImage(&ps.Nok)
	sum := ps.Nok.PathSummary.AppendBinary(nil)
	noSummary := slices.Concat(head, []byte{0}, img[len(head)+1+len(sum):])
	// The blocks follow the tag and parent columns: their count, then the
	// first block's start and its word count, 0.
	cols := (&pathsum.Meta{Tags: ps.Nok.PathSummary.Tags, Parents: ps.Nok.PathSummary.Parents}).AppendBinary(nil)
	at := len(head) + 1 + len(cols) - 3
	for range 2 {
		_, n := binary.Uvarint(img[at:])
		at += n
	}
	words := slices.Concat(img[:at], []byte{1, 7}, img[at+1:])
	return map[string][]byte{"no path summary": noSummary, "class words": words}
}

// retiredCodebooks are codebook blobs in the framings no writer emits, made
// from the blob cb: the version-2 framing (its magic, then cb's body), cb
// with its first row's header 2 or 3, which no row can have, and cb with its
// first row dense, under the header that was its byte count (a 4-byte bit
// count, then its words).
func retiredCodebooks(cb []byte) map[string][]byte {
	ns, a := binary.Uvarint(cb)
	_, b := binary.Uvarint(cb[a:])
	out := map[string][]byte{"v2 magic": append(binary.AppendUvarint(nil, 1<<62+2), cb...)}
	for _, h := range []byte{2, 3} {
		out[fmt.Sprintf("row header %d", h)] = slices.Concat(cb[:a+b], []byte{h}, cb[a+b+1:])
	}
	if runs, refs, err := bitset.DecodeRuns(nil, cb[a+b+1:], uint32(ns)); cb[a+b] == 1 && err == nil {
		row, words := bitset.FromRuns(int(ns), runs), int(ns+63)/64
		dense := binary.AppendUvarint(nil, uint64(4+8*words))
		dense = binary.LittleEndian.AppendUint32(dense, uint32(ns))
		for w := 0; w < words; w++ {
			var word uint64
			for i := 0; i < 64; i++ {
				if row.Test(64*w + i) {
					word |= 1 << i
				}
			}
			dense = binary.LittleEndian.AppendUint64(dense, word)
		}
		out["dense row"] = slices.Concat(cb[:a+b], dense, refs)
	}
	return out
}

// duplicateRow returns the codebook blob cb with a copy of its first slot
// appended as one more, so two live slots hold one row: an image no writer
// emits.
func duplicateRow(t *testing.T, cb []byte) []byte {
	t.Helper()
	ns, a := binary.Uvarint(cb)
	count, b := binary.Uvarint(cb[a:])
	rows := cb[a+b:]
	if rows[0] != 1 {
		t.Fatal("the first slot is freed")
	}
	_, rest, err := bitset.DecodeRuns(nil, rows[1:], uint32(ns))
	if err != nil {
		t.Fatal(err)
	}
	n := len(rows) - len(rest)
	_, r := binary.Uvarint(rows[n:])
	return slices.Concat(cb[:a], binary.AppendUvarint(nil, count+1), rows, rows[:n+r])
}

// packRefs packs value refs, each {node, page, offset, length}, as the nok
// image holds them: per ref the zigzag varint deltas of its node and its
// page from the ref before, then its offset and its length as uvarints.
func packRefs(refs ...[4]int64) []byte {
	var b []byte
	var prev [4]int64
	for _, r := range refs {
		b = binary.AppendVarint(b, r[0]-prev[0])
		b = binary.AppendVarint(b, r[1]-prev[1])
		b = binary.AppendUvarint(b, uint64(r[2]))
		b = binary.AppendUvarint(b, uint64(r[3]))
		prev = r
	}
	return b
}

// setValueRefs replaces the packed value refs in dir's sidecar with blob,
// as it is, so refs that do not decode reach Open too.
func setValueRefs(t *testing.T, dir string, blob []byte) {
	t.Helper()
	path := filepath.Join(dir, metaFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := decodeSidecar(raw)
	if err != nil {
		t.Fatal(err)
	}
	ps.Nok = withValueRefs(t, ps.Nok, blob)
	if err := os.WriteFile(path, encodeSidecar(ps), 0o644); err != nil {
		t.Fatal(err)
	}
}

// withValueRefs returns m with blob, as it is, for its packed value refs.
func withValueRefs(t *testing.T, m nok.Meta, blob []byte) nok.Meta {
	t.Helper()
	// The image's head is the node count, the tags and the refs' blob.
	head := m.AppendHead(nil)
	r := wire.NewReader(head)
	r.Int()
	for n := r.Len(); n > 0; n-- {
		r.Bytes()
	}
	refs := r.Bytes()
	if r.Done() != nil {
		t.Fatal("the nok image's head does not end with the refs' blob")
	}
	head = head[:len(head)-len(wire.AppendBytes(nil, refs))]
	var out nok.Meta
	if err := out.UnmarshalBinary(slices.Concat(wire.AppendBytes(head, blob), m.AppendTail(nil))); err != nil {
		t.Fatal(err)
	}
	return out
}

// A sidecar whose value refs point outside the document, a page or the value
// pages used to panic the index build inside Open (a length of 60000 sliced a
// 4096-byte frame). It is now a corrupt-metadata error, as are refs that do
// not decode and a nok image that is not base64. Open finds each in the
// packed refs it checks, though it unpacks none: the error comes from Open,
// not from the first query that reads a value.
func TestOpenRejectsCorruptValueRefs(t *testing.T) {
	dir := t.TempDir()
	s := hospitalStore(t, StoreOptions{PageSize: 256})
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, metaFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	open := func(name string) {
		t.Helper()
		st, err := Open(dir, StoreOptions{})
		if err == nil {
			st.Close()
			t.Errorf("%s: the store opened", name)
		} else if !strings.HasPrefix(err.Error(), "securexml: corrupt metadata: ") {
			t.Errorf("%s: %v, want a corrupt-metadata error", name, err)
		}
	}
	// The hospital store: 25 nodes, structure on page 0, values on page 1.
	first := [4]int64{2, 1, 0, 1}
	for _, c := range []struct {
		name string
		blob []byte
	}{
		{"length past the page", packRefs(first, [4]int64{4, 1, 1, 60000})},
		{"offset plus length wrapping", packRefs(first, [4]int64{4, 1, 65535, 2})},
		{"node past the document", packRefs(first, [4]int64{25, 1, 1, 2})},
		{"nodes out of order", packRefs(first, [4]int64{1, 1, 1, 2})},
		{"node twice", packRefs(first, [4]int64{2, 1, 1, 2})},
		{"value on a structure page", packRefs(first, [4]int64{4, 0, 1, 2})},
		{"value of no bytes", packRefs(first, [4]int64{4, 1, 1, 0})},
		{"value on a page past the file", packRefs(first, [4]int64{4, 1000, 0, 1})},
		{"value on a page below zero", packRefs(first, [4]int64{4, -2, 0, 1})},
		{"offset past 16 bits", packRefs(first, [4]int64{4, 1, 70000, 1})},
		{"blob cut short", []byte{2, 2, 0, 1, 4, 0, 1}},
		{"blob cut inside a varint", []byte{2, 2, 0, 1, 4, 0, 0x81}},
		{"bytes after the last ref", []byte{2, 2, 0, 1, 4, 0, 1, 2, 0}},
		{"a padded varint", []byte{4, 2, 0, 0x81, 0x00}},
	} {
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
		setValueRefs(t, dir, c.blob)
		open(c.name)
	}
	_, nokB64, _, _ := splitEnvelope(good)
	if err := os.WriteFile(path, bytes.Replace(good, nokB64, append([]byte("*"), nokB64...), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	open("not base64")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("the untouched sidecar: %v", err)
	}
	st.Close()
}

// The index build reads every structure block once and no value page; a
// tag's value run reads the value pages of that tag's nodes once each — the
// values come a page at a time, not one lookup per node — and only once.
func TestIndexBuildReadsEachValuePageOnce(t *testing.T) {
	var xb strings.Builder
	if err := xmark.Generate(xmark.Scaled(5, 1500)).WriteXML(&xb); err != nil {
		t.Fatal(err)
	}
	s, err := NewBuilder().LoadXMLString(xb.String()).AddUser("u").Grant("u", "read", "/site").Seal(StoreOptions{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.cur.Load().st
	gets := func(what string, do func() error, want int) {
		t.Helper()
		before := s.pool.Stats().Gets
		if err := do(); err != nil {
			t.Fatal(err)
		}
		if got := s.pool.Stats().Gets - before; got != int64(want) || s.pool.Pinned() != 0 {
			t.Fatalf("%s made %d pool Gets and left %d frames pinned, want %d and 0", what, got, s.pool.Pinned(), want)
		}
	}
	ix := newIndexState(nil)
	gets("the index build", func() error { return ix.ensure(st, nil) }, st.NumPages())
	refs := st.Meta().ValueRefs.All()
	total := 0
	for _, tag := range []string{"emailaddress", "name", "text", "site"} {
		code, ok := st.LookupTag(tag)
		if !ok {
			t.Fatalf("no tag %q", tag)
		}
		ps, _ := ix.index.Postings(code)
		ofTag := map[NodeID]bool{}
		for _, p := range ps {
			ofTag[NodeID(p.Node)] = true
		}
		pages := map[uint32]bool{}
		for _, r := range refs {
			if ofTag[NodeID(r.Node)] {
				pages[uint32(r.Page)] = true
			}
		}
		total += len(pages)
		lookup := func() error { _, err := ix.vindex.ValuePostings(code, "no such value"); return err }
		gets("the first lookup of "+tag, lookup, len(pages))
		gets("the second lookup of "+tag, lookup, 0)
	}
	if total < 10 {
		t.Fatalf("only %d value pages read: the document is too small to tell", total)
	}
}
