package securexml

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/nok"
	"dolxml/internal/storage"
	"dolxml/internal/wire"
	"dolxml/internal/xmark"
)

var hospitalUsers = []string{"alice", "dave", "betty"}

var hospitalQueries = []string{
	"//patient", "//patient/name", "//billing/amount", "//ward//diagnosis", "/hospital/pharmacy/drug",
	"//patient[name='Cid']/diagnosis", `/hospital/ward[@name='A']/patient`,
}

// testdata/format1 was saved by the commit before sidecar format 2: the
// hospital store with 256-byte pages, store.json in format 1 (one JSON object
// per value ref), and a WAL holding one committed batch — doctors lose ward B
// — that reached neither the page file nor the sidecar, its commit image in
// format 1 too. It must open, replay and answer like a store built now, and
// turn into format 3 with its next commit.
func TestFormat1StoreOpensAndUpgrades(t *testing.T) {
	fx := &recoveryFixture{dir: t.TempDir(), snap: snapshotDir(t, filepath.Join("testdata", "format1"))}
	fx.restore(t)
	sidecar := func() []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(fx.dir, metaFile))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	isFormat1 := func(b []byte) bool {
		return bytes.HasPrefix(b, []byte(`{"format":1,`)) && bytes.Contains(b, []byte(`"value_refs":[{"n":`))
	}
	saved := sidecar()
	if !isFormat1(saved) {
		t.Fatalf("the fixture's sidecar is not format 1: %.80s", saved)
	}

	want := hospitalStore(t, StoreOptions{PageSize: 256})
	defer want.Close()
	wardB := firstNode(t, want, `/hospital/ward[@name='B']`)
	if err := want.SetAccess("doctors", "read", wardB, false, true); err != nil {
		t.Fatal(err)
	}

	s, err := Open(fx.dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ri := s.Recovery(); ri.Redone != 1 || !ri.MetaApplied {
		t.Fatalf("recovery info = %+v, want one redone batch with metadata", ri)
	}
	// Recovery hands the sink the journalled image as it is.
	if replayed := sidecar(); !isFormat1(replayed) || bytes.Equal(replayed, saved) {
		t.Fatalf("after replay the sidecar is not the log's format-1 image: %.80s", replayed)
	}
	if got, want := fingerprint(t, s, hospitalUsers, hospitalQueries), fingerprint(t, want, hospitalUsers, hospitalQueries); got != want {
		t.Fatalf("the format-1 store answers\n%s\nwant\n%s", got, want)
	}

	p1 := firstNode(t, want, `//patient[name='Ann']`)
	for _, st := range []*Store{s, want} {
		if err := st.SetAccess("alice", "read", p1, false, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	upgraded := sidecar()
	if _, _, _, ok := splitEnvelope(upgraded); !ok {
		t.Fatalf("one commit later the sidecar is not format 3: %.80s", upgraded)
	}
	if len(upgraded) >= len(saved) {
		t.Fatalf("format 3 takes %d bytes, format 1 took %d", len(upgraded), len(saved))
	}
	s, err = Open(fx.dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, want := fingerprint(t, s, hospitalUsers, hospitalQueries), fingerprint(t, want, hospitalUsers, hospitalQueries); got != want {
		t.Fatalf("the upgraded store answers\n%s\nwant\n%s", got, want)
	}
	if got := s.MetricsSnapshot().Get("sidecar_bytes"); got != int64(len(upgraded)) {
		t.Fatalf("sidecar_bytes = %d, the file has %d", got, len(upgraded))
	}
}

// A log written before format 3 journals format-2 images. Recovery hands
// the sink the image as it is, the JSON reader opens it, and the next commit
// writes format 3.
func TestFormat2LogReplays(t *testing.T) {
	fx := buildRecoveryFixture(t, 300, 512)
	s, fp, _ := fx.openWithFaults(t)
	// Crash on the first data write: the commit record and its image are
	// durable, nothing else is.
	fp.Arm(storage.Fault{Op: storage.FaultWrite, N: 1})
	target := firstNode(t, s, "/site/regions/africa/item")
	if err := s.SetAccess("staff", "read", target, false, true); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("expected injected fault, got %v", err)
	}
	s.Close()

	// Rewrite the batch's meta record (type 3: a type byte, the blob's
	// length, the blob, a CRC-32 of all three) to carry the image in format 2.
	logPath := filepath.Join(fx.dir, pageFile+walSuffix)
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(log, []byte(envelopeHead)) - 5
	if at < 0 || log[at] != 3 {
		t.Fatal("no meta record with a format-3 image in the log")
	}
	end := at + 5 + int(binary.LittleEndian.Uint32(log[at+1:])) + 4
	ps, err := decodeSidecar(log[at+5 : end-4])
	if err != nil {
		t.Fatal(err)
	}
	img := format2Sidecar(t, ps)
	rec := binary.LittleEndian.AppendUint32([]byte{3}, uint32(len(img)))
	rec = append(rec, img...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	if err := os.WriteFile(logPath, slices.Concat(log[:at], rec, log[end:]), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(fx.dir, StoreOptions{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ri := s.Recovery(); ri.Redone != 1 || !ri.MetaApplied {
		t.Fatalf("recovery info = %+v, want one redone batch with metadata", ri)
	}
	if got, err := os.ReadFile(filepath.Join(fx.dir, metaFile)); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("after replay the sidecar is not the log's format-2 image: %.80s, %v", got, err)
	}
	if ok, err := s.UserAccessible("u", "read", target); err != nil || ok {
		t.Fatalf("the replayed revoke does not hold (accessible=%v, %v)", ok, err)
	}
	if err := s.SetAccess("aux", "read", target, true, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(fx.dir, metaFile)); err != nil || !bytes.HasPrefix(got, []byte(envelopeHead)) {
		t.Fatalf("one commit later the sidecar is not format 3: %.80s, %v", got, err)
	}
}

// A format-3 store.json that is still JSON but not byte for byte what the
// writer emits — re-indented here — misses the direct reader and opens
// through encoding/json, to the same answers.
func TestReindentedSidecarOpens(t *testing.T) {
	dir := t.TempDir()
	s := hospitalStore(t, StoreOptions{PageSize: 256})
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, s, hospitalUsers, hospitalQueries)
	s.Close()
	path := filepath.Join(dir, metaFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := splitEnvelope(indented.Bytes()); ok {
		t.Fatal("the direct reader takes the re-indented sidecar")
	}
	direct, err := decodeSidecar(raw)
	if err != nil {
		t.Fatal(err)
	}
	viaJSON, err := decodeSidecar(indented.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSidecar(viaJSON), encodeSidecar(direct)) || !bytes.Equal(encodeSidecar(direct), raw) {
		t.Fatal("the two readers decode the sidecar differently")
	}
	if err := os.WriteFile(path, indented.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := fingerprint(t, s, hospitalUsers, hospitalQueries); got != want {
		t.Fatalf("the re-indented store answers\n%s\nwant\n%s", got, want)
	}
}

// FuzzSidecarImage hardens the two binary images of a format-3 sidecar:
// arbitrary bytes decode to an error or to a value that encodes to exactly
// those bytes, and never panic — alone or inside an envelope.
func FuzzSidecarImage(f *testing.F) {
	format1, _, err := readMeta(filepath.Join("testdata", "format1"))
	if err != nil {
		f.Fatal(err)
	}
	dir, _ := churnTenant(f, 1, 2, 1500, 512)
	churn, _, err := readMeta(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, ps := range []persistedStore{format1, churn} {
		f.Add(ps.Nok.AppendBinary(nil), storeImage(ps))
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{5, 1, 1, 'a', 2, 0x80, 0x00, 0, 1, 7}, []byte{1, 4, 'r', 'e', 'a', 'd', 0, 0, 0, 0}) // padded varint
	f.Fuzz(func(t *testing.T, nokImg, storeImg []byte) {
		var m nok.Meta
		nokErr := m.UnmarshalBinary(nokImg)
		if nokErr == nil {
			if re := m.AppendBinary(nil); !bytes.Equal(re, nokImg) {
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
	})
}

// encodeSidecar is ps as the canonical format-3 store.json marshalMeta
// writes.
func encodeSidecar(ps persistedStore) []byte {
	return appendEnvelope(nil, ps.PageSize, nil, ps.Nok.AppendBinary(nil), storeImage(ps))
}

// storeImage is ps's store image.
func storeImage(ps persistedStore) []byte {
	return wire.AppendBytes(appendStoreHead(nil, ps.Modes, ps.Dir), ps.Codebook)
}

// format2Sidecar is ps as sidecar format 2 wrote it: every field in JSON,
// the value refs one packed string in the nok object.
func format2Sidecar(t *testing.T, ps persistedStore) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Format   int                   `json:"format"`
		PageSize int                   `json:"page_size"`
		Modes    []string              `json:"modes"`
		Dir      acl.DirectorySnapshot `json:"directory"`
		Nok      nok.Meta              `json:"nok"`
		Codebook []byte                `json:"codebook"`
	}{2, ps.PageSize, ps.Modes, ps.Dir, ps.Nok, ps.Codebook})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// setValueRefs replaces the value refs in dir's format-3 sidecar. refs is
// JSON: format 1's array or format 2's packed string. The packed blob is
// spliced into the nok image as it is, so refs that do not decode reach
// Open too; a string that is not base64 makes the nok image's text not
// base64 either.
func setValueRefs(t *testing.T, dir string, refs []byte) {
	t.Helper()
	path := filepath.Join(dir, metaFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pageSize, nokB64, storeB64, ok := splitEnvelope(raw)
	if !ok {
		t.Fatalf("not a format-3 sidecar: %.80s", raw)
	}
	img, err := base64.StdEncoding.DecodeString(string(nokB64))
	if err != nil {
		t.Fatal(err)
	}
	// The image opens with the node count, the tags and the refs' blob.
	r := wire.NewReader(img)
	r.Int()
	for n := r.Len(); n > 0; n-- {
		r.Bytes()
	}
	head := img[:len(img)-r.Left()]
	r.Bytes()
	if r.Err() != nil {
		t.Fatal("the nok image does not open with its head")
	}
	tail := img[len(img)-r.Left():]

	var decoded nok.ValueRefs
	if json.Unmarshal(refs, &decoded) == nil {
		if refs, err = json.Marshal(decoded); err != nil {
			t.Fatal(err)
		}
	}
	var packed string
	if err := json.Unmarshal(refs, &packed); err != nil {
		t.Fatal(err)
	}
	blob, err := base64.StdEncoding.DecodeString(packed)
	text := base64.StdEncoding.EncodeToString(append(wire.AppendBytes(slices.Clone(head), blob), tail...))
	if err != nil {
		text = "*" + text
	}
	storeImg, err := base64.StdEncoding.DecodeString(string(storeB64))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, appendEnvelope(nil, pageSize, []byte(text), nil, storeImg), 0o644); err != nil {
		t.Fatal(err)
	}
}

// A sidecar whose value refs point outside the document, a page or the value
// pages used to panic the index build inside Open (a length of 60000 sliced a
// 4096-byte frame). In either format it is now a corrupt-metadata error.
func TestOpenRejectsCorruptValueRefs(t *testing.T) {
	dir := t.TempDir()
	s := hospitalStore(t, StoreOptions{PageSize: 256})
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	s.Close()
	good, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	// The hospital store: 25 nodes, structure on page 0, values on page 1.
	const head = `[{"n":2,"p":1,"o":0,"l":1},`
	cases := []struct{ name, refs string }{
		{"length past the page", head + `{"n":4,"p":1,"o":1,"l":60000}]`},
		{"offset plus length wrapping", head + `{"n":4,"p":1,"o":65535,"l":2}]`},
		{"node past the document", head + `{"n":25,"p":1,"o":1,"l":2}]`},
		{"nodes out of order", head + `{"n":1,"p":1,"o":1,"l":2}]`},
		{"node twice", head + `{"n":2,"p":1,"o":1,"l":2}]`},
		{"value on a structure page", head + `{"n":4,"p":0,"o":1,"l":2}]`},
	}
	for _, c := range cases {
		// The same refs in format 1's array and packed as format 2 has them.
		var refs nok.ValueRefs
		if err := json.Unmarshal([]byte(c.refs), &refs); err != nil {
			t.Fatal(err)
		}
		packed, err := json.Marshal(refs)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct{ name, refs string }{c.name + ", packed", string(packed)})
	}
	cases = append(cases,
		struct{ name, refs string }{"blob cut short", `"AgIAAQQAAQ=="`},
		struct{ name, refs string }{"bytes after the last ref", `"AgIAAQQAAQIA"`},
		struct{ name, refs string }{"not base64", `"AgIA*Q=="`})
	for _, c := range cases {
		setValueRefs(t, dir, []byte(c.refs))
		st, err := Open(dir, StoreOptions{})
		if err == nil {
			st.Close()
			t.Errorf("%s: the store opened", c.name)
		} else if !strings.HasPrefix(err.Error(), "securexml: corrupt metadata: ") {
			t.Errorf("%s: %v, want a corrupt-metadata error", c.name, err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), good, 0o644); err != nil {
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
	refs := st.Meta().ValueRefs
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
