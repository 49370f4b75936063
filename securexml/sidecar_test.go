package securexml

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dolxml/internal/nok"
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
// turn into format 2 with its next commit.
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
	if !bytes.HasPrefix(upgraded, []byte(`{"format":2,`)) || !bytes.Contains(upgraded, []byte(`"value_refs":"`)) {
		t.Fatalf("one commit later the sidecar is not format 2: %.80s", upgraded)
	}
	if len(upgraded) >= len(saved) {
		t.Fatalf("format 2 takes %d bytes, format 1 took %d", len(upgraded), len(saved))
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

// setValueRefs replaces nok.value_refs in dir's sidecar with the given JSON.
func setValueRefs(t *testing.T, dir string, refs []byte) {
	t.Helper()
	path := filepath.Join(dir, metaFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var top, nk map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["nok"], &nk); err != nil {
		t.Fatal(err)
	}
	nk["value_refs"] = refs
	if top["nok"], err = json.Marshal(nk); err != nil {
		t.Fatal(err)
	}
	if raw, err = json.Marshal(top); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
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
