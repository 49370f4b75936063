package securexml

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"dolxml/internal/nok"
	"dolxml/internal/storage"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
)

// churnTenant saves a store directory the way benchmark/inputs.go builds a
// tenant: an XMark document of about the given size, 8 groups and 24 users,
// a seeded burst of subtree revokes shared between correlated groups,
// Vacuum, Save, a clean Close. It returns the directory and a Qval query
// whose literal is drawn from the document.
func churnTenant(tb testing.TB, docSeed, seed int64, nodes, pageSize int) (dir, qval string) {
	tb.Helper()
	var xb strings.Builder
	if err := xmark.Generate(xmark.Scaled(docSeed, nodes)).WriteXML(&xb); err != nil {
		tb.Fatal(err)
	}
	doc, err := xmltree.ParseString(xb.String())
	if err != nil {
		tb.Fatal(err)
	}
	b := NewBuilder().LoadXMLString(xb.String())
	for g := 0; g < 8; g++ {
		b.AddGroup(fmt.Sprintf("g%d", g)).Grant(fmt.Sprintf("g%d", g), "read", "/site")
	}
	b.AddGroup("gw")
	rng := rand.New(rand.NewSource(seed))
	for u := 0; u < 24; u++ {
		b.AddUser(fmt.Sprintf("u%02d", u)).AddMember(fmt.Sprintf("g%d", u%8), fmt.Sprintf("u%02d", u))
		if rng.Intn(2) == 0 {
			b.AddMember(fmt.Sprintf("g%d", (u%8+1+rng.Intn(7))%8), fmt.Sprintf("u%02d", u))
		}
	}
	st, err := b.Seal(StoreOptions{PageSize: pageSize})
	if err != nil {
		tb.Fatal(err)
	}
	var roots []xmltree.NodeID
	for _, tag := range []string{"item", "person", "open_auction", "closed_auction", "category", "listitem"} {
		roots = append(roots, doc.NodesWithTag(tag)...)
	}
	for n := max(doc.Len()*4/100, 300); n > 0; n-- {
		node, g := NodeID(roots[rng.Intn(len(roots))]), rng.Intn(8)
		if err := st.SetAccess(fmt.Sprintf("g%d", g), "read", node, false, true); err != nil {
			tb.Fatal(err)
		}
		if rng.Intn(5) < 3 {
			if err := st.SetAccess(fmt.Sprintf("g%d", g^1), "read", node, false, true); err != nil {
				tb.Fatal(err)
			}
			n--
		}
	}
	if err := st.Vacuum(); err != nil {
		tb.Fatal(err)
	}
	dir = tb.TempDir()
	if err := st.Save(dir); err != nil {
		tb.Fatal(err)
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	emails := doc.NodesWithTag("emailaddress")
	if len(emails) == 0 {
		tb.Fatal("no emailaddress to draw the Qval literal from")
	}
	return dir, fmt.Sprintf("/site/people/person[emailaddress='%s']/name", doc.Value(emails[rng.Intn(len(emails))]))
}

// BenchmarkOpen sizes a tenant fault: Open of a tenant_churn-sized store
// (benchmark/main.go's churnNodes) alone, Open plus the first Qval (the one
// request shape that builds a value run), and readMeta alone (reading and
// decoding store.json). ns/op is the mean; the best and the median are
// reported beside it. Run with -benchtime 200x.
func BenchmarkOpen(b *testing.B) {
	dir, qval := churnTenant(b, 0, 5000, 3600, 4096)
	for _, bc := range []struct {
		name string
		run  func() (*Store, error)
	}{
		{"open", func() (*Store, error) { return Open(dir, StoreOptions{}) }},
		{"open+Qval", func() (*Store, error) {
			s, err := Open(dir, StoreOptions{})
			if err == nil {
				_, err = s.Query("u00", "read", qval)
			}
			return s, err
		}},
		{"readMeta", func() (*Store, error) { _, _, err := readMeta(dir); return nil, err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			times := make([]time.Duration, 0, b.N)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				s, err := bc.run()
				times = append(times, time.Since(start))
				if err != nil {
					b.Fatal(err)
				}
				if s != nil {
					b.StopTimer()
					if err := s.Close(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
			slices.Sort(times)
			b.ReportMetric(float64(times[0].Microseconds())/1e3, "best-ms")
			b.ReportMetric(float64(times[len(times)/2].Microseconds())/1e3, "median-ms")
		})
	}
}

// Open reads each structure page twice — its header into the directory, its
// body in the one scan that checks the store, rebuilds the path summary and
// yields the tag runs — decodes each block once, and reads no value page.
func TestOpenScansEachBlockOnce(t *testing.T) {
	dir, qval := churnTenant(t, 3, 11, 3600, 256)
	s, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blocks := int64(s.cur.Load().st.NumPages())
	if blocks < 20 {
		t.Fatalf("only %d blocks: the document is too small to tell", blocks)
	}
	ps := s.pool.Stats()
	if ps.Gets != 2*blocks || ps.Misses != blocks || s.pool.Pinned() != 0 {
		t.Fatalf("Open made %d pool Gets with %d misses and left %d frames pinned, want %d, %d (no value page) and 0",
			ps.Gets, ps.Misses, s.pool.Pinned(), 2*blocks, blocks)
	}
	if dc := s.DecodeCacheStats(); dc.Misses != blocks || dc.Hits != 0 {
		t.Fatalf("Open decoded %d blocks and found %d decoded, want %d and 0", dc.Misses, dc.Hits, blocks)
	}
	// The indexes were born from that scan: a query builds nothing.
	if ms, err := s.Query("u00", "read", "//listitem//keyword"); err != nil || len(ms) == 0 {
		t.Fatalf("Q5 after Open: %d answers, %v", len(ms), err)
	}
	if ms, err := s.QueryUnrestricted(qval); err != nil || len(ms) != 1 {
		t.Fatalf("Qval after Open: %d answers, %v", len(ms), err)
	}
}

// entryAt returns the offset and length of entry j of a block's body and
// whether it carries an inline code (see nok's entry encoding).
func entryAt(t *testing.T, page []byte, j int) (off, n int, hasCode bool) {
	t.Helper()
	off = 17
	for ; ; j-- {
		head, a := binary.Uvarint(page[off:])
		_, b := binary.Uvarint(page[off+a:])
		n, hasCode = a+b, head&1 != 0
		if hasCode {
			_, c := binary.Uvarint(page[off+n:])
			n += c
		}
		if a <= 0 || b <= 0 {
			t.Fatalf("entry at offset %d does not parse", off)
		}
		if j == 0 {
			return off, n, hasCode
		}
		off += n
	}
}

// Every check the parent's Open made in three passes (nok.Open's rebuild,
// CheckConsistency, the extent pass) the one scan still makes: each
// corruption of the page file or the sidecar fails Open with an error of
// the layer that found it, none panics, and a rejected store leaves neither
// its page file nor its log open.
func TestOpenRejectsCorruptStores(t *testing.T) {
	const pageSize = 256
	dir, _ := churnTenant(t, 3, 12, 3600, pageSize)
	fx := &recoveryFixture{dir: dir, snap: snapshotDir(t, dir)}
	var meta struct {
		Nok nok.Meta `json:"nok"`
	}
	if err := json.Unmarshal(fx.snap[metaFile], &meta); err != nil {
		t.Fatal(err)
	}
	pages := meta.Nok.StructurePages
	// page hands edit one structure block's bytes; sidecar, the decoded
	// sidecar, which it writes back in format 3.
	page := func(i int, edit func(p []byte) []byte) func() {
		return func() {
			t.Helper()
			path := filepath.Join(dir, pageFile)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			off := int(pages[i]) * pageSize
			copy(raw[off:off+pageSize], edit(slices.Clone(raw[off:off+pageSize])))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	sidecar := func(edit func(ps *persistedStore)) func() {
		return func() {
			t.Helper()
			ps, err := decodeSidecar(fx.snap[metaFile])
			if err != nil {
				t.Fatal(err)
			}
			edit(&ps)
			if err := os.WriteFile(filepath.Join(dir, metaFile), encodeSidecar(ps), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	add16 := func(off int, d int) func([]byte) []byte {
		return func(p []byte) []byte {
			binary.LittleEndian.PutUint16(p[off:], uint16(int(binary.LittleEndian.Uint16(p[off:]))+d))
			return p
		}
	}
	mid, last := len(pages)/2, len(pages)-1
	// roomy is a block, not the first, with a spare byte after its entries.
	roomy := slices.IndexFunc(pages[1:], func(pid storage.PageID) bool {
		p := fx.snap[pageFile][int(pid)*pageSize:]
		return int(binary.LittleEndian.Uint16(p[10:])) < pageSize-17
	}) + 1
	if roomy == 0 {
		t.Fatal("every block is full to the byte")
	}
	cases := []struct {
		name    string
		corrupt func()
		want    string
		early   bool // rejected before the page file opens
	}{
		{"stale header count", page(mid, add16(8, -1)), "nok: blocks cover", false},
		{"wrong MinDepth", page(mid, add16(6, 1)), "MinDepth", false},
		{"flipped change bit", page(mid, func(p []byte) []byte { p[16] ^= 1; return p }), "change bit", false},
		{"wrong StartDepth", page(mid, add16(4, 1)), "carry-over", false},
		{"first block below the root", page(0, add16(4, 1)), "carry-over", false},
		{"tag code out of range", sidecar(func(ps *persistedStore) {
			ps.Nok.Tags = ps.Nok.Tags[:1]
		}), "unknown tag", false},
		{"inline code on a block's first entry", page(roomy, func(p []byte) []byte {
			off, n, hasCode := entryAt(t, p, 0)
			if hasCode || p[off] >= 0x80 {
				t.Fatal("the block's first entry does not lend itself")
			}
			// Set the transition flag and slip a code in after the close count.
			q := append(slices.Clone(p[:off+n]), 1)
			q[off] |= 1
			q = append(q, p[off+n:pageSize-1]...)
			return add16(10, 1)(q)
		}), "inline code", false},
		{"document ending at depth 1", page(last, func(p []byte) []byte {
			off, n, hasCode := entryAt(t, p, int(binary.LittleEndian.Uint16(p[8:]))-1)
			if hasCode || n != 2 || p[off+1] < 2 {
				t.Fatal("the document's last entry does not lend itself")
			}
			p[off+1]--
			return p
		}), "ends at depth 1", false},
		{"persisted path summary that disagrees", sidecar(func(ps *persistedStore) {
			ps.Nok.PathSummary.Parents[len(ps.Nok.PathSummary.Parents)-1] = 0
		}), "path summary", false},
		{"value on a page past the end of the page file", sidecar(func(ps *persistedStore) {
			refs := slices.Clone(ps.Nok.ValueRefs)
			if len(refs) == 0 {
				t.Fatal("no value refs")
			}
			refs[len(refs)-1].Page = storage.PageID(len(fx.snap[pageFile])/pageSize + 3)
			ps.Nok.ValueRefs = refs
		}), "securexml: corrupt metadata", false},
		{"node count beyond the blocks", sidecar(func(ps *persistedStore) {
			ps.Nok.NumNodes = 1000000000000
		}), "nok: blocks cover", false},
		// Nothing is opened for a sidecar that does not decode.
		{"store image that is not base64", func() {
			_, _, storeB64, _ := splitEnvelope(fx.snap[metaFile])
			raw := bytes.Replace(fx.snap[metaFile], storeB64, []byte("!"), 1)
			if err := os.WriteFile(filepath.Join(dir, metaFile), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "securexml: corrupt metadata", true},
		{"codebook that does not parse", sidecar(func(ps *persistedStore) {
			ps.Codebook = []byte{0xff}
		}), "corrupt codebook", false},
		{"directory of uneven lengths", sidecar(func(ps *persistedStore) {
			ps.Dir.IsGroup = nil
		}), "corrupt directory", false},
		{"a mode the codebook has no columns for", sidecar(func(ps *persistedStore) {
			ps.Modes = append(ps.Modes, "extra")
		}), "codebook covers", false},
	}
	var opened, closed int
	opts := StoreOptions{
		WrapPager: func(p storage.Pager) storage.Pager {
			opened++
			return &closeCountingPager{Pager: p, closed: &closed}
		},
		WrapWALFile: func(f storage.File) storage.File {
			opened++
			return &closeCountingFile{File: f, closed: &closed}
		},
	}
	for _, c := range cases {
		fx.restore(t)
		c.corrupt()
		opened, closed = 0, 0
		s, err := Open(dir, opts)
		want := 2
		if c.early {
			want = 0
		}
		if opened != want || closed != want {
			t.Errorf("%s: Open opened %d files and closed %d, want %d and %d", c.name, opened, closed, want, want)
		}
		switch {
		case err == nil:
			s.Close()
			t.Errorf("%s: the store opened", c.name)
		case !strings.HasPrefix(err.Error(), "nok: ") && !strings.HasPrefix(err.Error(), "securexml: "):
			t.Errorf("%s: %v, want a nok: or securexml: error", c.name, err)
		case !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: %v, want the %q check to fire", c.name, err, c.want)
		}
	}
	fx.restore(t)
	s, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("the untouched store: %v", err)
	}
	s.Close()
}

// closeCountingPager and closeCountingFile count the Closes that reach the
// page file and the log.
type closeCountingPager struct {
	storage.Pager
	closed *int
}

func (p *closeCountingPager) Close() error { *p.closed++; return p.Pager.Close() }

type closeCountingFile struct {
	storage.File
	closed *int
}

func (f *closeCountingFile) Close() error { *f.closed++; return f.File.Close() }

// countingFile counts what recovery does to the log.
type countingFile struct {
	storage.File
	truncates, syncs int
}

func (f *countingFile) Truncate(size int64) error { f.truncates++; return f.File.Truncate(size) }
func (f *countingFile) Sync() error               { f.syncs++; return f.File.Sync() }

// Opening a cleanly closed store leaves its log alone; a log that holds
// anything beyond its header — a torn tail, an uncommitted batch, a
// committed batch not yet applied — is still truncated and synced.
func TestCleanLogOpenNeitherTruncatesNorSyncs(t *testing.T) {
	fx := buildRecoveryFixture(t, 1500, 512)
	open := func(what string) (*Store, *countingFile) {
		t.Helper()
		var cf *countingFile
		s, err := Open(fx.dir, StoreOptions{PoolPages: 64, WrapWALFile: func(f storage.File) storage.File {
			cf = &countingFile{File: f}
			return cf
		}})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return s, cf
	}
	s, cf := open("clean log")
	if cf.truncates != 0 || cf.syncs != 0 || s.Recovery() != (storage.RecoveryInfo{}) {
		t.Fatalf("opening a clean log: %d truncates, %d syncs, recovery %+v; want none", cf.truncates, cf.syncs, s.Recovery())
	}
	if got := answerFingerprint(t, s); got != fx.pre {
		t.Fatal("the reopened store answers differently")
	}
	// A crash after the commit record is durable and before any data page
	// is written leaves a committed, unapplied batch behind.
	s.Close()
	s, fp, _ := fx.openWithFaults(t)
	fp.Arm(storage.Fault{Op: storage.FaultWrite, N: 1})
	if err := s.SetAccess("staff", "read", firstNode(t, s, "//item"), false, true); err == nil {
		t.Fatal("the update survived its injected fault")
	}
	s.Close()
	committed, err := os.ReadFile(filepath.Join(fx.dir, pageFile+walSuffix))
	if err != nil {
		t.Fatal(err)
	}
	logs := []struct {
		name string
		log  []byte
		want storage.RecoveryInfo
	}{
		{"committed-unapplied batch", committed, storage.RecoveryInfo{Redone: 1, MetaApplied: true}},
		{"uncommitted batch", committed[:len(committed)-21], storage.RecoveryInfo{Discarded: true}},
		{"torn tail", append(slices.Clone(fx.snap[pageFile+walSuffix]), 1, 2, 3), storage.RecoveryInfo{Discarded: true}},
	}
	for _, l := range logs {
		fx.restore(t)
		if err := os.WriteFile(filepath.Join(fx.dir, pageFile+walSuffix), l.log, 0o644); err != nil {
			t.Fatal(err)
		}
		s, cf := open(l.name)
		if cf.truncates == 0 || cf.syncs == 0 || s.Recovery() != l.want {
			t.Errorf("%s: %d truncates, %d syncs, recovery %+v; want some of each and %+v", l.name, cf.truncates, cf.syncs, s.Recovery(), l.want)
		}
		s.Close()
	}
}
