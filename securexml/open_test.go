package securexml

import (
	"bytes"
	"context"
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
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// churnTenant saves a store directory the way benchmark/inputs.go builds a
// tenant: an XMark document of about the given size, 8 groups and 24 users,
// a seeded burst of subtree revokes shared between correlated groups,
// Vacuum, Save, a clean Close. It returns the directory and a Qval query
// whose literal is drawn from the document.
func churnTenant(tb testing.TB, docSeed, seed int64, nodes, pageSize int) (dir, qval string) {
	tb.Helper()
	st, doc, rng := churnSeal(tb, docSeed, seed, nodes, pageSize)
	churnBurst(tb, st, doc, rng)
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

// churnSeal seals churnTenant's store in memory, before its burst, and
// returns it with the document and the generator the burst draws from.
func churnSeal(tb testing.TB, docSeed, seed int64, nodes, pageSize int) (*Store, *xmltree.Document, *rand.Rand) {
	tb.Helper()
	xml := churnXML(tb, docSeed, nodes)
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	st, err := churnBuilder(xml, rng).Seal(StoreOptions{PageSize: pageSize})
	if err != nil {
		tb.Fatal(err)
	}
	return st, doc, rng
}

// churnXML is the XMark document of churnTenant's tenants.
func churnXML(tb testing.TB, docSeed int64, nodes int) string {
	tb.Helper()
	var xb strings.Builder
	if err := xmark.Generate(xmark.Scaled(docSeed, nodes)).WriteXML(&xb); err != nil {
		tb.Fatal(err)
	}
	return xb.String()
}

// churnBuilder loads xml with churnTenant's subjects: 8 groups granted read
// on /site, a writer group, and 24 users, each in one group and, drawn from
// rng, half of them in a second one.
func churnBuilder(xml string, rng *rand.Rand) *Builder {
	b := NewBuilder().LoadXMLString(xml)
	for g := 0; g < 8; g++ {
		b.AddGroup(fmt.Sprintf("g%d", g)).Grant(fmt.Sprintf("g%d", g), "read", "/site")
	}
	b.AddGroup("gw")
	for u := 0; u < 24; u++ {
		b.AddUser(fmt.Sprintf("u%02d", u)).AddMember(fmt.Sprintf("g%d", u%8), fmt.Sprintf("u%02d", u))
		if rng.Intn(2) == 0 {
			b.AddMember(fmt.Sprintf("g%d", (u%8+1+rng.Intn(7))%8), fmt.Sprintf("u%02d", u))
		}
	}
	return b
}

// churnBurst runs churnTenant's burst on st — 4 subtree revokes per 100
// nodes, at least 300, shared between correlated groups more often than
// not — and returns the number of SetAccess calls it made.
func churnBurst(tb testing.TB, st *Store, doc *xmltree.Document, rng *rand.Rand) int {
	tb.Helper()
	var roots []xmltree.NodeID
	for _, tag := range []string{"item", "person", "open_auction", "closed_auction", "category", "listitem"} {
		roots = append(roots, doc.NodesWithTag(tag)...)
	}
	calls := 0
	for n := max(doc.Len()*4/100, 300); n > 0; n-- {
		node, g := NodeID(roots[rng.Intn(len(roots))]), rng.Intn(8)
		if err := st.SetAccess(fmt.Sprintf("g%d", g), "read", node, false, true); err != nil {
			tb.Fatal(err)
		}
		calls++
		if rng.Intn(5) < 3 {
			if err := st.SetAccess(fmt.Sprintf("g%d", g^1), "read", node, false, true); err != nil {
				tb.Fatal(err)
			}
			calls++
			n--
		}
	}
	return calls
}

// BenchmarkOpen sizes a tenant fault: Open of a tenant_churn-sized store
// (benchmark/main.go's churnNodes) alone, Open plus the first Qval (the one
// request shape that builds a value run), readMeta alone (reading and
// decoding store.json), and fault: what a registry eviction costs, the
// Close of the store opened before — which answered a query, as a visit
// does — plus the next Open. ns/op is the mean; the best and the median are
// reported beside it, and for fault the Close half's best and median too.
// Run with -benchtime 200x.
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
				_, err = s.QueryCtx(context.Background(), "u00", "read", qval, QueryOptions{})
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
			reportBestMedian(b, times, "", "ms")
		})
	}
	b.Run("fault", func(b *testing.B) {
		visit := func(s *Store) {
			if _, err := s.QueryCtx(context.Background(), "u00", "read", "//listitem//keyword", QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		prev, err := Open(dir, StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		visit(prev)
		b.StartTimer()
		times, closes := make([]time.Duration, 0, b.N), make([]time.Duration, 0, b.N)
		for i := 0; i < b.N; i++ {
			start := time.Now()
			err := prev.Close()
			closed := time.Now()
			if err == nil {
				prev, err = Open(dir, StoreOptions{})
			}
			times, closes = append(times, time.Since(start)), append(closes, closed.Sub(start))
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			visit(prev)
			b.StartTimer()
		}
		b.StopTimer()
		if err := prev.Close(); err != nil {
			b.Fatal(err)
		}
		reportBestMedian(b, times, "", "ms")
		reportBestMedian(b, closes, "close-", "us")
	})
}

// reportBestMedian reports the best and the median of times as
// <prefix>best-<unit> and <prefix>median-<unit>, unit "ms" or "us".
func reportBestMedian(b *testing.B, times []time.Duration, prefix, unit string) {
	per := 1.0
	if unit == "ms" {
		per = 1e3
	}
	slices.Sort(times)
	b.ReportMetric(float64(times[0].Microseconds())/per, prefix+"best-"+unit)
	b.ReportMetric(float64(times[len(times)/2].Microseconds())/per, prefix+"median-"+unit)
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
	if ms, err := s.QueryCtx(context.Background(), "u00", "read", "//listitem//keyword", QueryOptions{}); err != nil || len(ms) == 0 {
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
	img := readDir(t, dir)
	// Decoded as the benchmark's open ladder decodes it.
	var meta struct {
		Nok nok.Meta `json:"nok"`
	}
	if err := json.Unmarshal(img[metaFile], &meta); err != nil {
		t.Fatal(err)
	}
	pages := meta.Nok.StructurePages
	// page hands edit one structure block's bytes; file writes store.json;
	// sidecar hands edit the decoded sidecar, which it writes back.
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
	ps, err := decodeSidecar(img[metaFile])
	if err != nil {
		t.Fatal(err)
	}
	file := func(b []byte) func() {
		return func() {
			t.Helper()
			if err := os.WriteFile(filepath.Join(dir, metaFile), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	sidecar := func(edit func(ps *persistedStore)) func() {
		return func() {
			t.Helper()
			ps, err := decodeSidecar(img[metaFile])
			if err != nil {
				t.Fatal(err)
			}
			edit(&ps)
			file(encodeSidecar(ps))()
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
		p := img[pageFile][int(pid)*pageSize:]
		return int(binary.LittleEndian.Uint16(p[10:])) < pageSize-17
	}) + 1
	if roomy == 0 {
		t.Fatal("every block is full to the byte")
	}
	type caseT struct {
		name    string
		corrupt func()
		want    string
		early   bool // rejected before the page file opens
	}
	cases := []caseT{
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
		{"persisted block start that disagrees", sidecar(func(ps *persistedStore) {
			// Every block but the first starts inside the root element.
			ps.Nok.PathSummary.Blocks[mid].Start = -1
		}), "start class mismatch", false},
		{"value on a page past the end of the page file", sidecar(func(ps *persistedStore) {
			refs := ps.Nok.ValueRefs.All()
			if len(refs) == 0 {
				t.Fatal("no value refs")
			}
			packed := make([][4]int64, len(refs))
			for i, r := range refs {
				packed[i] = [4]int64{int64(r.Node), int64(r.Page), int64(r.Off), int64(r.Len)}
			}
			packed[len(refs)-1][1] = int64(len(img[pageFile])/pageSize + 3)
			ps.Nok = withValueRefs(t, ps.Nok, packRefs(packed...))
		}), "securexml: corrupt metadata", false},
		{"node count beyond the blocks", sidecar(func(ps *persistedStore) {
			ps.Nok.NumNodes = 1000000000000
		}), "nok: blocks cover", false},
		// Nothing is opened for a sidecar that does not decode.
		{"store image that is not base64", func() {
			_, _, storeB64, _ := splitEnvelope(img[metaFile])
			raw := bytes.Replace(img[metaFile], storeB64, []byte("!"), 1)
			if err := os.WriteFile(filepath.Join(dir, metaFile), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "securexml: corrupt metadata", true},
		{"codebook that does not parse", sidecar(func(ps *persistedStore) {
			ps.Codebook = []byte{0xff}
		}), "corrupt codebook", false},
		{"codebook whose two live slots hold one row", sidecar(func(ps *persistedStore) {
			ps.Codebook = duplicateRow(t, ps.Codebook)
		}), "securexml: corrupt metadata: codebook: dol: codebook rows 0 and", false},
		{"directory of uneven lengths", sidecar(func(ps *persistedStore) {
			ps.Dir.IsGroup = nil
		}), "corrupt directory", false},
		{"a mode the codebook has no columns for", sidecar(func(ps *persistedStore) {
			ps.Modes = append(ps.Modes, "extra")
		}), "codebook covers", false},
	}
	// Every form a reader once took and no writer emits is rejected too.
	for name, b := range retiredSidecars(t, ps) {
		cases = append(cases, caseT{name + " sidecar", file(b), "not a format-4 envelope", true})
	}
	want := map[string]string{
		"no path summary": "has no path summary", "class words": "metadata image: malformed",
		"v2 magic": "corrupt codebook header", "row header 2": "has header 2", "row header 3": "has header 3",
		"dense row": "has header",
	}
	for name, nokImg := range retiredNokImages(ps) {
		b := appendEnvelope(nil, ps.PageSize, nil, nokImg, storeImage(ps))
		cases = append(cases, caseT{"nok image with " + name, file(b), want[name], true})
	}
	for name, cb := range retiredCodebooks(ps.Codebook) {
		cases = append(cases, caseT{"codebook with " + name, sidecar(func(ps *persistedStore) { ps.Codebook = cb }), want[name], false})
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
		img.restore(t, dir)
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
	img.restore(t, dir)
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
	ms, rng, img := crashStore(t, 3, 1500)
	open := func(what string) (*Store, *countingFile) {
		t.Helper()
		var cf *countingFile
		s, err := Open(ms.dir, StoreOptions{PoolPages: 64, WrapWALFile: func(f storage.File) storage.File {
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
	ms.s = s
	ms.check("the reopened store")
	ms.close()
	// A crash after the commit record is durable and before any data page
	// is written leaves a committed, unapplied batch behind.
	op, post := drawUpdate(rng, ms.md, xmlmodel.SetAccess, true)
	p := faultPoint{fault: storage.Fault{Op: storage.FaultWrite, N: 1}}
	ms.crashAt(p.String(), img, p, func(s *Store) (int, error) { return ms.applyArmed(s, post, op, p) })
	committed, err := os.ReadFile(filepath.Join(ms.dir, pageFile+walSuffix))
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
		{"torn tail", append(slices.Clone(img[pageFile+walSuffix]), 1, 2, 3), storage.RecoveryInfo{Discarded: true}},
	}
	for _, l := range logs {
		img.restore(t, ms.dir)
		if err := os.WriteFile(filepath.Join(ms.dir, pageFile+walSuffix), l.log, 0o644); err != nil {
			t.Fatal(err)
		}
		s, cf := open(l.name)
		if cf.truncates == 0 || cf.syncs == 0 || s.Recovery() != l.want {
			t.Errorf("%s: %d truncates, %d syncs, recovery %+v; want some of each and %+v", l.name, cf.truncates, cf.syncs, s.Recovery(), l.want)
		}
		s.Close()
	}
}

// syncCountingOpen opens dir with the page file's pager and the log in
// view: the pager's IOStats count the fsyncs it really issues, the
// countingFile the log's.
func syncCountingOpen(t *testing.T, dir string) (*Store, storage.Pager, *countingFile) {
	t.Helper()
	var data storage.Pager
	var log *countingFile
	s, err := Open(dir, StoreOptions{
		WrapPager:   func(p storage.Pager) storage.Pager { data = p; return p },
		WrapWALFile: func(f storage.File) storage.File { log = &countingFile{File: f}; return log },
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, data, log
}

// A visit that only reads — Open, every Table 1 shape, Close — makes no
// fsync of the page file and no sync of the log: the store was durable
// when it opened, and nothing was written since. (The store's first Open
// writes its log's header; the visit is a later one, as a registry's are.)
func TestReadOnlyVisitSyncsNothing(t *testing.T) {
	dir, qval := churnTenant(t, 1, 31, 3600, 512)
	first, _, _ := syncCountingOpen(t, dir)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	s, data, log := syncCountingOpen(t, dir)
	for _, q := range append(slices.Clone(table1), struct{ name, expr string }{"Qval", qval}) {
		if _, err := s.QueryCtx(context.Background(), "u00", "read", q.expr, QueryOptions{}); err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
	}
	if got := s.MetricsSnapshot().Get("io_syncs"); got != 0 {
		t.Fatalf("io_syncs = %d before Close", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := data.Stats(); st.Syncs != 0 || st.Writes != 0 || log.syncs != 0 || log.truncates != 0 {
		t.Fatalf("a read-only visit issued %d page-file fsyncs, %d page writes, %d log syncs and %d log truncates; want none",
			st.Syncs, st.Writes, log.syncs, log.truncates)
	}
}

// Its counterpart: a visit that updates still leaves its pages durable.
// The last revoke is committed asynchronously with the flusher held, so it
// is still queued at Close: Close flushes it and fsyncs the page file, and
// the reopened store answers with every revoke.
func TestUpdatedVisitSyncsOnClose(t *testing.T) {
	dir, _ := churnTenant(t, 1, 32, 3600, 512)
	s, data, _ := syncCountingOpen(t, dir)
	const q = "//listitem//keyword"
	before, err := s.QueryCtx(context.Background(), "u00", "read", q, QueryOptions{})
	if err != nil || len(before) == 0 {
		t.Fatalf("%d answers before the revoke, %v", len(before), err)
	}
	for g := 0; g < 7; g++ {
		if err := s.SetAccess(fmt.Sprintf("g%d", g), "read", before[0].Node, false, true); err != nil {
			t.Fatal(err)
		}
	}
	s.wp.HoldFlushes()
	if _, err := s.SetAccessAsync("g7", "read", before[0].Node, false, true); err != nil {
		t.Fatal(err)
	}
	after, err := s.QueryCtx(context.Background(), "u00", "read", q, QueryOptions{})
	if err != nil || len(after) >= len(before) {
		t.Fatalf("%d answers after revoking %d's subtree, %d before, %v", len(after), before[0].Node, len(before), err)
	}
	synced := data.Stats().Syncs
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := data.Stats().Syncs - synced; n < 1 {
		t.Fatalf("Close with a commit queued issued %d page-file fsyncs", n)
	}
	r, _, _ := syncCountingOpen(t, dir)
	defer r.Close()
	got, err := r.QueryCtx(context.Background(), "u00", "read", q, QueryOptions{})
	if err != nil || !slices.Equal(got, after) {
		t.Fatalf("the reopened store answers %d matches, %v; the updated store answered %d", len(got), err, len(after))
	}
}

// Open checks the value refs where they lie and leaves them packed: queries
// with no answers unpack nothing, the first query with answers unpacks them
// once, and a snapshot published by an access update shares them. Saved
// packed or unpacked, the sidecar comes back as it was read.
func TestOpenUnpacksValueRefsAtFirstRead(t *testing.T) {
	dir := t.TempDir()
	s := hospitalStore(t, StoreOptions{PageSize: 256})
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gauge := func() int64 { return s.MetricsSnapshot().Get("value_ref_bytes") }
	packed := gauge()
	if packed <= 0 {
		t.Fatalf("value_ref_bytes %d after Open", packed)
	}
	// A save writes back the image read, and one after the refs are
	// unpacked writes it again.
	resave := func() []byte {
		t.Helper()
		to := t.TempDir()
		if err := s.Save(to); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(to, metaFile))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	saved, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resave(), saved) || gauge() != packed {
		t.Fatal("a save of refs never unpacked changed the sidecar, or unpacked them")
	}
	query := func(user, xpath string) int {
		t.Helper()
		ms, err := s.QueryCtx(context.Background(), user, "read", xpath, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return len(ms)
	}
	// No class holds the path; the view sees none of the nodes.
	for _, q := range []struct{ user, xpath string }{
		{"dave", "//patient/amount"}, {"betty", "//diagnosis"}, {"alice", "//pharmacy/drug"},
	} {
		if n := query(q.user, q.xpath); n != 0 {
			t.Fatalf("%s %s: %d answers, want none", q.user, q.xpath, n)
		}
		if got := gauge(); got != packed {
			t.Fatalf("value_ref_bytes %d after %s %s, which has no answer; %d after Open", got, q.user, q.xpath, packed)
		}
	}
	if n := query("dave", "//patient/name"); n == 0 {
		t.Fatal("//patient/name: no answers")
	}
	unpacked := gauge()
	if unpacked <= packed {
		t.Fatalf("value_ref_bytes %d after a query with answers, %d packed", unpacked, packed)
	}
	if !bytes.Equal(resave(), saved) {
		t.Fatal("a save of unpacked refs changed the sidecar")
	}
	if err := s.SetAccess("alice", "read", 0, true, false); err != nil {
		t.Fatal(err)
	}
	if got := gauge(); got != unpacked {
		t.Fatalf("value_ref_bytes %d on the snapshot an access update published, %d before", got, unpacked)
	}
}

// Open's allocations, pinned without a clock: the 3,600-node tenant of
// BenchmarkOpen opens, and closes, in at most openAllocs allocations (the
// figure this test was written at plus 10 %; it was 597 for the Open alone
// when the codebook decoded each dense row into a Bitset, then into runs).
func TestOpenAllocations(t *testing.T) {
	const openAllocs = 323
	dir, _ := churnTenant(t, 0, 5000, 3600, 4096)
	allocs := testing.AllocsPerRun(20, func() {
		s, err := Open(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Open and Close: %.0f allocations", allocs)
	if allocs > openAllocs {
		t.Fatalf("Open and Close made %.0f allocations, over the %d pinned", allocs, openAllocs)
	}
}
