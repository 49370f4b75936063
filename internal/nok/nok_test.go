package nok

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// arrayCodes is a CodeSource backed by an explicit per-node code array:
// node n is a transition node when its code differs from node n-1's (node 0
// is always a transition node), exactly the DOL definition.
type arrayCodes []uint32

func (a arrayCodes) CodeInForce(n xmltree.NodeID) uint32 { return a[n] }
func (a arrayCodes) IsTransition(n xmltree.NodeID) bool {
	return n == 0 || a[n] != a[n-1]
}

func buildStore(t testing.TB, doc *xmltree.Document, pageSize int, opts BuildOptions) *Store {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemPager(pageSize), 64)
	s, err := Build(pool, doc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fig2doc(t testing.TB) *xmltree.Document {
	t.Helper()
	return xmltree.MustParseString(
		`<a><b/><c/><d/><e><f/><g/><h><i/><j/><k/><l/></h></e></a>`)
}

func TestEntryRoundTrip(t *testing.T) {
	cases := []Entry{
		{Tag: 0, CloseCount: 0},
		{Tag: 5, CloseCount: 3},
		{Tag: 1000, CloseCount: 127},
		{Tag: 7, CloseCount: 1, HasCode: true, Code: 0},
		{Tag: 1 << 20, CloseCount: 2, HasCode: true, Code: 1 << 30},
		{Tag: math.MaxInt32, CloseCount: 0x8001, HasCode: true, Code: math.MaxUint32},
	}
	for _, e := range cases {
		buf := appendEntry(nil, e)
		if len(buf) != entrySize(e) {
			t.Errorf("entrySize(%+v) = %d, encoded %d", e, entrySize(e), len(buf))
		}
		blk, err := decodeBlock(entryPage(1, buf))
		if err != nil {
			t.Fatalf("decode %+v: %v", e, err)
		}
		if got := blk[0].entry(); got != e {
			t.Errorf("round trip %+v -> %+v", e, got)
		}
	}
}

// badEntries are one-entry page bodies decodeBlock must reject, each for
// the reason it is named after.
var badEntries = []struct {
	name string
	body []byte
}{
	{"empty body", nil},
	// Header present, close count missing.
	{"truncated close count", appendEntry(nil, Entry{Tag: 3, CloseCount: 200})[:2]},
	// Code flagged but cut short.
	{"truncated code", appendEntry(nil, Entry{Tag: 3, CloseCount: 1, HasCode: true, Code: 300})[:3]},
	{"overlong header varint", append(bytes.Repeat([]byte{0xFF}, 10), 0x01, 0x01)},
	{"overlong close count varint", append(append([]byte{0x06}, bytes.Repeat([]byte{0xFF}, 10)...), 0x01)},
	{"overlong code varint", append(append([]byte{0x07, 0x01}, bytes.Repeat([]byte{0xFF}, 10)...), 0x01)},
	{"tag > MaxInt32", binary.AppendUvarint(binary.AppendUvarint(nil, (math.MaxInt32+1)<<1), 1)},
	{"close count > MaxInt32", binary.AppendUvarint([]byte{0x06}, math.MaxInt32+1)},
	{"code > MaxUint32", binary.AppendUvarint([]byte{0x07, 0x01}, math.MaxUint32+1)},
	{"closes below the root", appendEntry(nil, Entry{Tag: 3, CloseCount: 0x8002})},
	{"trailing byte", append(appendEntry(nil, Entry{Tag: 3, CloseCount: 1}), 0x00)},
}

func TestDecodeEntryErrors(t *testing.T) {
	for _, c := range badEntries {
		if blk, err := decodeBlock(entryPage(1, c.body)); err == nil {
			t.Errorf("%s: decoded %+v, want an error", c.name, blk)
		}
		if _, err := refDecodeBlock(entryPage(1, c.body)); err == nil {
			t.Errorf("%s: the reference decoder accepts it", c.name)
		}
	}
	// Two well-formed entries where the header announces one, and one where
	// it announces two.
	two := appendEntry(appendEntry(nil, Entry{Tag: 3}), Entry{Tag: 4, CloseCount: 2, HasCode: true, Code: 300})
	if _, err := decodeBlock(entryPage(1, two)); err == nil {
		t.Error("more entries than announced should fail")
	}
	if _, err := decodeBlock(entryPage(3, two)); err == nil {
		t.Error("fewer entries than announced should fail")
	}
	if blk, err := decodeBlock(entryPage(2, two)); err != nil || len(blk) != 2 {
		t.Errorf("two announced entries: %v, %v", blk, err)
	}
}

func TestBuildSingleBlock(t *testing.T) {
	doc := fig2doc(t)
	s := buildStore(t, doc, 4096, BuildOptions{})
	if s.NumNodes() != 12 {
		t.Fatalf("NumNodes = %d", s.NumNodes())
	}
	if s.NumPages() != 1 {
		t.Fatalf("NumPages = %d, want 1", s.NumPages())
	}
	pi := s.PageInfoAt(0)
	if pi.FirstNode != 0 || pi.Count != 12 || pi.StartDepth != 0 || pi.MinDepth != 0 {
		t.Fatalf("PageInfo = %+v", pi)
	}
}

func TestNavigationMatchesDocument(t *testing.T) {
	doc := fig2doc(t)
	for _, pageSize := range []int{64, 80, 128, 4096} {
		s := buildStore(t, doc, pageSize, BuildOptions{})
		for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
			fc, err := s.FirstChild(n)
			if err != nil {
				t.Fatal(err)
			}
			if fc != doc.FirstChild(n) {
				t.Errorf("pageSize %d: FirstChild(%d) = %d, want %d", pageSize, n, fc, doc.FirstChild(n))
			}
			fs, err := s.FollowingSibling(n)
			if err != nil {
				t.Fatal(err)
			}
			if fs != doc.NextSibling(n) {
				t.Errorf("pageSize %d: FollowingSibling(%d) = %d, want %d", pageSize, n, fs, doc.NextSibling(n))
			}
			end, err := s.SubtreeEnd(n)
			if err != nil {
				t.Fatal(err)
			}
			if end != doc.End(n) {
				t.Errorf("pageSize %d: SubtreeEnd(%d) = %d, want %d", pageSize, n, end, doc.End(n))
			}
			lvl, err := s.Level(n)
			if err != nil {
				t.Fatal(err)
			}
			if lvl != doc.Level(n) {
				t.Errorf("pageSize %d: Level(%d) = %d, want %d", pageSize, n, lvl, doc.Level(n))
			}
			tag, err := s.Tag(n)
			if err != nil {
				t.Fatal(err)
			}
			if s.TagName(tag) != doc.Tag(n) {
				t.Errorf("pageSize %d: Tag(%d) = %q, want %q", pageSize, n, s.TagName(tag), doc.Tag(n))
			}
		}
	}
}

func TestAccessCodes(t *testing.T) {
	doc := fig2doc(t)
	// Figure 1(c): codes per node a..l = 1,1,2,2,0,0,0,1,1,2,2,2 (made up
	// but exercising transitions mid-block and across blocks).
	codes := arrayCodes{1, 1, 2, 2, 0, 0, 0, 1, 1, 2, 2, 2}
	for _, pageSize := range []int{64, 96, 4096} {
		s := buildStore(t, doc, pageSize, BuildOptions{Codes: codes})
		for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
			got, err := s.AccessCodeAt(n)
			if err != nil {
				t.Fatal(err)
			}
			if got != codes[n] {
				t.Errorf("pageSize %d: AccessCodeAt(%d) = %d, want %d", pageSize, n, got, codes[n])
			}
		}
		// Headers must carry the code in force at each block start.
		for i := 0; i < s.NumPages(); i++ {
			pi := s.PageInfoAt(i)
			if pi.AccessCode != codes[pi.FirstNode] {
				t.Errorf("pageSize %d: block %d header code %d, want %d", pageSize, i, pi.AccessCode, codes[pi.FirstNode])
			}
		}
	}
}

func TestChangeBit(t *testing.T) {
	doc := fig2doc(t)
	// Uniform codes: no transitions after node 0, change bit clear everywhere.
	uniform := make(arrayCodes, doc.Len())
	s := buildStore(t, doc, 64, BuildOptions{Codes: uniform})
	for i := 0; i < s.NumPages(); i++ {
		if s.PageInfoAt(i).ChangeBit {
			t.Errorf("block %d: change bit set for uniform codes", i)
		}
	}
	// Alternating codes: every block with >1 entry has transitions.
	alt := make(arrayCodes, doc.Len())
	for i := range alt {
		alt[i] = uint32(i % 2)
	}
	s2 := buildStore(t, doc, 64, BuildOptions{Codes: alt})
	for i := 0; i < s2.NumPages(); i++ {
		pi := s2.PageInfoAt(i)
		if pi.Count > 1 && !pi.ChangeBit {
			t.Errorf("block %d: change bit clear despite transitions", i)
		}
	}
}

func TestWalkSubtree(t *testing.T) {
	doc := fig2doc(t)
	s := buildStore(t, doc, 64, BuildOptions{})
	var visited []xmltree.NodeID
	if err := s.WalkSubtree(4, func(ni NodeInfo) bool { // subtree of e
		visited = append(visited, ni.ID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(visited) != 8 {
		t.Fatalf("visited %v, want nodes 4..11", visited)
	}
	for i, id := range visited {
		if id != xmltree.NodeID(4+i) {
			t.Fatalf("visited %v", visited)
		}
	}
	// Early stop.
	count := 0
	s.WalkSubtree(0, func(NodeInfo) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestPageSkippingUsesDirectoryOnly(t *testing.T) {
	// A root with two children: a huge first subtree spanning many pages
	// and a trailing sibling. FollowingSibling(first child) must skip the
	// interior pages without physical reads.
	b := xmltree.NewBuilder()
	b.Begin("root")
	b.Begin("big")
	for i := 0; i < 2000; i++ {
		b.Begin("deep")
	}
	for i := 0; i < 2000; i++ {
		b.End()
	}
	b.End() // big
	b.Element("next", "")
	b.End()
	doc := b.MustFinish()

	pool := storage.NewBufferPool(storage.NewMemPager(256), 256)
	s, err := Build(pool, doc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPages() < 5 {
		t.Fatalf("want many pages, got %d", s.NumPages())
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	sib, err := s.FollowingSibling(1) // node 1 = big
	if err != nil {
		t.Fatal(err)
	}
	if doc.Tag(sib) != "next" {
		t.Fatalf("sibling = %d (%s)", sib, doc.Tag(sib))
	}
	misses := pool.Stats().Misses
	// Only the first block (for node 1) and the final block (holding the
	// sibling) should be read; everything between is skipped via MinDepth.
	if misses > 2 {
		t.Errorf("FollowingSibling read %d pages, want <= 2 (directory skipping)", misses)
	}
}

func TestValues(t *testing.T) {
	doc := xmltree.MustParseString(`<r><a>alpha</a><b/><c>gamma</c></r>`)
	s := buildStore(t, doc, 4096, BuildOptions{StoreValues: true})
	vs := s.Values()
	if vs == nil {
		t.Fatal("no value store")
	}
	if vs.NumValues() != 2 {
		t.Fatalf("NumValues = %d", vs.NumValues())
	}
	for n := 0; n < doc.Len(); n++ {
		got, err := vs.Value(xmltree.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		if got != doc.Value(xmltree.NodeID(n)) {
			t.Errorf("Value(%d) = %q, want %q", n, got, doc.Value(xmltree.NodeID(n)))
		}
	}
	if vs.IndexBytes() != 2*refSize {
		t.Errorf("IndexBytes = %d", vs.IndexBytes())
	}
}

func TestValuesSpanPages(t *testing.T) {
	b := xmltree.NewBuilder()
	b.Begin("r")
	want := map[xmltree.NodeID]string{}
	for i := 0; i < 50; i++ {
		v := string(bytes.Repeat([]byte{byte('a' + i%26)}, 40))
		id := b.Element("x", v)
		want[id] = v
	}
	b.End()
	doc := b.MustFinish()
	s := buildStore(t, doc, 128, BuildOptions{StoreValues: true})
	for id, v := range want {
		got, err := s.Values().Value(id)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Errorf("Value(%d) wrong", id)
		}
	}

	// The batched read returns the same values — "" for the root, which
	// has none — pinning each value page once, and keeps no pin.
	nodes := make([]xmltree.NodeID, doc.Len())
	for n := range nodes {
		nodes[n] = xmltree.NodeID(n)
	}
	pool := s.Pool()
	before := pool.Stats().Gets
	got, err := s.Values().ValuesCtx(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	for n, v := range got {
		if v != want[xmltree.NodeID(n)] {
			t.Errorf("ValuesCtx[%d] = %q, want %q", n, v, want[xmltree.NodeID(n)])
		}
	}
	// 50 values of 40 bytes, 3 to a 128-byte page.
	if gets := pool.Stats().Gets - before; gets != 17 || pool.Pinned() != 0 {
		t.Errorf("ValuesCtx made %d pool Gets and left %d frames pinned, want 17 and 0", gets, pool.Pinned())
	}
}

// ValuesCtx gallops from one answer's ref to the next: whatever ascending
// selection it is asked for — every node, few, runs, nodes that have no
// value, nodes past the last ref, a node twice — it returns what Value does.
func TestValuesCtxAscendingSelections(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := xmltree.NewBuilder()
	b.Begin("r")
	for i := 0; i < 400; i++ {
		switch {
		case i >= 380 || rng.Intn(3) == 0: // no value; none at all after the last ref
			b.Element("e", "")
		default:
			b.Element("x", fmt.Sprintf("value-%d", i))
		}
	}
	b.End()
	doc := b.MustFinish()
	s := buildStore(t, doc, 128, BuildOptions{StoreValues: true})
	all := make([]xmltree.NodeID, doc.Len())
	for n := range all {
		all[n] = xmltree.NodeID(n)
	}
	selections := [][]xmltree.NodeID{nil, all, {0}, {all[len(all)-1]}, {5, 5, 6}}
	for _, keep := range []int{2, 10, 50, 97} { // sparse to dense
		var sel []xmltree.NodeID
		for _, n := range all {
			if rng.Intn(100) < keep {
				sel = append(sel, n)
			}
		}
		selections = append(selections, sel)
	}
	for i, sel := range selections {
		got, err := s.Values().ValuesCtx(context.Background(), sel)
		if err != nil || len(got) != len(sel) {
			t.Fatalf("selection %d: %d values, %v", i, len(got), err)
		}
		for k, n := range sel {
			if want, _ := s.Values().Value(n); got[k] != want || want != doc.Value(n) {
				t.Fatalf("selection %d: node %d = %q, Value says %q, the document %q", i, n, got[k], want, doc.Value(n))
			}
		}
		if s.Pool().Pinned() != 0 {
			t.Fatalf("selection %d left %d frames pinned", i, s.Pool().Pinned())
		}
	}
}

func TestValueTooLarge(t *testing.T) {
	b := xmltree.NewBuilder()
	b.Begin("r")
	b.Element("x", string(bytes.Repeat([]byte{'v'}, 300)))
	b.End()
	doc := b.MustFinish()
	pool := storage.NewBufferPool(storage.NewMemPager(128), 8)
	if _, err := Build(pool, doc, BuildOptions{StoreValues: true}); err == nil {
		t.Fatal("oversized value should fail")
	}
}

func TestBuildErrors(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemPager(16), 8)
	doc := fig2doc(t)
	if _, err := Build(pool, doc, BuildOptions{}); err == nil {
		t.Fatal("tiny pages should fail")
	}
}

func TestMetaReopen(t *testing.T) {
	// fig2doc's shape with text on four nodes.
	doc := xmltree.MustParseString(
		`<a><b>beta</b><c/><d>delta</d><e><f/><g>gamma</g><h><i/><j/><k>kappa</k><l/></h></e></a>`)
	codes := arrayCodes{1, 1, 2, 2, 0, 0, 0, 1, 1, 2, 2, 2}
	pool := storage.NewBufferPool(storage.NewMemPager(64), 64)
	s, err := Build(pool, doc, BuildOptions{Codes: codes, StoreValues: true})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(s.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var m Meta
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.ValueRefs, s.Meta().ValueRefs) || len(m.ValueRefs) == 0 {
		t.Fatalf("value refs came back as %v, want %v", m.ValueRefs, s.Meta().ValueRefs)
	}
	s2, err := Open(pool, m)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumNodes() != s.NumNodes() || s2.NumPages() != s.NumPages() {
		t.Fatal("reopen dimensions differ")
	}
	for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
		c1, _ := s.AccessCodeAt(n)
		c2, err := s2.AccessCodeAt(n)
		if err != nil {
			t.Fatal(err)
		}
		if c1 != c2 {
			t.Errorf("reopened code at %d: %d != %d", n, c2, c1)
		}
		f1, _ := s.FollowingSibling(n)
		f2, _ := s2.FollowingSibling(n)
		if f1 != f2 {
			t.Errorf("reopened sibling at %d differs", n)
		}
		if v, err := s2.Values().Value(n); err != nil || v != doc.Value(n) {
			t.Errorf("reopened value at %d = %q, %v, want %q", n, v, err, doc.Value(n))
		}
	}
}

func TestOpenValidation(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemPager(64), 8)
	if _, err := Open(pool, Meta{NumNodes: 0}); err == nil {
		t.Fatal("zero nodes should fail")
	}
	if _, err := Open(pool, Meta{NumNodes: 5, Tags: []string{"a"}}); err == nil {
		t.Fatal("missing blocks should fail")
	}
}

func TestFillPercentLeavesSlack(t *testing.T) {
	doc := fig2doc(t)
	full := buildStore(t, doc, 64, BuildOptions{})
	half := buildStore(t, doc, 64, BuildOptions{FillPercent: 50})
	if half.NumPages() <= full.NumPages() {
		t.Errorf("FillPercent 50 pages %d, want more than %d", half.NumPages(), full.NumPages())
	}
}

func randomDoc(rng *rand.Rand, n int) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Begin("r")
	open := 1
	for i := 1; i < n; i++ {
		for open > 1 && rng.Intn(3) == 0 {
			b.End()
			open--
		}
		b.Begin([]string{"x", "y", "z"}[rng.Intn(3)])
		open++
	}
	for ; open > 0; open-- {
		b.End()
	}
	return b.MustFinish()
}

// Property: for random documents, random page sizes and random code
// assignments, every navigation primitive and access lookup agrees with the
// in-memory document oracle.
func TestStoreMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 1+rng.Intn(300))
		codes := make(arrayCodes, doc.Len())
		cur := uint32(rng.Intn(4))
		for i := range codes {
			if rng.Intn(4) == 0 {
				cur = uint32(rng.Intn(4))
			}
			codes[i] = cur
		}
		pageSize := 64 + rng.Intn(200)
		pool := storage.NewBufferPool(storage.NewMemPager(pageSize), 128)
		s, err := Build(pool, doc, BuildOptions{Codes: codes})
		if err != nil {
			return false
		}
		for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
			if fc, err := s.FirstChild(n); err != nil || fc != doc.FirstChild(n) {
				return false
			}
			if fs, err := s.FollowingSibling(n); err != nil || fs != doc.NextSibling(n) {
				return false
			}
			if end, err := s.SubtreeEnd(n); err != nil || end != doc.End(n) {
				return false
			}
			if c, err := s.AccessCodeAt(n); err != nil || c != codes[n] {
				return false
			}
			if lvl, err := s.Level(n); err != nil || lvl != doc.Level(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// blockPositions lists, for every block of s, the node at its first, its
// middle and its last entry.
func blockPositions(s *Store) (first, middle, last []xmltree.NodeID) {
	for i := 0; i < s.NumPages(); i++ {
		pi := s.PageInfoAt(i)
		first = append(first, pi.FirstNode)
		middle = append(middle, pi.FirstNode+xmltree.NodeID(pi.Count/2))
		last = append(last, pi.FirstNode+xmltree.NodeID(pi.Count-1))
	}
	return first, middle, last
}

// benchPositions runs step over the given node lists as sub-benchmarks:
// before the positional index a lookup cost grew with the node's offset in
// its block, which a mixed list averages away.
func benchPositions(b *testing.B, s *Store, mixed []xmltree.NodeID, step func(xmltree.NodeID) error) {
	first, middle, last := blockPositions(s)
	for _, c := range []struct {
		name  string
		nodes []xmltree.NodeID
	}{{"mixed", mixed}, {"first", first}, {"middle", middle}, {"last", last}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := step(c.nodes[i%len(c.nodes)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFollowingSibling(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	doc := benchDoc(rng, 20000)
	pool := storage.NewBufferPool(storage.NewMemPager(4096), 256)
	s, err := Build(pool, doc, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	benchPositions(b, s, doc.Children(0), func(n xmltree.NodeID) error {
		_, err := s.FollowingSibling(n)
		return err
	})
}

func BenchmarkAccessCodeAt(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	doc := benchDoc(rng, 20000)
	codes := make(arrayCodes, doc.Len())
	for i := range codes {
		codes[i] = uint32(i % 7)
	}
	pool := storage.NewBufferPool(storage.NewMemPager(4096), 256)
	s, err := Build(pool, doc, BuildOptions{Codes: codes})
	if err != nil {
		b.Fatal(err)
	}
	all := make([]xmltree.NodeID, doc.Len())
	for i := range all {
		all[i] = xmltree.NodeID(i)
	}
	benchPositions(b, s, all, func(n xmltree.NodeID) error {
		_, err := s.AccessCodeAt(n)
		return err
	})
}

func TestValueStoreStructuralOps(t *testing.T) {
	doc := xmltree.MustParseString(`<r><a>alpha</a><b>beta</b><c>gamma</c></r>`)
	pool := storage.NewBufferPool(storage.NewMemPager(4096), 64)
	s, err := Build(pool, doc, BuildOptions{StoreValues: true})
	if err != nil {
		t.Fatal(err)
	}
	vs := s.Values()

	// Delete node 2 (b): later refs shift down.
	vs.DeleteRange(2, 2)
	if v, _ := vs.Value(2); v != "gamma" {
		t.Fatalf("after delete, Value(2) = %q, want gamma (shifted)", v)
	}
	if vs.NumValues() != 2 {
		t.Fatalf("NumValues = %d", vs.NumValues())
	}

	// Insert two nodes at position 2, one with a value.
	err = vs.InsertValues(2, 2, func(n xmltree.NodeID) string {
		if n == 1 {
			return "inserted"
		}
		return ""
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := vs.Value(3); v != "inserted" {
		t.Fatalf("Value(3) = %q, want inserted", v)
	}
	if v, _ := vs.Value(4); v != "gamma" {
		t.Fatalf("Value(4) = %q, want gamma (shifted up)", v)
	}
	if v, _ := vs.Value(2); v != "" {
		t.Fatalf("Value(2) = %q, want empty", v)
	}

	// Oversized inserted value fails.
	err = vs.InsertValues(0, 1, func(xmltree.NodeID) string {
		return string(bytes.Repeat([]byte{'x'}, 5000))
	})
	if err == nil {
		t.Fatal("oversized inserted value should fail")
	}

	// InsertValues with nil valueOf only shifts.
	before := vs.NumValues()
	if err := vs.InsertValues(0, 3, nil); err != nil {
		t.Fatal(err)
	}
	if vs.NumValues() != before {
		t.Fatal("nil valueOf should not add values")
	}
	if v, _ := vs.Value(6); v != "inserted" {
		t.Fatalf("shift by 3 wrong: Value(6) = %q", v)
	}
}

func TestStoreAccessors(t *testing.T) {
	doc := fig2doc(t)
	pool := storage.NewBufferPool(storage.NewMemPager(128), 64)
	s, err := Build(pool, doc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pool() != pool {
		t.Fatal("Pool accessor wrong")
	}
	if len(s.Directory()) != s.NumPages() {
		t.Fatal("Directory length mismatch")
	}
	if s.DirectoryBytes() != s.NumPages()*19 {
		t.Fatalf("DirectoryBytes = %d", s.DirectoryBytes())
	}
	if got := s.PageIndexOf(0); got != 0 {
		t.Fatalf("PageIndexOf(0) = %d", got)
	}
	last := xmltree.NodeID(doc.Len() - 1)
	if got := s.PageIndexOf(last); got != s.NumPages()-1 {
		t.Fatalf("PageIndexOf(last) = %d, want %d", got, s.NumPages()-1)
	}
	if s.FreePages() != 0 {
		t.Fatal("fresh store should have no free pages")
	}
	if _, err := s.Info(-1); err == nil {
		t.Fatal("Info(-1) should fail")
	}
	if _, err := s.Info(xmltree.NodeID(doc.Len())); err == nil {
		t.Fatal("Info past end should fail")
	}
}

// benchDoc builds a random document with realistic bounded depth (~12) for
// benchmarks; the unconstrained randomDoc drifts toward path-shaped trees
// whose depth grows linearly with size, which misrepresents join and
// navigation costs on document-shaped data.
func benchDoc(rng *rand.Rand, n int) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Begin("r")
	depth := 1
	tags := []string{"x", "y", "z"}
	for i := 1; i < n; i++ {
		for depth > 1 && (depth >= 12 || rng.Intn(3) == 0) {
			b.End()
			depth--
		}
		b.Begin(tags[rng.Intn(len(tags))])
		depth++
	}
	for ; depth > 0; depth-- {
		b.End()
	}
	return b.MustFinish()
}
