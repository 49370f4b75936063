package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

func newTree(t testing.TB, pageSize int) (*Tree, *storage.BufferPool) {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemPager(pageSize), 64)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	return tr, pool
}

func TestEmptyTree(t *testing.T) {
	tr, _ := newTree(t, 256)
	if tr.numKeys != 0 || tr.height != 1 {
		t.Fatalf("empty tree: len %d height %d", tr.numKeys, tr.height)
	}
	ps, err := tr.Postings(5)
	if err != nil {
		t.Fatal(err)
	}
	if ps != nil {
		t.Fatal("empty tree returned postings")
	}
}

func TestInsertAndScanSingleLeaf(t *testing.T) {
	tr, _ := newTree(t, 4096)
	for i := 10; i > 0; i-- {
		if err := tr.Insert(1, Posting{Node: xmltree.NodeID(i), End: xmltree.NodeID(i), Level: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.numKeys != 10 || tr.height != 1 {
		t.Fatalf("len %d height %d", tr.numKeys, tr.height)
	}
	ps, err := tr.Postings(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 10 {
		t.Fatalf("got %d postings", len(ps))
	}
	for i, p := range ps {
		if p.Node != xmltree.NodeID(i+1) {
			t.Fatalf("postings out of order: %v", ps)
		}
	}
}

func TestDuplicateRejected(t *testing.T) {
	tr, _ := newTree(t, 4096)
	p := Posting{Node: 3, End: 3}
	if err := tr.Insert(1, p); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, p); err == nil {
		t.Fatal("duplicate insert should fail")
	}
}

func TestSplitsAndHeightGrowth(t *testing.T) {
	tr, _ := newTree(t, 128) // tiny pages force splits
	const n = 2000
	perm := rand.New(rand.NewSource(5)).Perm(n)
	for _, v := range perm {
		if err := tr.Insert(int32(v%7), Posting{Node: xmltree.NodeID(v), End: xmltree.NodeID(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.numKeys != n {
		t.Fatalf("Len = %d", tr.numKeys)
	}
	if tr.height < 3 {
		t.Fatalf("expected height >= 3 with tiny pages, got %d", tr.height)
	}
	for tag := int32(0); tag < 7; tag++ {
		ps, err := tr.Postings(tag)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for v := 0; v < n; v++ {
			if int32(v%7) == tag {
				want = append(want, v)
			}
		}
		if len(ps) != len(want) {
			t.Fatalf("tag %d: %d postings, want %d", tag, len(ps), len(want))
		}
		for i := range want {
			if ps[i].Node != xmltree.NodeID(want[i]) {
				t.Fatalf("tag %d: posting %d = %d, want %d", tag, i, ps[i].Node, want[i])
			}
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr, _ := newTree(t, 4096)
	for i := 0; i < 100; i++ {
		tr.Insert(1, Posting{Node: xmltree.NodeID(i), End: xmltree.NodeID(i)})
	}
	count := 0
	if err := tr.Scan(1, func(Posting) bool {
		count++
		return count < 5
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestScanMissingTag(t *testing.T) {
	tr, _ := newTree(t, 256)
	for i := 0; i < 50; i++ {
		tr.Insert(2, Posting{Node: xmltree.NodeID(i), End: xmltree.NodeID(i)})
		tr.Insert(9, Posting{Node: xmltree.NodeID(i), End: xmltree.NodeID(i)})
	}
	ps, err := tr.Postings(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 0 {
		t.Fatalf("missing tag returned %d postings", len(ps))
	}
}

func TestOpenPersistence(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemPager(128), 64)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tr.Insert(int32(i%3), Posting{Node: xmltree.NodeID(i), End: xmltree.NodeID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	re := Open(pool, tr.root, tr.height, tr.numKeys)
	ps, err := re.Postings(2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tr.Postings(2)
	if len(ps) != len(want) {
		t.Fatalf("reopened scan %d postings, want %d", len(ps), len(want))
	}
}

func TestBuildFromDocument(t *testing.T) {
	doc := xmltree.MustParseString(
		`<a><b/><c/><b><c/><b/></b></a>`)
	bp := storage.NewBufferPool(storage.NewMemPager(4096), 64)
	tree, err := BuildFromDocument(bp, doc)
	if err != nil {
		t.Fatal(err)
	}
	if tree.numKeys != doc.Len() {
		t.Fatalf("Len = %d, want %d", tree.numKeys, doc.Len())
	}
	tagB := doc.TagIDOf(doc.NodesWithTag("b")[0])
	ps, err := tree.Postings(int32(tagB))
	if err != nil {
		t.Fatal(err)
	}
	want := doc.NodesWithTag("b")
	if len(ps) != len(want) {
		t.Fatalf("tag b: %d postings, want %d", len(ps), len(want))
	}
	for i, p := range ps {
		if p.Node != want[i] {
			t.Fatalf("posting %d: node %d, want %d", i, p.Node, want[i])
		}
		if p.End != doc.End(want[i]) || int(p.Level) != doc.Level(want[i]) {
			t.Fatalf("posting %d extent/level wrong", i)
		}
	}
}

// Property: the tree agrees with a map oracle under random inserts across
// page sizes.
func TestTreeMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pageSize := []int{64, 128, 256, 512}[rng.Intn(4)]
		pool := storage.NewBufferPool(storage.NewMemPager(pageSize), 128)
		tr, err := New(pool)
		if err != nil {
			return false
		}
		oracle := map[int32][]Posting{}
		n := 1 + rng.Intn(800)
		used := map[[2]int32]bool{}
		for i := 0; i < n; i++ {
			tag := int32(rng.Intn(5))
			node := int32(rng.Intn(3000))
			if used[[2]int32{tag, node}] {
				continue
			}
			used[[2]int32{tag, node}] = true
			p := Posting{Node: xmltree.NodeID(node), End: xmltree.NodeID(node + int32(rng.Intn(10))), Level: uint16(rng.Intn(20))}
			if err := tr.Insert(tag, p); err != nil {
				return false
			}
			oracle[tag] = append(oracle[tag], p)
		}
		for tag, want := range oracle {
			sort.Slice(want, func(i, j int) bool { return want[i].Node < want[j].Node })
			got, err := tr.Postings(tag)
			if err != nil || len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	pool := storage.NewBufferPool(storage.NewMemPager(4096), 1024)
	tr, err := New(pool)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(int32(i%16), Posting{Node: xmltree.NodeID(i), End: xmltree.NodeID(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	pool := storage.NewBufferPool(storage.NewMemPager(4096), 1024)
	tr, _ := New(pool)
	for i := 0; i < 100000; i++ {
		tr.Insert(int32(i%16), Posting{Node: xmltree.NodeID(i), End: xmltree.NodeID(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		tr.Scan(int32(i%16), func(Posting) bool { count++; return true })
	}
}
