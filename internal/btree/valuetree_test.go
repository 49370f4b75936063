package btree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

func newValueTree(t testing.TB, pageSize int) (*ValueTree, *storage.BufferPool) {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemPager(pageSize), 128)
	vt, err := NewValueTree(pool)
	if err != nil {
		t.Fatal(err)
	}
	return vt, pool
}

func TestValueTreeBasics(t *testing.T) {
	vt, _ := newValueTree(t, 4096)
	if vt.numKeys != 0 || vt.height != 1 {
		t.Fatalf("fresh tree: len %d height %d", vt.numKeys, vt.height)
	}
	vals := []string{"carved mask", "drum", "silk cloth", "drum"}
	for i, v := range vals {
		if err := vt.Insert(1, v, Posting{Node: xmltree.NodeID(i * 10), End: xmltree.NodeID(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	ps, err := vt.ValuePostings(1, "drum")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].Node != 10 || ps[1].Node != 30 {
		t.Fatalf("drum postings = %v", ps)
	}
	ps, _ = vt.ValuePostings(1, "missing")
	if len(ps) != 0 {
		t.Fatal("missing value matched")
	}
	ps, _ = vt.ValuePostings(9, "drum")
	if len(ps) != 0 {
		t.Fatal("wrong tag matched")
	}
}

func TestValueTreeDuplicateRejected(t *testing.T) {
	vt, _ := newValueTree(t, 4096)
	p := Posting{Node: 5, End: 5}
	if err := vt.Insert(1, "x", p); err != nil {
		t.Fatal(err)
	}
	if err := vt.Insert(1, "x", p); err == nil {
		t.Fatal("duplicate (tag,value,node) should fail")
	}
	// Same value at a different node is fine.
	if err := vt.Insert(1, "x", Posting{Node: 6, End: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestValueTreeOversizedValue(t *testing.T) {
	vt, _ := newValueTree(t, 256)
	if err := vt.Insert(1, strings.Repeat("v", 400), Posting{Node: 1, End: 1}); err == nil {
		t.Fatal("oversized value should fail")
	}
}

func TestValueTreeSplitsAndOrder(t *testing.T) {
	vt, _ := newValueTree(t, 256) // force many splits
	const n = 800
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, v := range perm {
		val := fmt.Sprintf("value-%03d", v%40)
		if err := vt.Insert(int32(v%5), val, Posting{Node: xmltree.NodeID(v), End: xmltree.NodeID(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if vt.height < 2 {
		t.Fatalf("expected splits, height %d", vt.height)
	}
	for tag := int32(0); tag < 5; tag++ {
		for g := 0; g < 40; g++ {
			val := fmt.Sprintf("value-%03d", g)
			ps, err := vt.ValuePostings(tag, val)
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for v := 0; v < n; v++ {
				if int32(v%5) == tag && v%40 == g {
					want = append(want, v)
				}
			}
			if len(ps) != len(want) {
				t.Fatalf("tag %d %q: %d postings, want %d", tag, val, len(ps), len(want))
			}
			for i := range want {
				if ps[i].Node != xmltree.NodeID(want[i]) {
					t.Fatalf("tag %d %q: out of order", tag, val)
				}
			}
		}
	}
}

func TestValueTreePersistence(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemPager(256), 128)
	vt, err := NewValueTree(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := vt.Insert(2, fmt.Sprintf("k%d", i%7), Posting{Node: xmltree.NodeID(i), End: xmltree.NodeID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	re := &ValueTree{pool: pool, root: vt.root, height: vt.height, numKeys: vt.numKeys, capacity: vt.capacity}
	want, _ := vt.ValuePostings(2, "k3")
	got, err := re.ValuePostings(2, "k3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reopened scan %d postings, want %d", len(got), len(want))
	}
}

func TestBuildValueIndex(t *testing.T) {
	doc := xmltree.MustParseString(
		`<r><a>x</a><b/><a>y</a><c><a>x</a></c></r>`)
	pool := storage.NewBufferPool(storage.NewMemPager(4096), 64)
	vt, err := BuildValueIndex(pool, doc)
	if err != nil {
		t.Fatal(err)
	}
	tagA := doc.TagIDOf(doc.NodesWithTag("a")[0])
	ps, err := vt.ValuePostings(int32(tagA), "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("a=x postings = %v", ps)
	}
	// Only valued nodes are indexed.
	if vt.numKeys != 3 {
		t.Fatalf("Len = %d, want 3", vt.numKeys)
	}
}

func TestValueTreeEarlyStop(t *testing.T) {
	vt, _ := newValueTree(t, 4096)
	for i := 0; i < 20; i++ {
		vt.Insert(1, "same", Posting{Node: xmltree.NodeID(i), End: xmltree.NodeID(i)})
	}
	count := 0
	if err := vt.ScanValue(1, "same", func(Posting) bool {
		count++
		return count < 4
	}); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("early stop visited %d", count)
	}
}

// Property: the value tree agrees with a map oracle across page sizes,
// including values with varied lengths and embedded separators.
func TestValueTreeMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pageSize := []int{128, 256, 512, 4096}[rng.Intn(4)]
		pool := storage.NewBufferPool(storage.NewMemPager(pageSize), 256)
		vt, err := NewValueTree(pool)
		if err != nil {
			return false
		}
		type key struct {
			tag  int32
			val  string
			node int32
		}
		oracle := map[key]Posting{}
		n := 1 + rng.Intn(600)
		for i := 0; i < n; i++ {
			k := key{
				tag:  int32(rng.Intn(4)),
				val:  strings.Repeat("ab,x ", rng.Intn(4)) + fmt.Sprint(rng.Intn(9)),
				node: int32(rng.Intn(5000)),
			}
			if _, dup := oracle[k]; dup {
				continue
			}
			p := Posting{Node: xmltree.NodeID(k.node), End: xmltree.NodeID(k.node + int32(rng.Intn(9))), Level: uint16(rng.Intn(30))}
			if err := vt.Insert(k.tag, k.val, p); err != nil {
				return false
			}
			oracle[k] = p
		}
		// Group oracle by (tag, val).
		grouped := map[[2]string][]Posting{}
		for k, p := range oracle {
			grouped[[2]string{fmt.Sprint(k.tag), k.val}] = append(grouped[[2]string{fmt.Sprint(k.tag), k.val}], p)
		}
		for gk, want := range grouped {
			var tag int32
			fmt.Sscan(gk[0], &tag)
			got, err := vt.ValuePostings(tag, gk[1])
			if err != nil || len(got) != len(want) {
				return false
			}
			// got is sorted by node; check set equality via map.
			seen := map[xmltree.NodeID]Posting{}
			for _, p := range want {
				seen[p.Node] = p
			}
			last := xmltree.NodeID(-1)
			for _, p := range got {
				if p.Node <= last {
					return false
				}
				last = p.Node
				if seen[p.Node] != p {
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

func BenchmarkValueTreeInsert(b *testing.B) {
	pool := storage.NewBufferPool(storage.NewMemPager(4096), 2048)
	vt, err := NewValueTree(pool)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vt.Insert(int32(i%8), fmt.Sprintf("value-%d", i%100), Posting{Node: xmltree.NodeID(i), End: xmltree.NodeID(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
