package nok

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"dolxml/internal/storage"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// The decode cache charges decEntryCostPerEntry bytes per cached entry; it
// must be what a slot really occupies, and no more than the 24-byte Entry
// it replaced (cache_pressure budgets a block at that size).
func TestSlotSizeMatchesCacheCost(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != decEntryCostPerEntry {
		t.Fatalf("slot is %d bytes, decEntryCostPerEntry says %d", got, decEntryCostPerEntry)
	}
	if decEntryCostPerEntry > 24 {
		t.Fatalf("a cached entry costs %d bytes, more than the 24 it replaced", decEntryCostPerEntry)
	}
}

// flatDoc is the model the equivalence test keeps beside the store: the
// closing-parens string with the code in force at every node. Structural
// rewrites are applied to it and to the store alike; an xmltree document
// rebuilt from it is the navigation oracle.
type flatDoc struct {
	tags  []int32
	close []int
	codes []uint32
}

func flatten(doc *xmltree.Document, codes []uint32) *flatDoc {
	f := &flatDoc{codes: append([]uint32(nil), codes...)}
	for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
		f.tags = append(f.tags, int32(doc.TagIDOf(n)))
		f.close = append(f.close, doc.CloseCount(n))
	}
	return f
}

// document rebuilds the xmltree oracle; tag names are the store's.
func (f *flatDoc) document(s *Store) *xmltree.Document {
	b := xmltree.NewBuilder()
	for n := range f.tags {
		b.Begin(s.TagName(f.tags[n]))
		for c := 0; c < f.close[n]; c++ {
			b.End()
		}
	}
	return b.MustFinish()
}

// entries returns nodes [lo, hi] in stored form: a node carries an inline
// code exactly when its code differs from its predecessor's (the first
// entry's code travels as the region's start code).
func (f *flatDoc) entries(lo, hi int) []Entry {
	var out []Entry
	for n := lo; n <= hi; n++ {
		e := Entry{Tag: f.tags[n], CloseCount: f.close[n]}
		if n > lo && f.codes[n] != f.codes[n-1] {
			e.HasCode, e.Code = true, f.codes[n]
		}
		out = append(out, e)
	}
	return out
}

func (f *flatDoc) splice(at, del int, tags []int32, close []int, codes []uint32) {
	f.tags = append(f.tags[:at:at], append(tags, f.tags[at+del:]...)...)
	f.close = append(f.close[:at:at], append(close, f.close[at+del:]...)...)
	f.codes = append(f.codes[:at:at], append(codes, f.codes[at+del:]...)...)
}

// rewrite replaces the store's blocks holding old nodes [lo, hi] with the
// model's current content for that region, which is delta nodes longer.
func (f *flatDoc) rewrite(t *testing.T, s *Store, doc *xmltree.Document, lo, hi, delta int) {
	t.Helper()
	i, j := s.PageIndexOf(xmltree.NodeID(lo)), s.PageIndexOf(xmltree.NodeID(hi))
	first := int(s.PageInfoAt(i).FirstNode)
	last := int(s.PageInfoAt(j).FirstNode) + s.PageInfoAt(j).Count - 1 + delta
	if _, err := s.RewriteRegion(i, j, f.entries(first, last), doc.Level(xmltree.NodeID(first)), f.codes[first]); err != nil {
		t.Fatalf("rewrite blocks [%d,%d]: %v", i, j, err)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatalf("after rewrite of blocks [%d,%d]: %v", i, j, err)
	}
}

// siblingRef is the specification of FollowingSibling with a skip
// predicate, node by node: scanning from `from`, the first node at exactly
// level, or InvalidNode once something shallower — or a skipped block
// holding something shallower — closes the parent. The directory rules
// apply at the first node of every block but homeBlock, the one the scan
// starts inside.
func siblingRef(s *Store, doc *xmltree.Document, from xmltree.NodeID, homeBlock, level int, skip func(int) bool) xmltree.NodeID {
	for m := from; int(m) < doc.Len(); m++ {
		if k := s.PageIndexOf(m); k != homeBlock && s.PageInfoAt(k).FirstNode == m {
			pi := s.PageInfoAt(k)
			whole := int(pi.MinDepth) > level
			if !whole && skip != nil && skip(k) {
				if int(pi.MinDepth) < level {
					return xmltree.InvalidNode
				}
				whole = true
			}
			if whole {
				m = pi.FirstNode + xmltree.NodeID(pi.Count) - 1
				continue
			}
		}
		if l := doc.Level(m); l <= level {
			if l == level {
				return m
			}
			return xmltree.InvalidNode
		}
	}
	return xmltree.InvalidNode
}

// checkAgainstModel compares every primitive for every node with the
// oracle, through the stateless Store methods and through one long-lived
// cursor driven in random order.
func checkAgainstModel(t *testing.T, rng *rand.Rand, s *Store, f *flatDoc, doc *xmltree.Document, what string) {
	t.Helper()
	if s.NumNodes() != doc.Len() {
		t.Fatalf("%s: store has %d nodes, model %d", what, s.NumNodes(), doc.Len())
	}
	ctx := context.Background()
	skipSet := make([]bool, s.NumPages())
	for k := range skipSet {
		skipSet[k] = rng.Intn(3) == 0
	}
	skip := func(k int) bool { return skipSet[k] }
	cur := s.NewCursor()
	// check compares the five primitives at n: the cursor's, or — with a
	// nil cursor — the store's stateless wrappers.
	check := func(c *Cursor, n xmltree.NodeID) {
		info, fc, fs, fsSkip, end := NodeInfo{}, xmltree.InvalidNode, xmltree.InvalidNode, xmltree.InvalidNode, xmltree.InvalidNode
		var errs [5]error
		if c != nil {
			info, errs[0] = c.Info(ctx, n)
			fc, errs[1] = c.FirstChild(ctx, n)
			fs, errs[2] = c.FollowingSibling(ctx, n, nil)
			fsSkip, errs[3] = c.FollowingSibling(ctx, n, skip)
			end, errs[4] = c.SubtreeEnd(ctx, n)
		} else {
			info, errs[0] = s.Info(n)
			fc, errs[1] = s.FirstChild(n)
			fs, errs[2] = s.FollowingSibling(n)
			fsSkip, errs[3] = s.FollowingSiblingSkipCtx(ctx, n, skip)
			end, errs[4] = s.SubtreeEnd(n)
		}
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: node %d: %v", what, n, err)
			}
		}
		via := "store"
		if c != nil {
			via = "cursor"
		}
		if info.ID != n || info.Level != doc.Level(n) || info.Code != f.codes[n] || info.Entry.Tag != f.tags[n] || info.Entry.CloseCount != f.close[n] {
			t.Fatalf("%s (%s): Info(%d) = %+v, want level %d code %d tag %d close %d", what, via, n, info, doc.Level(n), f.codes[n], f.tags[n], f.close[n])
		}
		if fc != doc.FirstChild(n) {
			t.Fatalf("%s (%s): FirstChild(%d) = %d, want %d", what, via, n, fc, doc.FirstChild(n))
		}
		if fs != doc.NextSibling(n) {
			t.Fatalf("%s (%s): FollowingSibling(%d) = %d, want %d", what, via, n, fs, doc.NextSibling(n))
		}
		if want := siblingRef(s, doc, n+1, s.PageIndexOf(n), doc.Level(n), skip); fsSkip != want {
			t.Fatalf("%s (%s): FollowingSibling(%d) with skips = %d, want %d", what, via, n, fsSkip, want)
		}
		if end != doc.End(n) {
			t.Fatalf("%s (%s): SubtreeEnd(%d) = %d, want %d", what, via, n, end, doc.End(n))
		}
	}
	for _, n := range rng.Perm(doc.Len()) {
		check(nil, xmltree.NodeID(n))
		check(cur, xmltree.NodeID(n))
	}
	for k := 0; k < s.NumPages(); k++ {
		first := s.PageInfoAt(k).FirstNode
		for _, level := range []int{doc.Level(first), doc.Level(first) - 1, rng.Intn(doc.MaxDepth() + 1)} {
			if level < 0 {
				continue
			}
			for _, sk := range []func(int) bool{nil, skip} {
				want := siblingRef(s, doc, first, -1, level, sk)
				if got, err := cur.NextSiblingFromBlock(ctx, k, level, sk); err != nil || got != want {
					t.Fatalf("%s: cursor NextSiblingFromBlock(%d, level %d) = %d, %v; want %d", what, k, level, got, err, want)
				}
				if got, err := s.NewCursor().NextSiblingFromBlock(ctx, k, level, sk); err != nil || got != want {
					t.Fatalf("%s: fresh cursor NextSiblingFromBlock(%d, level %d) = %d, %v; want %d", what, k, level, got, err, want)
				}
			}
		}
	}
}

// neverReuse is a page-reuse gate that keeps every freed page quarantined,
// so each rewrite is shadow-paged onto fresh pages.
type neverReuse struct{}

func (neverReuse) Harvest() []storage.PageID { return nil }

// Property: over random documents × page sizes 128–4096 × random codes,
// every navigation primitive agrees with xmltree and the code array for
// every node — and still does after each kind of region rewrite (code
// changes in place, inserts, deletes; overwriting pages and shadow-paged),
// where the decode cache keeps the blocks of later pages while their
// FirstNode is renumbered.
func TestCursorMatchesModelAcrossRewrites(t *testing.T) {
	pageSizes := []int{128, 160, 256, 512, 1024, 4096}
	for seed := int64(0); seed < 18; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pageSize := pageSizes[int(seed)%len(pageSizes)]
		n := 40 + rng.Intn(pageSize*3/4)
		var doc *xmltree.Document
		if seed%2 == 0 {
			doc = xmlmodel.Doc(rng, n, xmlmodel.Deep)
		} else {
			doc = xmlmodel.Doc(rng, n, xmlmodel.Mixed)
		}
		codes := make(arrayCodes, doc.Len())
		c := uint32(rng.Intn(5))
		for i := range codes {
			if rng.Intn(6) == 0 {
				c = uint32(rng.Intn(5))
			}
			codes[i] = c
		}
		s := buildStore(t, doc, pageSize, BuildOptions{Codes: codes})
		shadow := seed%3 == 0
		if shadow {
			s.SetPageReuseGate(neverReuse{})
		}
		f := flatten(doc, codes)
		what := fmt.Sprintf("seed %d page %d shadow %v", seed, pageSize, shadow)
		checkAgainstModel(t, rng, s, f, doc, what+": built")

		for op := 0; op < 6; op++ {
			var frozen *Store
			frozenModel, frozenDoc := &flatDoc{append([]int32(nil), f.tags...), append([]int(nil), f.close...), append([]uint32(nil), f.codes...)}, doc
			if shadow {
				frozen = s.Freeze()
			}
			kind := [...]string{"set-access", "insert", "delete"}[op%3]
			if doc.Len() < 2 {
				kind = "set-access" // a delete took all but the root
			}
			switch kind {
			case "set-access":
				lo := rng.Intn(doc.Len())
				hi := lo + rng.Intn(doc.Len()-lo)
				nc := uint32(5 + rng.Intn(3))
				for k := lo; k <= hi; k++ {
					f.codes[k] = nc
				}
				f.rewrite(t, s, doc, lo, hi, 0)
			case "insert":
				// Leaves inserted at one position become children of the
				// node open there; enough of them split the block.
				at := 1 + rng.Intn(doc.Len()-1)
				k := 1 + rng.Intn(60)
				tags, closes, cs := make([]int32, k), make([]int, k), make([]uint32, k)
				for x := range tags {
					tags[x], closes[x], cs[x] = int32(rng.Intn(s.NumTags())), 1, uint32(rng.Intn(5))
				}
				f.splice(at, 0, tags, closes, cs)
				f.rewrite(t, s, doc, at-1, at-1, k)
			case "delete":
				// A subtree goes; the closes it carried for its ancestors
				// move to its predecessor.
				v := xmltree.NodeID(1 + rng.Intn(doc.Len()-1))
				end := doc.End(v)
				extra := -int(end - v + 1)
				for k := v; k <= end; k++ {
					extra += f.close[k]
				}
				f.close[v-1] += extra
				f.splice(int(v), int(end-v+1), nil, nil, nil)
				f.rewrite(t, s, doc, int(v)-1, int(end), -int(end-v+1))
			}
			doc = f.document(s)
			checkAgainstModel(t, rng, s, f, doc, fmt.Sprintf("%s: op %d %s", what, op, kind))
			if frozen != nil {
				// The snapshot frozen before the rewrite shares the decode
				// cache and must keep answering from its own version.
				checkAgainstModel(t, rng, frozen, frozenModel, frozenDoc, fmt.Sprintf("%s: op %d %s, frozen clone", what, op, kind))
			}
		}
	}
}

// In-block steps consult nothing but the decoded block; the context is
// checked where a block is entered, so a scan cancelled mid-block stops
// before it touches the next one.
func TestCursorCancellationAtBlockEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	doc := xmlmodel.Doc(rng, 4000, xmlmodel.Mixed)
	pool := storage.NewBufferPool(storage.NewMemPager(256), 64)
	s, err := Build(pool, doc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPages() < 3 {
		t.Fatalf("need several blocks, have %d", s.NumPages())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur := s.NewCursor()
	first := s.PageInfoAt(1).FirstNode
	if _, err := cur.Info(ctx, first); err != nil {
		t.Fatal(err)
	}
	cancel()
	gets := pool.Stats().Gets
	last := first + xmltree.NodeID(s.PageInfoAt(1).Count) - 1
	for n := first; n <= last; n++ {
		if _, err := cur.Info(ctx, n); err != nil {
			t.Fatalf("node %d of the block already at hand: %v", n, err)
		}
	}
	if _, err := cur.Info(ctx, last+1); !errors.Is(err, context.Canceled) {
		t.Fatalf("entering the next block after cancellation: %v, want context.Canceled", err)
	}
	if _, err := cur.SubtreeEnd(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubtreeEnd into another block after cancellation: %v, want context.Canceled", err)
	}
	if got := pool.Stats().Gets; got != gets {
		t.Fatalf("pool served %d Gets after cancellation", got-gets)
	}
	if got := pool.Pinned(); got != 0 {
		t.Fatalf("%d frames pinned", got)
	}
	// The failed entries left the cursor where it was.
	if _, err := cur.Info(ctx, first); err != nil {
		t.Fatal(err)
	}
}

// One block visit is one pool Get, however many of the block's nodes are
// then asked about, and a node outside the store is an error, not a panic.
func TestCursorGetsPerBlockVisit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	doc := xmlmodel.Doc(rng, 3000, xmlmodel.Mixed)
	pool := storage.NewBufferPool(storage.NewMemPager(512), 64)
	s, err := Build(pool, doc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cur := s.NewCursor()
	pool.ResetStats()
	for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
		if _, err := cur.Info(ctx, n); err != nil {
			t.Fatal(err)
		}
		if _, err := cur.FirstChild(ctx, n); err != nil {
			t.Fatal(err)
		}
	}
	if st := pool.Stats(); st.Gets != int64(s.NumPages()) || st.Gets != st.Hits+st.Misses {
		t.Fatalf("document-order scan of %d blocks: %+v", s.NumPages(), st)
	}
	for _, n := range []xmltree.NodeID{-1, xmltree.NodeID(doc.Len())} {
		if _, err := cur.Info(ctx, n); err == nil {
			t.Fatalf("Info(%d) succeeded", n)
		}
		if _, err := cur.FollowingSibling(ctx, n, nil); err == nil {
			t.Fatalf("FollowingSibling(%d) succeeded", n)
		}
		if _, err := cur.SubtreeEnd(ctx, n); err == nil {
			t.Fatalf("SubtreeEnd(%d) succeeded", n)
		}
	}
	if _, err := cur.NextSiblingFromBlock(ctx, s.NumPages()+1, 0, nil); err == nil {
		t.Fatal("NextSiblingFromBlock past the directory succeeded")
	}
}

// A directory that disagrees with the page (a torn write, a corrupt meta
// file) fails the lookup with an error.
func TestCorruptBlockFailsLookup(t *testing.T) {
	doc := fig2doc(t)
	s := buildStore(t, doc, 64, BuildOptions{})
	pid := s.PageInfoAt(0).Page
	for _, corrupt := range []func(data []byte){
		func(data []byte) { data[10], data[11] = 0xFF, 0xFF }, // dataLen beyond the page
		func(data []byte) { data[8]++ },                       // count disagrees
		func(data []byte) { data[headerSize+1] = 0x7F },       // close count below the root
	} {
		f, err := s.pool.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		saved := append([]byte(nil), f.Data...)
		corrupt(f.Data)
		s.invalidateDecoded(pid)
		if _, err := s.Info(0); err == nil {
			t.Error("lookup in a corrupt block succeeded")
		}
		if _, err := s.SubtreeEnd(0); err == nil {
			t.Error("SubtreeEnd in a corrupt block succeeded")
		}
		copy(f.Data, saved)
		if err := s.pool.Unpin(pid, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Info(0); err != nil {
		t.Fatalf("restored block: %v", err)
	}
}

// BenchmarkCursorScan visits the children of a wide node — FIRST-CHILD,
// then per child the node's info (tag, level, code in force) and
// FOLLOWING-SIBLING — the inner loop of ε-NoK matching. "cursor" is one
// Cursor carried through the scan, "stateless" the Store methods, a block
// visit per call; ns/op and allocs/op are per child.
func BenchmarkCursorScan(b *testing.B) {
	xb := xmltree.NewBuilder()
	xb.Begin("r")
	for i := 0; i < 4000; i++ {
		xb.Begin("item")
		for _, tag := range []string{"x", "y", "z"} {
			xb.Begin(tag)
			xb.End()
		}
		xb.End()
	}
	xb.End()
	doc := xb.MustFinish()
	pool := storage.NewBufferPool(storage.NewMemPager(4096), 256)
	s, err := Build(pool, doc, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	children := len(doc.Children(0))
	b.Run("cursor", func(b *testing.B) {
		b.ReportAllocs()
		cur := s.NewCursor()
		for i := 0; i < b.N; i += children {
			v, err := cur.FirstChild(ctx, 0)
			for ; err == nil && v != xmltree.InvalidNode; v, err = cur.FollowingSibling(ctx, v, nil) {
				if _, err = cur.Info(ctx, v); err != nil {
					break
				}
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stateless", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += children {
			v, err := s.FirstChild(0)
			for ; err == nil && v != xmltree.InvalidNode; v, err = s.FollowingSibling(v) {
				if _, err = s.Info(v); err != nil {
					break
				}
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
