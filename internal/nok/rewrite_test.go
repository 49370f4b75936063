package nok

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dolxml/internal/storage"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// blockEntries decodes the entries of block i exactly as stored.
func blockEntries(s *Store, i int) ([]Entry, error) {
	if i < 0 || i >= len(s.dir) {
		return nil, fmt.Errorf("nok: invalid block %d of %d", i, len(s.dir))
	}
	es, _, err := s.AppendEntries(nil, nil, i, 0, s.dir[i].Count)
	return es, err
}

// validate cross-checks the in-memory directory against the on-disk block
// contents and the store's node count.
func validate(t *testing.T, s *Store) {
	t.Helper()
	next := xmltree.NodeID(0)
	for i := range s.dir {
		pi := s.dir[i]
		if pi.FirstNode != next {
			t.Fatalf("block %d starts at %d, want %d", i, pi.FirstNode, next)
		}
		entries, err := blockEntries(s, i)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != pi.Count {
			t.Fatalf("block %d decoded %d entries, directory says %d", i, len(entries), pi.Count)
		}
		if entries[0].HasCode {
			t.Fatalf("block %d first entry carries an inline code", i)
		}
		// MinDepth and ChangeBit re-derivable.
		level := int(pi.StartDepth)
		min := level
		change := false
		for _, e := range entries {
			if level < min {
				min = level
			}
			if e.HasCode {
				change = true
			}
			level = level + 1 - e.CloseCount
		}
		if int(pi.MinDepth) != min {
			t.Fatalf("block %d MinDepth %d, recomputed %d", i, pi.MinDepth, min)
		}
		if pi.ChangeBit != change {
			t.Fatalf("block %d ChangeBit %v, recomputed %v", i, pi.ChangeBit, change)
		}
		next += xmltree.NodeID(pi.Count)
	}
	if int(next) != s.numNodes {
		t.Fatalf("blocks cover %d nodes, store says %d", next, s.numNodes)
	}
}

func TestRewriteRegionIdentity(t *testing.T) {
	doc := fig2doc(t)
	codes := arrayCodes{1, 1, 2, 2, 0, 0, 0, 1, 1, 2, 2, 2}
	for _, pageSize := range []int{64, 4096} {
		pool := storage.NewBufferPool(storage.NewMemPager(pageSize), 64)
		s, err := Build(pool, doc, BuildOptions{Codes: codes})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.NumPages(); i++ {
			entries, err := blockEntries(s, i)
			if err != nil {
				t.Fatal(err)
			}
			pi := s.PageInfoAt(i)
			n, err := s.RewriteRegion(i, i, entries, int(pi.StartDepth), pi.AccessCode)
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Fatalf("identity rewrite split into %d blocks", n)
			}
		}
		validate(t, s)
		for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
			if c, err := s.AccessCodeAt(n); err != nil || c != codes[n] {
				t.Fatalf("code at %d changed after identity rewrite", n)
			}
			if fs, err := s.FollowingSibling(n); err != nil || fs != doc.NextSibling(n) {
				t.Fatalf("navigation broken at %d", n)
			}
		}
	}
}

func TestRewriteRegionGrowSplits(t *testing.T) {
	doc := fig2doc(t)
	pool := storage.NewBufferPool(storage.NewMemPager(64), 64)
	s, err := Build(pool, doc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := s.NumPages()
	// Inflate block 0 by inserting many leaf entries under the root.
	entries, err := blockEntries(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	pi := s.PageInfoAt(0)
	var grown []Entry
	grown = append(grown, entries[0]) // root stays first
	for i := 0; i < 30; i++ {
		grown = append(grown, Entry{Tag: 1, CloseCount: 1})
	}
	grown = append(grown, entries[1:]...)
	n, err := s.RewriteRegion(0, 0, grown, int(pi.StartDepth), pi.AccessCode)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("grow rewrite produced %d blocks, want a split", n)
	}
	if s.NumPages() <= before {
		t.Fatalf("page count %d did not grow", s.NumPages())
	}
	if s.NumNodes() != doc.Len()+30 {
		t.Fatalf("NumNodes = %d", s.NumNodes())
	}
	validate(t, s)
}

func TestRewriteRegionShrinkFreesPages(t *testing.T) {
	// A root with 80 leaf children: about two bytes an entry, so the
	// document spans several 64-byte blocks.
	doc := xmltree.MustParseString("<a>" + strings.Repeat("<b/>", 80) + "</a>")
	pool := storage.NewBufferPool(storage.NewMemPager(64), 64)
	s, err := Build(pool, doc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPages() < 3 {
		t.Fatalf("the document fills %d blocks; the test needs at least 3", s.NumPages())
	}
	// Collapse the last two blocks into the content of just the first of
	// them.
	i := s.NumPages() - 2
	entries, err := blockEntries(s, i)
	if err != nil {
		t.Fatal(err)
	}
	// Make the region's entries balanced: give the final kept entry all
	// remaining closes of the document.
	tail, err := blockEntries(s, s.NumPages()-1)
	if err != nil {
		t.Fatal(err)
	}
	dropped := len(tail)
	closes := 0
	for _, e := range tail {
		closes += e.CloseCount
	}
	closes -= dropped // the dropped subtrees' own closes disappear
	entries[len(entries)-1].CloseCount += closes
	pi := s.PageInfoAt(i)
	n, err := s.RewriteRegion(i, s.NumPages()-1, entries, int(pi.StartDepth), pi.AccessCode)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("shrink produced %d blocks", n)
	}
	if len(s.freeList) == 0 {
		t.Fatal("shrink should free a page")
	}
	if s.NumNodes() != doc.Len()-dropped {
		t.Fatalf("NumNodes = %d, want %d", s.NumNodes(), doc.Len()-dropped)
	}
	validate(t, s)
	// Freed page is reused by a growing rewrite instead of allocating.
	pagesBefore := pool.Pager().NumPages()
	entries0, _ := blockEntries(s, 0)
	var grown []Entry
	grown = append(grown, entries0[0])
	for k := 0; k < 20; k++ {
		grown = append(grown, Entry{Tag: 0, CloseCount: 1})
	}
	grown = append(grown, entries0[1:]...)
	pi0 := s.PageInfoAt(0)
	if _, err := s.RewriteRegion(0, 0, grown, int(pi0.StartDepth), pi0.AccessCode); err != nil {
		t.Fatal(err)
	}
	if pool.Pager().NumPages() != pagesBefore {
		t.Fatalf("grow allocated new pages (%d -> %d) despite free list", pagesBefore, pool.Pager().NumPages())
	}
	validate(t, s)
}

func TestRewriteRegionErrors(t *testing.T) {
	doc := fig2doc(t)
	pool := storage.NewBufferPool(storage.NewMemPager(4096), 64)
	s, err := Build(pool, doc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RewriteRegion(1, 0, nil, 0, 0); err == nil {
		t.Fatal("inverted region should fail")
	}
	if _, err := s.RewriteRegion(0, 5, []Entry{{}}, 0, 0); err == nil {
		t.Fatal("out-of-range region should fail")
	}
	if _, err := s.RewriteRegion(0, 0, nil, 0, 0); err == nil {
		t.Fatal("empty rewrite should fail")
	}
	if _, err := blockEntries(s, 99); err == nil {
		t.Fatal("invalid block should fail")
	}
}

func TestInternTag(t *testing.T) {
	doc := fig2doc(t)
	pool := storage.NewBufferPool(storage.NewMemPager(4096), 64)
	s, err := Build(pool, doc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := s.NumTags()
	c1 := s.InternTag("brandnew")
	c2 := s.InternTag("brandnew")
	if c1 != c2 || s.NumTags() != before+1 {
		t.Fatalf("InternTag not idempotent")
	}
	if s.TagName(c1) != "brandnew" {
		t.Fatal("tag name lost")
	}
	// Existing tags unchanged.
	if c, ok := s.LookupTag("a"); !ok || s.TagName(c) != "a" {
		t.Fatal("existing tag broken")
	}
}

func TestForEachExtentMatchesDocument(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := xmlmodel.Doc(rng, 1+rng.Intn(200), xmlmodel.Deep)
		pool := storage.NewBufferPool(storage.NewMemPager(64+rng.Intn(200)), 128)
		s, err := Build(pool, doc, BuildOptions{})
		if err != nil {
			return false
		}
		type ext struct {
			end   xmltree.NodeID
			level int
			tag   int32
		}
		got := map[xmltree.NodeID]ext{}
		err = s.ForEachExtent(func(n, end xmltree.NodeID, level int, tag int32) {
			got[n] = ext{end, level, tag}
		})
		if err != nil {
			return false
		}
		if len(got) != doc.Len() {
			return false
		}
		for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
			e, ok := got[n]
			if !ok || e.end != doc.End(n) || e.level != doc.Level(n) || e.tag != int32(doc.TagIDOf(n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckConsistency(t *testing.T) {
	doc := fig2doc(t)
	codes := arrayCodes{1, 1, 2, 2, 0, 0, 0, 1, 1, 2, 2, 2}
	pool := storage.NewBufferPool(storage.NewMemPager(64), 64)
	s, err := Build(pool, doc, BuildOptions{Codes: codes})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatalf("fresh store inconsistent: %v", err)
	}
	// Stays consistent after rewrites.
	entries, _ := blockEntries(s, 0)
	pi := s.PageInfoAt(0)
	var grown []Entry
	grown = append(grown, entries[0])
	for i := 0; i < 10; i++ {
		grown = append(grown, Entry{Tag: 1, CloseCount: 1})
	}
	grown = append(grown, entries[1:]...)
	if _, err := s.RewriteRegion(0, 0, grown, int(pi.StartDepth), pi.AccessCode); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatalf("store inconsistent after rewrite: %v", err)
	}
	// Corrupt a directory entry and expect detection.
	s.dir[0].MinDepth = 99
	if err := s.CheckConsistency(); err == nil {
		t.Fatal("corrupted MinDepth not detected")
	}
}

// TestRewriteRegionWarmsDecodeCache checks that a rewrite leaves the decode
// cache primed with each written block, and — critically — that the primed
// entries are byte-for-byte what a fresh decode of the page produces: the
// cache bypasses decodeBlock, so a divergent primed form would silently
// corrupt every later scan of the region.
func TestRewriteRegionWarmsDecodeCache(t *testing.T) {
	doc := fig2doc(t)
	pool := storage.NewBufferPool(storage.NewMemPager(64), 64)
	s, err := Build(pool, doc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := blockEntries(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	pi := s.PageInfoAt(0)
	var grown []Entry
	grown = append(grown, entries[0])
	for i := 0; i < 30; i++ {
		// Codeless entries with a stale Code field: the encoding drops the
		// field, so the primed form must have normalized it away.
		grown = append(grown, Entry{Tag: 1, CloseCount: 1, Code: 99})
	}
	grown = append(grown, entries[1:]...)
	n, err := s.RewriteRegion(0, 0, grown, int(pi.StartDepth), pi.AccessCode)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !checkCached(t, s, i) {
			t.Fatalf("block %d (page %d) not primed after rewrite", i, s.dir[i].Page)
		}
	}
	// The primed region must not cost the toggle path a decode: reading
	// every rewritten block back is all cache hits.
	h0 := s.DecodeCacheStats().Hits
	for i := 0; i < n; i++ {
		if _, err := blockEntries(s, i); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.DecodeCacheStats().Hits - h0; got != int64(n) {
		t.Fatalf("re-reading %d rewritten blocks produced %d cache hits", n, got)
	}
}
