package nok

import (
	"math/rand"
	"testing"

	"dolxml/internal/xmltree"
)

// Oracle property for the incrementally maintained path summary: after any
// sequence of region rewrites — identity rewrites, leaf inserts, leaf
// deletes, inline code toggles, multi-block regions, including rewrites
// whose replay cannot line up and force the rebuild fallback — the
// maintained summary verifies against one rebuilt from scratch out of the
// block contents.
func TestPathSummaryOracleAfterRandomUpdates(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 30+rng.Intn(200))
		codes := make(arrayCodes, doc.Len())
		cur := uint32(rng.Intn(4))
		for i := range codes {
			if rng.Intn(5) == 0 {
				cur = uint32(rng.Intn(4))
			}
			codes[i] = cur
		}
		s := buildStore(t, doc, 64+rng.Intn(128), BuildOptions{Codes: codes})
		if s.Paths() == nil {
			t.Fatalf("seed %d: build installed no path summary", seed)
		}

		for op := 0; op < 6; op++ {
			i := rng.Intn(s.NumPages())
			j := i
			if i+1 < s.NumPages() && rng.Intn(3) == 0 {
				j = i + 1
			}
			var entries []Entry
			for b := i; b <= j; b++ {
				es, err := s.BlockEntries(b)
				if err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				entries = append(entries, es...)
			}
			pi := s.PageInfoAt(i)

			switch rng.Intn(4) {
			case 0: // insert a leaf element
				tag := int32(rng.Intn(s.NumTags()))
				leaf := Entry{Tag: tag, CloseCount: 1}
				at := 1 + rng.Intn(len(entries))
				if pi.StartDepth > 0 {
					// Mid-document blocks may also take the leaf first, as
					// a preceding sibling in the carry-over context.
					at = rng.Intn(len(entries) + 1)
				}
				entries = append(entries[:at], append([]Entry{leaf}, entries[at:]...)...)
			case 1: // delete a self-closing leaf (keeps the region balanced)
				leaves := make([]int, 0, len(entries))
				for k, e := range entries {
					if e.CloseCount == 1 && len(entries) > 1 {
						leaves = append(leaves, k)
					}
				}
				if len(leaves) == 0 {
					continue
				}
				at := leaves[rng.Intn(len(leaves))]
				entries = append(entries[:at], entries[at+1:]...)
			case 2: // toggle an inline code, degrading some class's mode
				at := rng.Intn(len(entries))
				entries[at].HasCode = true
				entries[at].Code = uint32(rng.Intn(4))
			default: // identity rewrite
			}

			if _, err := s.RewriteRegion(i, j, entries, int(pi.StartDepth), pi.AccessCode); err != nil {
				t.Fatalf("seed %d op %d: rewrite [%d,%d]: %v", seed, op, i, j, err)
			}
			fresh, err := s.scanPathSummary(0, nil)
			if err != nil {
				t.Fatalf("seed %d op %d: rescan: %v", seed, op, err)
			}
			if err := s.Paths().VerifyAgainst(fresh); err != nil {
				t.Fatalf("seed %d op %d: maintained summary drifted: %v", seed, op, err)
			}
			if err := s.CheckConsistency(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			checkClassExtents(t, s)
		}
	}
}

// checkClassExtents holds the classes ForEachClassExtent reports against the
// store's summary: a node's class carries its tag, has its parent's class as
// parent, and is in its block's class set.
func checkClassExtents(t *testing.T, s *Store) {
	t.Helper()
	type ext struct {
		end        xmltree.NodeID
		tag, class int32
	}
	exts := make([]ext, s.NumNodes())
	if err := s.ForEachClassExtent(func(n, end xmltree.NodeID, _ int, tag, class int32) {
		exts[n] = ext{end, tag, class}
	}); err != nil {
		t.Fatal(err)
	}
	sum := s.Paths()
	var open []xmltree.NodeID
	for n := range exts {
		for len(open) > 0 && exts[open[len(open)-1]].end < xmltree.NodeID(n) {
			open = open[:len(open)-1]
		}
		parent := int32(-1)
		if len(open) > 0 {
			parent = exts[open[len(open)-1]].class
		}
		e := exts[n]
		if c := sum.NodeAt(e.class); c.Tag != e.tag || c.Parent != parent || !sum.Block(s.PageIndexOf(xmltree.NodeID(n))).Has(e.class) {
			t.Fatalf("node %d (tag %d, parent class %d) has class %d = %+v", n, e.tag, parent, e.class, c)
		}
		open = append(open, xmltree.NodeID(n))
	}
}

// The rebuild fallback: a rewrite that renames the region's trailing
// context cannot replay incrementally (the exit context changes), yet the
// store must come back with a correct summary.
func TestPathSummaryRebuildFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	doc := randomDoc(rng, 120)
	s := buildStore(t, doc, 64, BuildOptions{})
	if s.NumPages() < 3 {
		t.Skip("need several blocks")
	}
	// Rewrite block 0 so its exit context walks a different label path:
	// wrap the remainder of the document by renaming the root's tag.
	entries, err := s.BlockEntries(0)
	if err != nil {
		t.Fatal(err)
	}
	entries[0].Tag = int32(s.NumTags() - 1)
	if entries[0].Tag == 0 {
		t.Skip("need a second tag to rename the root")
	}
	if _, err := s.RewriteRegion(0, 0, entries, 0, 0); err != nil {
		t.Fatal(err)
	}
	fresh, err := s.scanPathSummary(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Paths().VerifyAgainst(fresh); err != nil {
		t.Fatalf("summary wrong after rebuild fallback: %v", err)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	checkClassExtents(t, s)
}
