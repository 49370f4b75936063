package nok

import (
	"math/rand"
	"testing"

	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// Oracle property for the incrementally maintained path summary: after any
// sequence of region rewrites — identity rewrites, leaf inserts, leaf
// deletes, inline code toggles, multi-block regions, including rewrites
// whose replay cannot line up and force the rebuild fallback — the
// maintained summary verifies against one rebuilt from scratch out of the
// block contents. Code toggles go through RecodeRegion: those that keep
// every block boundary take the code-only summary path, those that split a
// block must not.
func TestPathSummaryOracleAfterRandomUpdates(t *testing.T) {
	recoded, split := 0, 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := xmlmodel.Doc(rng, 30+rng.Intn(200), xmlmodel.Deep)
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
				es, err := blockEntries(s, b)
				if err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				if b > i {
					// A later block's first code lives in its header.
					es[0].HasCode, es[0].Code = true, s.PageInfoAt(b).AccessCode
				}
				entries = append(entries, es...)
			}
			pi := s.PageInfoAt(i)
			lo, hi := 0, -1

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
				lo, hi = at, at
				for hi+1 < len(entries) && !entries[hi+1].HasCode {
					hi++
				}
			default: // identity rewrite
			}

			var counts []int
			for b := i; b <= j; b++ {
				counts = append(counts, s.PageInfoAt(b).Count)
			}
			var n int
			var err error
			if lo <= hi {
				n, err = s.RecodeRegion(i, j, entries, int(pi.StartDepth), pi.AccessCode, lo, hi)
			} else {
				n, err = s.RewriteRegion(i, j, entries, int(pi.StartDepth), pi.AccessCode)
			}
			if err != nil {
				t.Fatalf("seed %d op %d: rewrite [%d,%d]: %v", seed, op, i, j, err)
			}
			if lo <= hi {
				kept := n == len(counts)
				for b := 0; kept && b < n; b++ {
					kept = s.PageInfoAt(i+b).Count == counts[b]
				}
				if kept {
					recoded++
				} else {
					split++
				}
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
	t.Logf("code toggles: %d kept the layout, %d moved it", recoded, split)
	if recoded < 10 || split == 0 {
		t.Fatalf("code toggles kept the layout %d times and moved it %d times; want ≥ 10 and ≥ 1", recoded, split)
	}
}

// checkClassExtents holds the classes ClassExtents gives against the
// store's summary: a node's class carries its tag and has its parent's class
// as parent.
func checkClassExtents(t *testing.T, s *Store) {
	t.Helper()
	x, err := s.ClassExtents()
	if err != nil {
		t.Fatal(err)
	}
	sum := s.Paths()
	var open []xmltree.NodeID
	for n, p := range x.Postings {
		if p.Node != xmltree.NodeID(n) {
			t.Fatalf("posting %d is node %d's", n, p.Node)
		}
		for len(open) > 0 && x.Postings[open[len(open)-1]].End < xmltree.NodeID(n) {
			open = open[:len(open)-1]
		}
		parent := int32(-1)
		if len(open) > 0 {
			parent = x.Classes[open[len(open)-1]]
		}
		tag, err := s.Tag(xmltree.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		if c := sum.NodeAt(x.Classes[n]); c.Tag != tag || c.Parent != parent {
			t.Fatalf("node %d (tag %d, parent class %d) has class %d = %+v", n, tag, parent, x.Classes[n], c)
		}
		open = append(open, xmltree.NodeID(n))
	}
}

// The rebuild fallback: a rewrite that renames the region's trailing
// context cannot replay incrementally (the exit context changes), yet the
// store must come back with a correct summary.
func TestPathSummaryRebuildFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	doc := xmlmodel.Doc(rng, 120, xmlmodel.Deep)
	s := buildStore(t, doc, 64, BuildOptions{})
	if s.NumPages() < 3 {
		t.Skip("need several blocks")
	}
	// Rewrite block 0 so its exit context walks a different label path:
	// wrap the remainder of the document by renaming the root's tag.
	entries, err := blockEntries(s, 0)
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
