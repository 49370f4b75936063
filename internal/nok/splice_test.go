package nok

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dolxml/internal/pathsum"
	"dolxml/internal/storage"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// recodeTwins builds two identical stores of doc under codes: one takes a
// recode as an access update does (RecodeBlock, RecodeRegion when the
// splice does not fit), the other always lays the block out again.
func recodeTwins(t testing.TB, doc *xmltree.Document, codes arrayCodes, pageSize int) (splice, relayout *Store) {
	t.Helper()
	opts := BuildOptions{Codes: codes, FillPercent: 90}
	return buildStore(t, doc, pageSize, opts), buildStore(t, doc, pageSize, opts)
}

// recodeOutcome is what applyRecode saw.
type recodeOutcome struct {
	spliced             bool
	changeBefore, after bool // block i's change bit before and after
}

// applyRecode gives entries [from, from+len(codes)) of block i the codes in
// force codes on both twins. It renormalizes the transition flags as
// dol.setRangeACL does: the splice gets the window — the range and the
// entry after it — and the relayout the whole block.
func applyRecode(t testing.TB, a, b *Store, i, from int, codes []uint32) recodeOutcome {
	t.Helper()
	pi := a.PageInfoAt(i)
	entries, inForce, err := a.AppendEntries(nil, nil, i, 0, pi.Count)
	if err != nil {
		t.Fatal(err)
	}
	to := from + len(codes) - 1
	copy(inForce[from:], codes)
	for k := range entries {
		entries[k].HasCode = k > 0 && inForce[k] != inForce[k-1]
		entries[k].Code = 0
		if entries[k].HasCode {
			entries[k].Code = inForce[k]
		}
	}
	window := entries[from:min(to+2, len(entries))]
	out := recodeOutcome{changeBefore: pi.ChangeBit}
	numbering := a.Paths().Numbering()
	if out.spliced, err = a.RecodeBlock(i, from, window, inForce[0]); err != nil {
		t.Fatalf("splice of [%d,%d] in block %d: %v", from, to, i, err)
	}
	if a.Paths().Numbering() != numbering {
		t.Fatalf("the splice of [%d,%d] in block %d rebuilt the path summary", from, to, i)
	}
	if !out.spliced {
		if _, err := a.RecodeRegion(i, i, entries, int(pi.StartDepth), inForce[0], from, to); err != nil {
			t.Fatal(err)
		}
	}
	n, err := b.RecodeRegion(i, i, entries, int(pi.StartDepth), inForce[0], from, to)
	if err != nil {
		t.Fatal(err)
	}
	if n > 1 {
		checkEvenSplit(t, b, i, n, entries)
	}
	out.after = a.PageInfoAt(i).ChangeBit
	return out
}

// checkEvenSplit holds the n blocks from i, which a relayout of entries
// spread over more blocks than it replaced, to an even split: each holds at
// least (capacity − 2 × the largest entry) / 2 bytes, so no block is a
// spill of an entry or two that the next growing update overflows again.
func checkEvenSplit(t testing.TB, s *Store, i, n int, entries []Entry) {
	t.Helper()
	largest := 0
	for _, e := range entries {
		largest = max(largest, entrySize(e))
	}
	capBytes := s.pool.Pager().PageSize() - headerSize
	for k := i; k < i+n; k++ {
		data := pageBytes(t, s, s.dir[k].Page)
		if got := int(binary.LittleEndian.Uint16(data[10:12])); 2*got < capBytes-2*largest {
			t.Fatalf("block %d of a %d-block relayout holds %d bytes of %d, the largest entry %d", k, n, got, capBytes, largest)
		}
	}
}

// pageBytes returns a copy of page pid's bytes.
func pageBytes(t testing.TB, s *Store, pid storage.PageID) []byte {
	t.Helper()
	f, err := s.pool.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	data := slices.Clone(f.Data)
	if err := s.pool.Unpin(pid, false); err != nil {
		t.Fatal(err)
	}
	return data
}

// checkCached holds the decode cache's entry for block i, if it has one,
// equal to a decode of the block's page: the same index and, once a splice
// has taken them, the same offset marks. It reports whether the block was
// cached.
func checkCached(t testing.TB, s *Store, i int) bool {
	t.Helper()
	pi := s.dir[i]
	s.dec.mu.RLock()
	e := s.dec.m[pi.Page]
	s.dec.mu.RUnlock()
	if e == nil {
		return false
	}
	data := pageBytes(t, s, pi.Page)
	fresh, err := decodeBlock(pi, data)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(e.slots, fresh) {
		t.Fatalf("block %d cached as %+v, decodes as %+v", i, e.slots, fresh)
	}
	marks := offsetMarks(data[headerSize:headerSize+int(binary.LittleEndian.Uint16(data[10:12]))], pi.Count)
	if e.marks != nil && !slices.Equal(e.marks, marks) {
		t.Fatalf("block %d cached with offset marks %v, its page has %v", i, e.marks, marks)
	}
	return true
}

// checkTwins holds the spliced store against its relayout twin: the same
// directory and the same bytes on every page, the decode cache's index and
// offset marks of every cached block equal to a decode of its page, the
// same path-class modes, and a store that passes CheckConsistency.
func checkTwins(t testing.TB, a, b *Store, i int) {
	t.Helper()
	if !slices.Equal(a.dir, b.dir) {
		t.Fatalf("directories differ:\nsplice   %+v\nrelayout %+v", a.dir, b.dir)
	}
	for k, pi := range a.dir {
		if pa, pb := pageBytes(t, a, pi.Page), pageBytes(t, b, pi.Page); !bytes.Equal(pa, pb) {
			t.Fatalf("block %d (page %d) bytes differ:\nsplice   %x\nrelayout %x", k, pi.Page, pa, pb)
		}
	}
	for k := range a.dir {
		checkCached(t, a, k)
	}
	// The twins were built apart, so their numberings differ in identity;
	// a recode adds no class, so they number alike.
	if pa, pb := a.Paths(), b.Paths(); pa.NumNodes() == pb.NumNodes() {
		for id := range pa.NumNodes() {
			if na, nb := pa.NodeAt(int32(id)), pb.NodeAt(int32(id)); na != nb {
				t.Fatalf("class %d is %+v after the splice, %+v after the relayout", id, na, nb)
			}
		}
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// runCodes returns n codes in force in runs, as access controls fall.
func runCodes(rng *rand.Rand, n int) arrayCodes {
	codes := make(arrayCodes, n)
	cur := uint32(rng.Intn(4))
	for k := range codes {
		if rng.Intn(6) == 0 {
			cur = uint32(rng.Intn(4))
		}
		codes[k] = cur
	}
	return codes
}

// TestRecodeBlockMatchesRelayout is the splice's differential test: on
// Mixed, Deep and XMark documents, at the default page size and at a small
// one where splices overflow often, random recodes — a random range of a
// block, its distinct codes mapped as an ACL edit maps them — leave the
// spliced store byte for byte what laying the block out again leaves, with
// a decode cache that agrees with the pages, on a store that writes a block
// back onto its own page and on one that shadow-pages it. Each
// configuration also runs
// the named cases: a range at block offset 0 (the header's code changes), a
// range ending on the block's last entry, a grant that removes the block's
// only transition (the change bit clears) and a window that overflows (the
// relayout is taken).
func TestRecodeBlockMatchesRelayout(t *testing.T) {
	for _, shape := range []struct {
		name  string
		shape xmlmodel.Shape
	}{{"mixed", xmlmodel.Mixed}, {"deep", xmlmodel.Deep}, {"xmark", xmlmodel.XMark}} {
		for _, pageSize := range []int{storage.DefaultPageSize, 96} {
			for _, gated := range []bool{false, true} {
				name := shape.name + "/" + map[int]string{storage.DefaultPageSize: "default", 96: "small"}[pageSize]
				if gated {
					name += "/gated"
				}
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(pageSize) + int64(shape.shape)))
					nodes, ops := 3000, 80
					if pageSize < storage.DefaultPageSize {
						nodes, ops = 600, 200
					}
					doc := xmlmodel.Doc(rng, nodes, shape.shape)
					a, b := recodeTwins(t, doc, runCodes(rng, doc.Len()), pageSize)
					if gated {
						// Shadow paging: every block lands on a fresh page.
						a.SetPageReuseGate(neverReuse{})
						b.SetPageReuseGate(neverReuse{})
					}
					splices, relayouts := 0, 0
					count := func(o recodeOutcome) {
						if o.spliced {
							splices++
						} else {
							relayouts++
						}
					}
					// The named cases first, while every block but the last is
					// packed to 90 %. A window whose every entry becomes a
					// transition outgrows any such block.
					if a.NumPages() < 2 {
						t.Fatalf("%d blocks", a.NumPages())
					}
					i := rng.Intn(a.NumPages() - 1)
					pi := a.PageInfoAt(i)
					alt := make([]uint32, pi.Count-1)
					for k := range alt {
						alt[k] = pi.AccessCode + 1 + uint32(k%2)
					}
					o := applyRecode(t, a, b, i, 1, alt)
					count(o)
					checkTwins(t, a, b, i)
					if o.spliced {
						t.Fatalf("a transition on each of block %d's %d entries still fit its page", i, pi.Count)
					}

					// A block with one transition run [lo, hi]: granting the run
					// the header's code back clears the change bit.
					i = rng.Intn(a.NumPages())
					pi = a.PageInfoAt(i)
					if pi.Count < 3 {
						t.Fatalf("block %d has %d entries", i, pi.Count)
					}
					count(applyRecode(t, a, b, i, 0, slices.Repeat([]uint32{pi.AccessCode}, pi.Count)))
					checkTwins(t, a, b, i)
					lo := 1 + rng.Intn(pi.Count-1)
					hi := lo + rng.Intn(pi.Count-lo)
					count(applyRecode(t, a, b, i, lo, slices.Repeat([]uint32{pi.AccessCode + 1}, hi-lo+1)))
					checkTwins(t, a, b, i)
					o = applyRecode(t, a, b, i, lo, slices.Repeat([]uint32{pi.AccessCode}, hi-lo+1))
					count(o)
					checkTwins(t, a, b, i)
					if !o.changeBefore || o.after {
						t.Fatalf("granting block %d's only transition run [%d,%d] back: change bit %v → %v, want true → false", i, lo, hi, o.changeBefore, o.after)
					}

					for op := 0; op < ops; op++ {
						i = rng.Intn(a.NumPages())
						pi = a.PageInfoAt(i)
						from := rng.Intn(pi.Count)
						to := from + rng.Intn(min(pi.Count-from, 1+rng.Intn(40)))
						switch op % 4 {
						case 1:
							from = 0
						case 2:
							to = pi.Count - 1
						}
						_, old, err := a.AppendEntries(nil, nil, i, from, to+1)
						if err != nil {
							t.Fatal(err)
						}
						if rng.Intn(2) == 0 {
							// Fresh codes, which add transitions.
							for k := range old {
								old[k] = uint32(rng.Intn(5))
							}
						} else {
							// An ACL edit: each distinct code maps to one.
							edit := map[uint32]uint32{}
							for k, c := range old {
								nw, ok := edit[c]
								if !ok {
									nw = uint32(rng.Intn(5))
									edit[c] = nw
								}
								old[k] = nw
							}
						}
						if op%4 == 1 {
							old[0] = pi.AccessCode + 1 // the header's code changes
						}
						count(applyRecode(t, a, b, i, from, old))
						checkTwins(t, a, b, i)
					}

					t.Logf("%d spliced, %d laid out again", splices, relayouts)
					if splices < 20 || (pageSize < storage.DefaultPageSize && relayouts < 10) {
						t.Fatalf("%d splices and %d relayouts: the configuration no longer exercises both", splices, relayouts)
					}
					if got := a.recodes.splices.Load(); got != int64(splices) {
						t.Fatalf("recode_splices counted %d, %d splices made", got, splices)
					}
				})
			}
		}
	}
}

// TestRecodeWithoutVerdictChangeKeepsSummary: a recode whose classes all
// keep their mode and code installs no new path summary — the store keeps
// the pointer it had — while one that moves a class's verdict installs a
// clone and leaves the old summary as it was for the snapshots that share
// it.
func TestRecodeWithoutVerdictChangeKeepsSummary(t *testing.T) {
	doc := fig2doc(t) // <a><b/><c/><d/><e>…</e></a>: c is node 2, in a class of its own
	a, b := recodeTwins(t, doc, make(arrayCodes, doc.Len()), storage.DefaultPageSize)
	before := a.Paths()
	tagA, _ := a.LookupTag("a")
	tagC, _ := a.LookupTag("c")
	root, _ := before.ChildOf(-1, tagA)
	c, _ := before.ChildOf(root, tagC)
	if o := applyRecode(t, a, b, 0, 2, []uint32{1}); !o.spliced {
		t.Fatal("one recoded leaf did not splice")
	}
	checkTwins(t, a, b, 0)
	mixed := a.Paths()
	if mixed == before || mixed.NodeAt(c).Mode != pathsum.CodeMixed || before.NodeAt(c).Mode == pathsum.CodeMixed {
		t.Fatalf("the first recode of c: summary %p → %p, class mode %d → %d", before, mixed, before.NodeAt(c).Mode, mixed.NodeAt(c).Mode)
	}
	applyRecode(t, a, b, 0, 2, []uint32{0})
	checkTwins(t, a, b, 0)
	if a.Paths() != mixed {
		t.Fatal("a recode that changed no class's verdict installed a new summary")
	}
}

// recodeLast gives the last entry of block i the code in force code by
// splicing the block, and returns the bytes the splice allocated.
func recodeLast(t *testing.T, s *Store, i int, code uint32) uint64 {
	t.Helper()
	pi := s.PageInfoAt(i)
	last := pi.Count - 1
	window, _, err := s.AppendEntries(nil, nil, i, last, last+1)
	if err != nil {
		t.Fatal(err)
	}
	window[0].HasCode, window[0].Code = true, code
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	spliced, err := s.RecodeBlock(i, last, window, pi.AccessCode)
	runtime.ReadMemStats(&after)
	if err != nil || !spliced {
		t.Fatalf("recoding block %d's last entry: spliced %v, %v", i, spliced, err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestSpliceLeavesSnapshotIndex: a frozen clone's cursor holds block i's
// cached index while the live store splices the block twice. The first
// splice finds the index shared and patches a copy; the second patches its
// own copy in place. The clone's cursor still sees the old codes, and so
// does a fresh read through the clone, which decodes the old page (a gated
// store never overwrites it).
func TestSpliceLeavesSnapshotIndex(t *testing.T) {
	doc := xmlmodel.Doc(rand.New(rand.NewSource(5)), 2000, xmlmodel.XMark)
	s := buildStore(t, doc, storage.DefaultPageSize, BuildOptions{Codes: make(arrayCodes, doc.Len()), FillPercent: 90})
	s.SetPageReuseGate(neverReuse{})
	const i = 0
	pi := s.PageInfoAt(i)
	last := pi.FirstNode + xmltree.NodeID(pi.Count-1)
	snap := s.Freeze()
	cur := snap.NewCursor()
	ctx := context.Background()
	if code, err := cur.Code(ctx, last); err != nil || code != 0 {
		t.Fatalf("the clone reads code %d (%v) at node %d before any splice", code, err, last)
	}
	recodeLast(t, s, i, 1)
	recodeLast(t, s, i, 2)
	if code, err := s.AccessCodeAt(last); err != nil || code != 2 {
		t.Fatalf("the live store reads code %d (%v) at node %d after the splices, want 2", code, err, last)
	}
	for n := pi.FirstNode; n <= last; n++ {
		if code, err := cur.Code(ctx, n); err != nil || code != 0 {
			t.Fatalf("the clone's cursor reads code %d (%v) at node %d after the splices, want 0", code, err, n)
		}
	}
	for n := pi.FirstNode; n <= last; n++ {
		if code, err := snap.AccessCodeAt(n); err != nil || code != 0 {
			t.Fatalf("a fresh read through the clone gets code %d (%v) at node %d, want 0", code, err, n)
		}
	}
}

// TestSpliceCopiesNoUnreadIndex: on a store no clone has read, a one-node
// recode at the end of a block of 1,500 entries or more patches the cached
// index in place, finds the entry's bytes from an offset mark and its
// summary context by descent, and so allocates under 2 KiB — a copy of the
// index alone is 16 bytes an entry. The first recode moves the node's class
// to mixed, which clones the summary; the second is measured.
func TestSpliceCopiesNoUnreadIndex(t *testing.T) {
	doc := xmlmodel.Doc(rand.New(rand.NewSource(3)), 6000, xmlmodel.XMark)
	s := buildStore(t, doc, storage.DefaultPageSize, BuildOptions{Codes: make(arrayCodes, doc.Len()), FillPercent: 90})
	const i = 0
	if n := s.PageInfoAt(i).Count; n < 1500 {
		t.Fatalf("block %d holds %d entries", i, n)
	}
	recodeLast(t, s, i, 1)
	if got := recodeLast(t, s, i, 2); got >= 2048 {
		t.Fatalf("a one-node splice allocated %d bytes", got)
	}
}
