package dol

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
)

// intern interns a dense ACL, as the builders do.
func intern(cb *Codebook, a *bitset.Bitset) Code { return cb.Intern(a.Runs()) }

// checkInternDedup interns a, an equal row, a distinct row c and the empty
// ACL: equal rows share a code, the others do not, and the stored row
// grants subject granted but not subject no.
func checkInternDedup(t *testing.T, subjects int, a, same, c []bitset.Run, granted, no acl.SubjectID) {
	t.Helper()
	cb := NewCodebook(subjects)
	ca := cb.Intern(a)
	if got := cb.Intern(same); got != ca {
		t.Fatalf("equal ACLs got different codes %d vs %d", got, ca)
	}
	if cc := cb.Intern(c); cc == ca {
		t.Fatal("distinct ACLs share a code")
	}
	empty := cb.Intern(nil)
	if cb.Len() != 3 || cb.Intern([]bitset.Run{}) != empty {
		t.Fatalf("Len = %d, want 3 with one empty ACL", cb.Len())
	}
	if !cb.Accessible(ca, granted) || cb.Accessible(ca, no) || cb.Accessible(empty, 0) {
		t.Fatal("the rows disagree with their bounds")
	}
}

func TestCodebookInternDedup(t *testing.T) {
	checkInternDedup(t, 4, bitset.FromIndices(4, 0, 2).Runs(), bitset.FromIndices(4, 0, 2).Runs(), bitset.FromIndices(4, 1).Runs(), 2, 1)
}

// Run rows over a wide population dedup as dense-sized ones do.
func TestRunCodebookInternDedup(t *testing.T) {
	checkInternDedup(t, 1000, []bitset.Run{{Start: 0, Len: 100}}, []bitset.Run{{Start: 0, Len: 100}}, []bitset.Run{{Start: 0, Len: 101}}, 99, 100)
}

func TestCodebookInternCopies(t *testing.T) {
	cb := NewCodebook(4)
	a := bitset.FromIndices(4, 0)
	c := intern(cb, a)
	a.Set(3) // mutate caller's bitset
	if cb.Accessible(c, 3) {
		t.Fatal("codebook aliases caller's bitset")
	}
}

// A clone shares the entries' rows, so a subject-column operation on
// either side must leave the other's ACLs as they were.
func TestCodebookCloneSubjectColumns(t *testing.T) {
	cb := NewCodebook(3)
	c0 := intern(cb, bitset.FromIndices(3, 0, 2))
	c1 := intern(cb, bitset.FromIndices(3, 1))
	want := []string{cb.ACL(c0).String(), cb.ACL(c1).String()}
	unmoved := func(op string) {
		t.Helper()
		if got := []string{cb.ACL(c0).String(), cb.ACL(c1).String()}; got[0] != want[0] || got[1] != want[1] || cb.NumSubjects() != 3 {
			t.Fatalf("%s on a clone moved the original's ACLs: %q, want %q", op, got, want)
		}
	}
	if _, err := cb.Clone().AddSubjectLike(0); err != nil {
		t.Fatal(err)
	}
	unmoved("AddSubjectLike")
	clone := cb.Clone()
	cb.AddSubject()
	if clone.NumSubjects() != 3 || len(clone.ACL(c0).String()) != 3 {
		t.Fatal("AddSubject on the original resized its clone")
	}
}

// A clone shares its original's ACL index until either side inserts or
// deletes. The frozen original — what a snapshot reads while the live copy
// interns and frees — must keep its codes, entries and size; readers race
// the writer here, so -race sees any write to the shared map.
func TestCodebookCloneIndexCopyOnWrite(t *testing.T) {
	frozen := NewCodebook(8)
	acls := make([]*bitset.Bitset, 6)
	for i := range acls {
		acls[i] = bitset.FromIndices(8, i, i+1)
		frozen.Retain(intern(frozen, acls[i]))
	}
	live := frozen.Clone()
	if len(live.index) != len(frozen.index) || !live.sharedIndex {
		t.Fatal("Clone did not share the index")
	}
	check := func() {
		if frozen.Len() != len(acls) || len(frozen.index) != len(acls) {
			t.Errorf("frozen codebook changed size: Len %d, index %d", frozen.Len(), len(frozen.index))
			return
		}
		for i, a := range acls {
			if c, ok := frozen.index[rowKey(a.Runs())]; !ok || c != Code(i) || !frozen.ACL(c).EqualBits(a) {
				t.Errorf("frozen lookup of ACL %d: code %d, %v", i, c, ok)
			}
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					check()
				}
			}
		}()
	}
	// A hit copies nothing; a freed entry, a new ACL and a new subject
	// column each write the map, each first on its own clone.
	if intern(live, acls[2]) != 2 || !live.sharedIndex {
		t.Error("an Intern hit copied the index")
	}
	live.Release(1)
	fresh := frozen.Clone()
	fresh.Retain(intern(fresh, bitset.FromIndices(8, 7)))
	if _, err := frozen.Clone().AddSubjectLike(3); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
	check()
	if _, ok := live.index[rowKey(acls[1].Runs())]; ok {
		t.Error("the live copy still indexes its freed entry")
	}
	// Either side of a Clone copies at its first write: an insert on the
	// original does not reach the clone.
	next := live.Clone()
	intern(live, bitset.FromIndices(8, 0))
	if _, ok := next.index[rowKey(bitset.FromIndices(8, 0).Runs())]; ok {
		t.Error("an insert on the original reached its clone")
	}
}

func TestCodebookAccessible(t *testing.T) {
	cb := NewCodebook(8)
	c := intern(cb, bitset.FromIndices(8, 1, 5))
	if !cb.Accessible(c, 1) || !cb.Accessible(c, 5) || cb.Accessible(c, 0) {
		t.Fatal("Accessible wrong")
	}
	eff := bitset.FromIndices(8, 0, 5)
	if !cb.AccessibleAny(c, eff.Indices32()) {
		t.Fatal("AccessibleAny should see subject 5")
	}
	if cb.AccessibleAny(c, []uint32{0, 2}) {
		t.Fatal("AccessibleAny false positive")
	}
}

func TestCodebookRefCountingAndReuse(t *testing.T) {
	cb := NewCodebook(2)
	c0 := intern(cb, bitset.FromIndices(2, 0))
	cb.Retain(c0)
	cb.Retain(c0)
	if cb.refs[c0] != 2 {
		t.Fatalf("Refs = %d", cb.refs[c0])
	}
	cb.Release(c0)
	if cb.Len() != 1 {
		t.Fatal("entry freed too early")
	}
	cb.Release(c0)
	if cb.Len() != 0 || len(cb.index) != 0 {
		t.Fatalf("entry not freed at zero refs: %d live, %d indexed", cb.Len(), len(cb.index))
	}
	// Freed code is reused.
	c1 := intern(cb, bitset.FromIndices(2, 1))
	if c1 != c0 || len(cb.entries) != 1 {
		t.Fatalf("freed code not reused: got %d of %d slots, want %d of 1", c1, len(cb.entries), c0)
	}
	// Re-interning the freed ACL makes a fresh entry.
	if c2 := intern(cb, bitset.FromIndices(2, 0)); c2 == c1 {
		t.Fatal("distinct ACLs share a code after reuse")
	}
}

// A freed run row leaves no entry, index key or runs behind, and its slot
// is the next one issued.
func TestRunCodebookReleaseReusesSlots(t *testing.T) {
	cb := NewCodebook(100)
	a := cb.Intern([]bitset.Run{{Start: 1, Len: 2}})
	cb.Retain(a)
	cb.Release(a)
	if cb.Len() != 0 || len(cb.index) != 0 || cb.entries[a] != nil {
		t.Fatalf("free of last ref left Len=%d, %d indexed, row %v", cb.Len(), len(cb.index), cb.entries[a])
	}
	if b := cb.Intern([]bitset.Run{{Start: 5, Len: 1}}); b != a || len(cb.entries) != 1 {
		t.Fatalf("freed slot %d not reused (got %d of %d slots)", a, b, len(cb.entries))
	}
}

func TestCodebookReleasePanics(t *testing.T) {
	cb := NewCodebook(2)
	c := intern(cb, bitset.New(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cb.Release(c) // never retained
}

func TestCodebookACLDeadPanics(t *testing.T) {
	cb := NewCodebook(2)
	c := intern(cb, bitset.New(2))
	cb.Retain(c)
	cb.Release(c)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cb.ACL(c)
}

func TestCodebookBytes(t *testing.T) {
	cb := NewCodebook(8639) // LiveLink subject count
	for i := 0; i < 10; i++ {
		c := intern(cb, bitset.FromIndices(8639, i))
		cb.Retain(c)
	}
	want := 10 * ((8639 + 7) / 8)
	if got := cb.Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}

// A two-run row over 2^20 subjects stays two runs in memory, serializes in
// its run encoding, and Bytes still counts it as the paper's dense 2^17.
func TestRunCodebookStats(t *testing.T) {
	cb := NewCodebook(1 << 20)
	runs := []bitset.Run{{Start: 0, Len: 4096}, {Start: 500000, Len: 2}}
	cb.Retain(cb.Intern(runs))
	if got := cb.Bytes(); got != (1<<20)/8 || !slices.Equal(cb.Row(0), runs) {
		t.Fatalf("Bytes = %d with row %v, want %d with %v", got, cb.Row(0), (1<<20)/8, runs)
	}
	sparse := len(bitset.AppendRuns(nil, runs))
	if data := mustMarshal(t, cb); len(data) > sparse+16 || cb.Bytes() < 1000*sparse {
		t.Fatalf("sparse row not materially smaller: %d bytes serialized, run encoding %d, dense %d", len(data), sparse, cb.Bytes())
	}
}

// HeapBytes is what the rows hold, Bytes the paper's bit per subject: on a
// 2^20-subject book of two-run rows the first stays under 1 KB a row while
// the second reads 128 KiB a row. A freed row holds nothing.
func TestCodebookHeapBytes(t *testing.T) {
	const n, rows = 1 << 20, 64
	cb := NewCodebook(n)
	for i := 0; i < rows; i++ {
		cb.Retain(cb.Intern([]bitset.Run{{Start: uint32(i), Len: 3}, {Start: uint32(n - 1000 + i), Len: 5}}))
	}
	heap := cb.HeapBytes()
	if cb.Bytes() != rows*128<<10 || heap >= rows*1024 || heap < rows*2*8 {
		t.Fatalf("%d two-run rows: Bytes %d, HeapBytes %d; want %d and under %d", rows, cb.Bytes(), heap, rows*128<<10, rows*1024)
	}
	cb.Release(0)
	if got := cb.HeapBytes(); got >= heap {
		t.Fatalf("freeing a row left HeapBytes at %d of %d", got, heap)
	}
}

// A decision visits O(len(subjects) · log runs) of a row's runs, whatever
// the row's length: a 3-subject view on a 2^20-subject row of 10^4 runs.
func TestAccessibleAnyReadsLogRuns(t *testing.T) {
	const n, runs = 1 << 20, 10000
	row := make([]bitset.Run, runs)
	for i := range row {
		row[i] = bitset.Run{Start: uint32(i * 100), Len: 50}
	}
	cb := NewCodebook(n)
	c := cb.Intern(row)
	bound := 3 * (bits.Len(runs) + 2)
	for _, view := range [][]uint32{
		{75, 500075, 999975},    // each denied, in a gap
		{60, 70, 80},            // denied, in one gap
		{0, 1 << 19, n - 1},     // the first granted
		{999950, 999960, n - 1}, // denied, the last past every run
		{75, 500075, 999925},    // the last granted
	} {
		ok, visits := cb.grantsAny(c, view)
		want := slices.ContainsFunc(view, func(s uint32) bool { return s < runs*100 && s%100 < 50 })
		t.Logf("view %v: %v after %d run visits", view, ok, visits)
		if ok != want || cb.AccessibleAny(c, view) != want || visits > bound {
			t.Fatalf("view %v: %v after %d run visits, want %v after at most %d", view, ok, visits, want, bound)
		}
	}
}

func TestAddSubject(t *testing.T) {
	cb := NewCodebook(2)
	c := intern(cb, bitset.FromIndices(2, 0))
	cb.Retain(c)
	s := cb.AddSubject()
	if s != 2 || cb.NumSubjects() != 3 {
		t.Fatalf("AddSubject -> %d, subjects %d", s, cb.NumSubjects())
	}
	if cb.Accessible(c, s) {
		t.Fatal("new subject should have no access")
	}
	// Existing code still resolvable by its (unchanged) key.
	if got := intern(cb, bitset.FromIndices(3, 0)); got != c {
		t.Fatalf("key changed after AddSubject: %d vs %d", got, c)
	}
}

func TestAddSubjectLike(t *testing.T) {
	cb := NewCodebook(2)
	cGrant := intern(cb, bitset.FromIndices(2, 0))
	cDeny := intern(cb, bitset.FromIndices(2, 1))
	cb.Retain(cGrant)
	cb.Retain(cDeny)
	s, err := cb.AddSubjectLike(0)
	if err != nil {
		t.Fatal(err)
	}
	if !cb.Accessible(cGrant, s) {
		t.Fatal("clone should inherit subject 0's grants")
	}
	if cb.Accessible(cDeny, s) {
		t.Fatal("clone should inherit subject 0's denials")
	}
	// Index must be consistent: interning the updated ACL finds the code.
	if got := intern(cb, bitset.FromIndices(3, 0, 2)); got != cGrant {
		t.Fatalf("index stale after AddSubjectLike: %d vs %d", got, cGrant)
	}
	if _, err := cb.AddSubjectLike(99); err == nil {
		t.Fatal("out of range subject should fail")
	}
}

func TestCodebookMarshalRoundTrip(t *testing.T) {
	cb := NewCodebook(5)
	c0 := intern(cb, bitset.FromIndices(5, 0, 4))
	cb.Retain(c0)
	cb.Retain(c0)
	c1 := intern(cb, bitset.FromIndices(5, 2))
	cb.Retain(c1)
	// Free one to exercise nil-slot serialization.
	c2 := intern(cb, bitset.FromIndices(5, 3))
	cb.Retain(c2)
	cb.Release(c2)

	var got Codebook
	if err := got.UnmarshalBinary(mustMarshal(t, cb)); err != nil {
		t.Fatal(err)
	}
	if got.NumSubjects() != 5 || got.Len() != cb.Len() {
		t.Fatalf("dims: %d subjects, %d entries", got.NumSubjects(), got.Len())
	}
	if got.refs[c0] != 2 || got.refs[c1] != 1 {
		t.Fatalf("refs lost: %d, %d", got.refs[c0], got.refs[c1])
	}
	if !got.ACL(c0).EqualBits(cb.ACL(c0)) {
		t.Fatal("ACL bits lost")
	}
	// Freed slot must be reusable after round trip.
	if c3 := intern(&got, bitset.FromIndices(5, 1)); c3 != c2 {
		t.Fatalf("free list lost: got %d, want %d", c3, c2)
	}
}

// A decoded codebook's index is the one interning built: a hit returns the
// stored code, a freed code is not indexed but reused. The decoder builds
// it while decoding, where it refuses equal rows; no write is needed first.
func TestUnmarshalBuildsIndexLazily(t *testing.T) {
	src := NewCodebook(8)
	for i := 0; i < 5; i++ {
		src.Retain(intern(src, bitset.FromIndices(8, i)))
	}
	src.Release(2)
	var cb Codebook
	if err := cb.UnmarshalBinary(mustMarshal(t, src)); err != nil {
		t.Fatal(err)
	}
	if len(cb.index) != 4 {
		t.Fatalf("decoded index holds %d rows, want the 4 live ones", len(cb.index))
	}
	for i := 0; i < 5; i++ {
		if i == 2 {
			continue
		}
		if got := intern(&cb, bitset.FromIndices(8, i)); got != Code(i) {
			t.Fatalf("Intern({%d}) = %d, want %d", i, got, i)
		}
	}
	if got := intern(&cb, bitset.FromIndices(8, 2)); got != 2 || cb.Len() != 5 {
		t.Fatalf("Intern of the freed ACL = %d with %d live, want the freed code 2 and 5", got, cb.Len())
	}
}

// TestCodebookV2SparseRoundTrip: a wide-population codebook with
// run-friendly rows must serialize sparsely, decode back to the same
// dictionary, and shrink materially vs dense rows.
func TestCodebookV2SparseRoundTrip(t *testing.T) {
	const n = 100000
	cb := NewCodebook(n)
	g1 := bitset.New(n)
	g1.SetRange(0, 5000)
	cb.Retain(intern(cb, g1))
	g2 := bitset.New(n)
	g2.SetRange(40000, 41000)
	g2.Set(99999)
	cb.Retain(intern(cb, g2))
	freed := intern(cb, bitset.FromIndices(n, 7))
	cb.Retain(freed)
	cb.Release(freed) // leaves a freed slot in the stream
	data := mustMarshal(t, cb)
	if len(data) > 1024 {
		t.Fatalf("sparse serialization is %d bytes; dense rows would be ~%d", len(data), cb.Bytes())
	}
	var back Codebook
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.NumSubjects() != n || back.Len() != cb.Len() || len(back.entries) != len(cb.entries) {
		t.Fatalf("round-trip shape: subjects=%d len=%d cap=%d", back.NumSubjects(), back.Len(), len(back.entries))
	}
	sameEntries(t, cb, &back)
	// Re-marshal is a byte fixpoint.
	if !bytes.Equal(mustMarshal(t, &back), data) {
		t.Fatal("marshal is not a fixpoint")
	}
}

// TestCodebookSmallRowsAreRuns pins the bytes of a small population: the
// subject count, the slot count, then the row as runs (header 1, two runs
// of one subject, at 0 and 2) and its reference count. No population is
// too small for runs.
func TestCodebookSmallRowsAreRuns(t *testing.T) {
	cb := NewCodebook(8)
	c := intern(cb, mustBits("10100000"))
	cb.Retain(c)
	data := mustMarshal(t, cb)
	if want := []byte{8, 1, 1, 2, 0, 0, 1, 0, 1}; !bytes.Equal(data, want) {
		t.Fatalf("small codebook is %v, want %v", data, want)
	}
	var back Codebook
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 1 || !back.ACL(c).EqualBits(cb.ACL(c)) {
		t.Fatal("round-trip broken")
	}
}

// TestCodebookNoisyRowsAreRuns: a row with no long runs is written as runs
// too, beside a one-run row, and both round-trip.
func TestCodebookNoisyRowsAreRuns(t *testing.T) {
	const n = 2048
	rng := rand.New(rand.NewSource(9))
	cb := NewCodebook(n)
	noisy := bitset.New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			noisy.Set(i)
		}
	}
	nc := intern(cb, noisy)
	cb.Retain(nc)
	sparse := bitset.New(n)
	sparse.SetRange(0, 64)
	sc := intern(cb, sparse)
	cb.Retain(sc)
	data := mustMarshal(t, cb)
	// Subjects, slots, then the noisy row (code 0) under header 1.
	r := data
	for _, want := range []uint64{n, 2, rowRuns} {
		v, k := binary.Uvarint(r)
		if k <= 0 || v != want {
			t.Fatalf("codebook opens %x, want uvarint %d", data[:len(data)-len(r)+1], want)
		}
		r = r[k:]
	}
	var back Codebook
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !back.ACL(nc).EqualBits(noisy) || !back.ACL(sc).EqualBits(sparse) {
		t.Fatal("noisy and one-run rows did not round-trip")
	}
}

func TestCodebookUnmarshalErrors(t *testing.T) {
	var cb Codebook
	if err := cb.UnmarshalBinary(nil); err == nil {
		t.Fatal("empty input should fail")
	}
	if err := cb.UnmarshalBinary([]byte{5}); err == nil {
		t.Fatal("truncated input should fail")
	}
	if err := cb.UnmarshalBinary([]byte{4, 0, 0}); err == nil {
		t.Fatal("a byte after the last row should fail")
	}
	// One row over 4 subjects: header 1, the runs of {0, 2}, refs 1.
	row := []byte{4, 1, 1, 2, 0, 0, 1, 0, 1}
	if err := cb.UnmarshalBinary(row); err != nil {
		t.Fatal(err)
	}
	if err := cb.UnmarshalBinary(row[:1]); err == nil {
		t.Fatal("a slot count with no slots should fail")
	}
	if err := cb.UnmarshalBinary(row[:2]); err == nil {
		t.Fatal("a slot with no header should fail")
	}
	if err := cb.UnmarshalBinary(row[:7]); err == nil {
		t.Fatal("a run row cut short should fail")
	}
	if err := cb.UnmarshalBinary(row[:8]); err == nil {
		t.Fatal("a run row with no reference count should fail")
	}
	if err := cb.UnmarshalBinary(slices.Concat(row[:5], []byte{4}, row[6:])); err == nil {
		t.Fatal("a run past the population should fail")
	}
	// One run row over 300 subjects, {0, 1}, its count padded: the same row
	// in other bytes, and so another index key.
	if err := cb.UnmarshalBinary([]byte{0xAC, 0x02, 1, 1, 0x81, 0x00, 0, 1, 1}); err == nil {
		t.Fatal("a run row with a padded varint should fail")
	}
	if err := cb.UnmarshalBinary([]byte{0xAC, 0x02, 1, 1, 1, 0, 1, 1}); err != nil {
		t.Fatalf("the run row unpadded: %v", err)
	}
	if err := cb.UnmarshalBinary(slices.Concat(row[:8], binary.AppendUvarint(nil, 1<<63))); err == nil {
		t.Fatal("a reference count past int should fail")
	}
	// The same row with a padded reference count, subject count or slot
	// count: other bytes for the same codebook.
	for _, padded := range [][]byte{
		slices.Concat(row[:8], []byte{0x81, 0x00}),
		slices.Concat([]byte{0x84, 0x00}, row[1:]),
		slices.Concat(row[:1], []byte{0x81, 0x00}, row[2:]),
	} {
		if err := cb.UnmarshalBinary(padded); err == nil {
			t.Fatalf("%x, with a padded varint, decoded", padded)
		}
	}
	if err := cb.UnmarshalBinary(duplicateRows()); err == nil {
		t.Fatal("two live slots holding equal rows should fail")
	}
	for _, retired := range retiredCodebooks() {
		if err := cb.UnmarshalBinary(retired); err == nil {
			t.Fatalf("retired framing %x decoded", retired)
		}
	}
}

// Property: a codebook behaves as a content-addressed dictionary — under
// random interleavings of Intern/Retain/Release and of one-bit grants to a
// live code (AddRunBit, as the streamed build interns them), live codes
// always decode to the ACL they were interned with, every subject and
// effective set is decided as the dense ACL decides it, and Len matches a
// shadow model.
func TestCodebookModelProperty(t *testing.T) {
	const n = 70 // two words, so runs and sets cross a word boundary
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cb := NewCodebook(n)
		type live struct {
			code Code
			acl  *bitset.Bitset
			refs int
		}
		var lives []live
		add := func(c Code, a *bitset.Bitset) bool {
			cb.Retain(c)
			for i := range lives {
				if lives[i].code == c {
					lives[i].refs++
					return lives[i].acl.EqualBits(a)
				}
			}
			lives = append(lives, live{c, a, 1})
			return true
		}
		release := func(i int) {
			cb.Release(lives[i].code)
			if lives[i].refs--; lives[i].refs == 0 {
				lives = append(lives[:i], lives[i+1:]...)
			}
		}
		for step := 0; step < 200; step++ {
			op, k := rng.Intn(4), 0
			if op > 0 && len(lives) == 0 {
				continue
			} else if op > 0 {
				k = rng.Intn(len(lives))
			}
			switch op {
			case 0: // intern + retain
				a := bitset.New(n)
				for s := rng.Intn(n); s < n; s += 1 + rng.Intn(8) {
					a.SetRange(s, min(n, s+rng.Intn(4)))
				}
				if !add(intern(cb, a), a) {
					return false
				}
			case 1: // release a random live code
				release(k)
			case 2: // grant one subject to a random live code
				l, s := lives[k], rng.Intn(n)
				a := l.acl.Clone()
				a.Set(s)
				next := cb.Intern(bitset.AddRunBit(cb.Row(l.code), uint32(s)))
				if !add(next, a) || (l.acl.Test(s) != (next == l.code)) {
					return false
				}
				release(slices.IndexFunc(lives, func(x live) bool { return x.code == l.code }))
			case 3: // verify a random live code
				// A few subjects search the row, many merge with it.
				l, eff, most := lives[k], bitset.New(n), 4
				if rng.Intn(2) == 0 {
					most = n
				}
				for j := rng.Intn(most); j > 0; j-- {
					eff.Set(rng.Intn(n))
				}
				if !cb.ACL(l.code).EqualBits(l.acl) || cb.AccessibleAny(l.code, eff.Indices32()) != l.acl.Intersects(eff) {
					return false
				}
				for s := 0; s < n; s++ {
					if cb.Accessible(l.code, acl.SubjectID(s)) != l.acl.Test(s) {
						return false
					}
				}
			}
		}
		return cb.Len() == len(lives)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// A chain of one-bit grants (AddRunBit, as the streamed build interns
// them) follows a dense oracle, and releasing each superseded row leaves
// exactly one live entry.
func TestRunCodebookWithBitOracle(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(3))
	cb := NewCodebook(n)
	dense := bitset.New(n)
	c := cb.Intern(nil)
	cb.Retain(c)
	for step := 0; step < 400; step++ {
		s := rng.Intn(n)
		next := cb.Intern(bitset.AddRunBit(cb.Row(c), uint32(s)))
		if dense.Test(s) {
			if next != c {
				t.Fatalf("step %d: granting set bit %d changed code %d -> %d", step, s, c, next)
			}
			continue
		}
		dense.Set(s)
		cb.Retain(next)
		cb.Release(c)
		c = next
		if !cb.ACL(c).EqualBits(dense) {
			t.Fatalf("step %d: run row diverged from dense oracle", step)
		}
	}
	if cb.Len() != 1 {
		t.Fatalf("Len = %d after chained grants, want 1 (slot reuse broken)", cb.Len())
	}
}

func TestCodeTypeMatchesACLSubjectID(t *testing.T) {
	// Compile-time-ish sanity that codebook subject indexing matches
	// acl.SubjectID semantics.
	cb := NewCodebook(3)
	c := intern(cb, bitset.FromIndices(3, 2))
	var s acl.SubjectID = 2
	if !cb.Accessible(c, s) {
		t.Fatal("SubjectID indexing mismatch")
	}
}
