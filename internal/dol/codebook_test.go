package dol

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
)

func TestCodebookInternDedup(t *testing.T) {
	cb := NewCodebook(4)
	a := bitset.FromIndices(4, 0, 2)
	b := bitset.FromIndices(4, 0, 2)
	c := bitset.FromIndices(4, 1)
	ca := cb.Intern(a)
	if got := cb.Intern(b); got != ca {
		t.Fatalf("equal ACLs got different codes %d vs %d", got, ca)
	}
	cc := cb.Intern(c)
	if cc == ca {
		t.Fatal("distinct ACLs share a code")
	}
	if cb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", cb.Len())
	}
}

func TestCodebookInternCopies(t *testing.T) {
	cb := NewCodebook(4)
	a := bitset.FromIndices(4, 0)
	c := cb.Intern(a)
	a.Set(3) // mutate caller's bitset
	if cb.ACL(c).Test(3) {
		t.Fatal("codebook aliases caller's bitset")
	}
}

// A clone shares the entries' bitsets, so a subject-column operation on
// either side must leave the other's ACLs as they were.
func TestCodebookCloneSubjectColumns(t *testing.T) {
	cb := NewCodebook(3)
	c0 := cb.Intern(bitset.FromIndices(3, 0, 2))
	c1 := cb.Intern(bitset.FromIndices(3, 1))
	want := []string{cb.ACL(c0).Key(), cb.ACL(c1).Key()}
	unmoved := func(op string) {
		t.Helper()
		if got := []string{cb.ACL(c0).Key(), cb.ACL(c1).Key()}; got[0] != want[0] || got[1] != want[1] || cb.ACL(c0).Len() != 3 {
			t.Fatalf("%s on a clone moved the original's ACLs: %q, want %q", op, got, want)
		}
	}
	if _, err := cb.Clone().AddSubjectLike(0); err != nil {
		t.Fatal(err)
	}
	unmoved("AddSubjectLike")
	clone := cb.Clone()
	cb.AddSubject()
	if clone.ACL(c0).Len() != 3 {
		t.Fatal("AddSubject on the original resized its clone's entries")
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
		frozen.Retain(frozen.Intern(acls[i]))
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
			if c, ok := frozen.index[a.Key()]; !ok || c != Code(i) || !frozen.ACL(c).EqualBits(a) {
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
	if live.Intern(acls[2]) != 2 || !live.sharedIndex {
		t.Error("an Intern hit copied the index")
	}
	live.Release(1)
	fresh := frozen.Clone()
	fresh.Retain(fresh.Intern(bitset.FromIndices(8, 7)))
	if _, err := frozen.Clone().AddSubjectLike(3); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
	check()
	if _, ok := live.index[acls[1].Key()]; ok {
		t.Error("the live copy still indexes its freed entry")
	}
	// Either side of a Clone copies at its first write: an insert on the
	// original does not reach the clone.
	next := live.Clone()
	live.Intern(bitset.FromIndices(8, 0))
	if _, ok := next.index[bitset.FromIndices(8, 0).Key()]; ok {
		t.Error("an insert on the original reached its clone")
	}
}

func TestCodebookAccessible(t *testing.T) {
	cb := NewCodebook(8)
	c := cb.Intern(bitset.FromIndices(8, 1, 5))
	if !cb.Accessible(c, 1) || !cb.Accessible(c, 5) || cb.Accessible(c, 0) {
		t.Fatal("Accessible wrong")
	}
	eff := bitset.FromIndices(8, 0, 5)
	if !cb.AccessibleAny(c, eff) {
		t.Fatal("AccessibleAny should see subject 5")
	}
	if cb.AccessibleAny(c, bitset.FromIndices(8, 0, 2)) {
		t.Fatal("AccessibleAny false positive")
	}
}

func TestCodebookRefCountingAndReuse(t *testing.T) {
	cb := NewCodebook(2)
	c0 := cb.Intern(bitset.FromIndices(2, 0))
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
	if cb.Len() != 0 {
		t.Fatal("entry not freed at zero refs")
	}
	// Freed code is reused.
	c1 := cb.Intern(bitset.FromIndices(2, 1))
	if c1 != c0 {
		t.Fatalf("freed code not reused: got %d, want %d", c1, c0)
	}
	// Re-interning the freed ACL makes a fresh entry.
	c2 := cb.Intern(bitset.FromIndices(2, 0))
	if c2 == c1 {
		t.Fatal("distinct ACLs share a code after reuse")
	}
}

func TestCodebookReleasePanics(t *testing.T) {
	cb := NewCodebook(2)
	c := cb.Intern(bitset.New(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cb.Release(c) // never retained
}

func TestCodebookACLDeadPanics(t *testing.T) {
	cb := NewCodebook(2)
	c := cb.Intern(bitset.New(2))
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
		c := cb.Intern(bitset.FromIndices(8639, i))
		cb.Retain(c)
	}
	want := 10 * ((8639 + 7) / 8)
	if got := cb.Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}

func TestAddSubject(t *testing.T) {
	cb := NewCodebook(2)
	c := cb.Intern(bitset.FromIndices(2, 0))
	cb.Retain(c)
	s := cb.AddSubject()
	if s != 2 || cb.NumSubjects() != 3 {
		t.Fatalf("AddSubject -> %d, subjects %d", s, cb.NumSubjects())
	}
	if cb.Accessible(c, s) {
		t.Fatal("new subject should have no access")
	}
	// Existing code still resolvable by its (unchanged) key.
	if got := cb.Intern(bitset.FromIndices(3, 0)); got != c {
		t.Fatalf("key changed after AddSubject: %d vs %d", got, c)
	}
}

func TestAddSubjectLike(t *testing.T) {
	cb := NewCodebook(2)
	cGrant := cb.Intern(bitset.FromIndices(2, 0))
	cDeny := cb.Intern(bitset.FromIndices(2, 1))
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
	if got := cb.Intern(bitset.FromIndices(3, 0, 2)); got != cGrant {
		t.Fatalf("index stale after AddSubjectLike: %d vs %d", got, cGrant)
	}
	if _, err := cb.AddSubjectLike(99); err == nil {
		t.Fatal("out of range subject should fail")
	}
}

// removeColumn deletes subject s's column from every entry, shifting the
// subjects above it down: distinct entries may collapse onto equal bits,
// the duplicate codes lookupIndex, Release and Vacuum must handle.
func removeColumn(cb *Codebook, s int) {
	cb.numSubjects--
	cb.gen++
	cb.index, cb.sharedIndex = nil, false
	for c, e := range cb.entries {
		if e == nil {
			continue
		}
		var keep []int
		for _, i := range e.Indices() {
			if i > s {
				keep = append(keep, i-1)
			} else if i < s {
				keep = append(keep, i)
			}
		}
		cb.entries[c] = bitset.FromIndices(cb.numSubjects, keep...)
	}
}

// duplicates counts the live entries whose bits equal a lower live
// entry's.
func duplicates(cb *Codebook) int {
	seen := make(map[string]bool, len(cb.entries))
	dups := 0
	for _, e := range cb.entries {
		if e == nil {
			continue
		}
		if seen[e.Key()] {
			dups++
		}
		seen[e.Key()] = true
	}
	return dups
}

// Freeing one of two codes removeColumn collapsed onto the same bits
// leaves the other one's bits interned under it: freeing the duplicate
// keeps the live code's index slot, and freeing the code in the slot hands
// it to the duplicate — with the index built before the release and with
// it built only after (as after UnmarshalBinary, which builds none).
func TestReleaseDuplicateKeepsLiveSlot(t *testing.T) {
	for _, built := range []bool{true, false} {
		for _, freeSlot := range []bool{false, true} {
			cb := NewCodebook(2)
			cA := cb.Intern(bitset.FromIndices(2, 0))
			cB := cb.Intern(bitset.FromIndices(2, 0, 1))
			cb.Retain(cA)
			cb.Retain(cB)
			removeColumn(cb, 1)
			if built {
				cb.lookupIndex()
			}
			freed, live := cB, cA
			if freeSlot {
				freed, live = cA, cB
			}
			cb.Release(freed)
			if got := cb.Intern(bitset.FromIndices(1, 0)); got != live {
				t.Errorf("built=%v: Intern({0}) after freeing code %d = %d, want the live code %d", built, freed, got, live)
			}
			if d := duplicates(cb); d != 0 {
				t.Errorf("built=%v: %d duplicates after freeing code %d, want 0", built, d, freed)
			}
		}
	}
}

// A decoded codebook builds its index at its first write, and the index
// it builds is the one interning built: a hit returns the stored code, a
// freed code is not indexed.
func TestUnmarshalBuildsIndexLazily(t *testing.T) {
	src := NewCodebook(8)
	for i := 0; i < 5; i++ {
		src.Retain(src.Intern(bitset.FromIndices(8, i)))
	}
	src.Release(2)
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var cb Codebook
	if err := cb.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if cb.index != nil {
		t.Fatal("UnmarshalBinary built the index")
	}
	for i := 0; i < 5; i++ {
		if i == 2 {
			continue
		}
		if got := cb.Intern(bitset.FromIndices(8, i)); got != Code(i) {
			t.Fatalf("Intern({%d}) = %d, want %d", i, got, i)
		}
	}
	if got := cb.Intern(bitset.FromIndices(8, 2)); got != 2 || cb.Len() != 5 {
		t.Fatalf("Intern of the freed ACL = %d with %d live, want the freed code 2 and 5", got, cb.Len())
	}
}

func TestCodebookMarshalRoundTrip(t *testing.T) {
	cb := NewCodebook(5)
	c0 := cb.Intern(bitset.FromIndices(5, 0, 4))
	cb.Retain(c0)
	cb.Retain(c0)
	c1 := cb.Intern(bitset.FromIndices(5, 2))
	cb.Retain(c1)
	// Free one to exercise nil-slot serialization.
	c2 := cb.Intern(bitset.FromIndices(5, 3))
	cb.Retain(c2)
	cb.Release(c2)

	data, err := cb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Codebook
	if err := got.UnmarshalBinary(data); err != nil {
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
	c3 := got.Intern(bitset.FromIndices(5, 1))
	if c3 != c2 {
		t.Fatalf("free list lost: got %d, want %d", c3, c2)
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
	// One row over 4 subjects: header 12, 4 bytes of length, one word, refs.
	row := []byte{4, 1, 12, 4, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1}
	if err := cb.UnmarshalBinary(row); err != nil {
		t.Fatal(err)
	}
	if err := cb.UnmarshalBinary(slices.Concat(row[:2], []byte{13}, row[3:15], []byte{0, 1})); err == nil {
		t.Fatal("a dense row longer than its bits should fail")
	}
	if err := cb.UnmarshalBinary(slices.Concat(row[:15], binary.AppendUvarint(nil, 1<<63))); err == nil {
		t.Fatal("a reference count past int should fail")
	}
	for _, retired := range retiredCodebooks() {
		if err := cb.UnmarshalBinary(retired); err == nil {
			t.Fatalf("retired framing %x decoded", retired)
		}
	}
}

// Property: a codebook behaves as a content-addressed dictionary — under
// random interleavings of Intern/Retain/Release, live codes always decode
// to the ACL they were interned with, and Len matches a shadow model.
func TestCodebookModelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cb := NewCodebook(6)
		type live struct {
			code Code
			key  string
			refs int
		}
		var lives []live
		for step := 0; step < 200; step++ {
			switch rng.Intn(3) {
			case 0: // intern + retain
				a := bitset.New(6)
				for i := 0; i < 6; i++ {
					if rng.Intn(2) == 1 {
						a.Set(i)
					}
				}
				c := cb.Intern(a)
				cb.Retain(c)
				found := false
				for i := range lives {
					if lives[i].code == c {
						if lives[i].key != a.Key() {
							return false
						}
						lives[i].refs++
						found = true
					}
				}
				if !found {
					lives = append(lives, live{c, a.Key(), 1})
				}
			case 1: // release a random live code
				if len(lives) == 0 {
					continue
				}
				i := rng.Intn(len(lives))
				cb.Release(lives[i].code)
				lives[i].refs--
				if lives[i].refs == 0 {
					lives = append(lives[:i], lives[i+1:]...)
				}
			case 2: // verify a random live code
				if len(lives) == 0 {
					continue
				}
				i := rng.Intn(len(lives))
				if cb.ACL(lives[i].code).Key() != lives[i].key {
					return false
				}
			}
		}
		return cb.Len() == len(lives)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCodeTypeMatchesACLSubjectID(t *testing.T) {
	// Compile-time-ish sanity that codebook subject indexing matches
	// acl.SubjectID semantics.
	cb := NewCodebook(3)
	c := cb.Intern(bitset.FromIndices(3, 2))
	var s acl.SubjectID = 2
	if !cb.Accessible(c, s) {
		t.Fatal("SubjectID indexing mismatch")
	}
}
