package dol

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"dolxml/internal/bitset"
)

func TestRunCodebookInternDedup(t *testing.T) {
	cb := NewRunCodebook(1000)
	a := cb.Intern([]bitset.Run{{Start: 0, Len: 100}})
	b := cb.Intern([]bitset.Run{{Start: 0, Len: 100}})
	if a != b {
		t.Fatalf("identical run lists interned as %d and %d", a, b)
	}
	c := cb.Intern([]bitset.Run{{Start: 0, Len: 101}})
	if c == a {
		t.Fatal("distinct run lists shared a code")
	}
	empty := cb.Intern(nil)
	if cb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", cb.Len())
	}
	if acl := bitset.FromRuns(1000, cb.runs(a)); !acl.Test(99) || acl.Test(100) {
		t.Fatal("the runs disagree with their bounds")
	}
	if bitset.FromRuns(1000, cb.runs(empty)).Test(0) {
		t.Fatal("empty ACL grants subject 0")
	}
}

func TestRunCodebookWithBitOracle(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(3))
	cb := NewRunCodebook(n)
	dense := bitset.New(n)
	c := cb.Intern(nil)
	cb.Retain(c)
	for step := 0; step < 400; step++ {
		s := rng.Intn(n)
		next := cb.WithBit(c, s)
		if dense.Test(s) {
			if next != c {
				t.Fatalf("step %d: WithBit of set bit %d changed code %d -> %d", step, s, c, next)
			}
			continue
		}
		dense.Set(s)
		cb.Retain(next)
		cb.Release(c)
		c = next
		if !bitset.FromRuns(n, cb.runs(c)).EqualBits(dense) {
			t.Fatalf("step %d: sparse ACL diverged from dense oracle", step)
		}
	}
	// The chain released every superseded prefix set: exactly the final
	// entry (plus nothing else) stays live.
	if cb.Len() != 1 {
		t.Fatalf("Len = %d after chained WithBit, want 1 (slot reuse broken)", cb.Len())
	}
}

func TestRunCodebookReleaseReusesSlots(t *testing.T) {
	cb := NewRunCodebook(100)
	a := cb.Intern([]bitset.Run{{Start: 1, Len: 2}})
	cb.Retain(a)
	cb.Release(a)
	if cb.Len() != 0 || cb.SparseBytes() != 0 || cb.LiveRuns() != 0 {
		t.Fatalf("free of last ref left Len=%d bytes=%d runs=%d", cb.Len(), cb.SparseBytes(), cb.LiveRuns())
	}
	b := cb.Intern([]bitset.Run{{Start: 5, Len: 1}})
	if b != a {
		t.Fatalf("freed slot %d not reused (got %d)", a, b)
	}
	if len(cb.entries) != 1 {
		t.Fatalf("%d slots, want 1", len(cb.entries))
	}
}

func TestRunCodebookStats(t *testing.T) {
	cb := NewRunCodebook(1 << 20)
	runs := []bitset.Run{{Start: 0, Len: 4096}, {Start: 500000, Len: 2}}
	c := cb.Intern(runs)
	cb.Retain(c)
	if got, want := cb.SparseBytes(), int64(len(bitset.AppendRuns(nil, runs))); got != want {
		t.Fatalf("SparseBytes = %d, want %d", got, want)
	}
	if got, want := cb.DenseBytes(), int64((1<<20)/8); got != want {
		t.Fatalf("DenseBytes = %d, want %d", got, want)
	}
	if cb.MaxRuns() != 2 || cb.LiveRuns() != 2 {
		t.Fatalf("MaxRuns=%d LiveRuns=%d, want 2/2", cb.MaxRuns(), cb.LiveRuns())
	}
	if cb.DenseBytes() < 1000*cb.SparseBytes() {
		t.Fatalf("sparse row not materially smaller: dense=%d sparse=%d", cb.DenseBytes(), cb.SparseBytes())
	}
}

// TestCodebookV2SparseRoundTrip: a wide-population codebook with
// run-friendly rows must serialize sparsely, decode back to the same
// dictionary, and shrink materially vs dense rows.
func TestCodebookV2SparseRoundTrip(t *testing.T) {
	const n = 100000
	cb := NewCodebook(n)
	row := func(b *bitset.Bitset) Code {
		c := cb.Intern(b)
		cb.Retain(c)
		return c
	}
	g1 := bitset.New(n)
	g1.SetRange(0, 5000)
	row(g1)
	g2 := bitset.New(n)
	g2.SetRange(40000, 41000)
	g2.Set(99999)
	row(g2)
	freed := cb.Intern(bitset.FromIndices(n, 7))
	cb.Retain(freed)
	cb.Release(freed) // leaves a freed slot in the stream
	data, err := cb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 1024 {
		t.Fatalf("sparse serialization is %d bytes; dense rows would be ~%d", len(data), cb.Bytes())
	}
	var back Codebook
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.NumSubjects() != n || back.Len() != cb.Len() || back.Cap() != cb.Cap() {
		t.Fatalf("round-trip shape: subjects=%d len=%d cap=%d", back.NumSubjects(), back.Len(), back.Cap())
	}
	for c := 0; c < cb.Cap(); c++ {
		if cb.entries[c] == nil {
			if back.entries[c] != nil {
				t.Fatalf("code %d: freed slot resurrected", c)
			}
			continue
		}
		if !back.entries[c].Equal(cb.entries[c]) {
			t.Fatalf("code %d: ACL changed across round-trip", c)
		}
		if back.refs[Code(c)] != cb.refs[Code(c)] {
			t.Fatalf("code %d: refs %d -> %d", c, cb.refs[Code(c)], back.refs[Code(c)])
		}
	}
	// Re-marshal is a byte fixpoint.
	again, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("marshal is not a fixpoint")
	}
}

// TestCodebookSmallStaysV1 pins the bytes of a population under the sparse
// threshold: the subject count, the slot count, then each row dense, its
// header its byte count.
func TestCodebookSmallStaysV1(t *testing.T) {
	cb := NewCodebook(8)
	c := cb.Intern(mustBits("10100000"))
	cb.Retain(c)
	data, err := cb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{8, 1, 12, 8, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1}; !bytes.Equal(data, want) {
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

// TestCodebookV2DenseFallback pins that incompressible wide rows stay
// dense beside run-length ones and still round-trip.
func TestCodebookV2DenseFallback(t *testing.T) {
	const n = 2048
	rng := rand.New(rand.NewSource(9))
	cb := NewCodebook(n)
	noisy := bitset.New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			noisy.Set(i)
		}
	}
	nc := cb.Intern(noisy)
	cb.Retain(nc)
	sparse := bitset.New(n)
	sparse.SetRange(0, 64)
	sc := cb.Intern(sparse)
	cb.Retain(sc)
	data, err := cb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Subjects, slots, then the noisy row (code 0): its header is its byte count.
	r := data
	for _, want := range []uint64{n, 2, 4 + 8*n/64} {
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
		t.Fatal("mixed dense/sparse rows did not round-trip")
	}
}
