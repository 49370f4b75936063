package bitset

import (
	"testing"
)

func TestZeroValue(t *testing.T) {
	var b Bitset
	if b.n != 0 {
		t.Fatalf("zero value Len = %d, want 0", b.n)
	}
	if b.Test(0) || b.Test(100) {
		t.Fatal("zero value should have no bits set")
	}
	b.Set(5)
	if !b.Test(5) {
		t.Fatal("Set(5) not visible")
	}
	if b.n != 6 {
		t.Fatalf("Len after Set(5) = %d, want 6", b.n)
	}
}

func TestSetClearTest(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.Set(i)
		if !b.Test(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	b.Clear(64)
	if b.Test(64) {
		t.Error("bit 64 still set after Clear")
	}
	if got := b.Count(); got != 7 {
		t.Fatalf("Count after clear = %d, want 7", got)
	}
}

func TestSetTo(t *testing.T) {
	b := New(10)
	b.SetTo(3, true)
	b.SetTo(4, true)
	b.SetTo(3, false)
	if b.Test(3) || !b.Test(4) {
		t.Fatalf("SetTo sequence wrong: %s", b)
	}
}

func TestOutOfRangeReads(t *testing.T) {
	b := New(8)
	if b.Test(-1) || b.Test(8) || b.Test(1000) {
		t.Fatal("out-of-range Test should be false")
	}
}

func TestGrowViaSet(t *testing.T) {
	b := New(0)
	b.Set(200)
	if b.n != 201 {
		t.Fatalf("Len = %d, want 201", b.n)
	}
	if b.Count() != 1 || !b.Test(200) {
		t.Fatal("bit 200 lost after grow")
	}
}

func TestResizeShrinkClearsBits(t *testing.T) {
	b := New(128)
	b.Set(100)
	b.Set(10)
	b.Resize(50)
	if b.n != 50 {
		t.Fatalf("Len = %d, want 50", b.n)
	}
	if b.Test(100) {
		t.Fatal("bit 100 should be gone")
	}
	b.Resize(128)
	if b.Test(100) {
		t.Fatal("bit 100 must not reappear after re-grow")
	}
	if !b.Test(10) {
		t.Fatal("bit 10 lost")
	}
}

func TestResizeWithinWordClearsHighBits(t *testing.T) {
	b := New(64)
	b.Set(40)
	b.Set(20)
	b.Resize(30)
	b.Resize(64)
	if b.Test(40) {
		t.Fatal("bit 40 survived shrink within word")
	}
	if !b.Test(20) {
		t.Fatal("bit 20 lost")
	}
}

func TestEqualAndEqualBits(t *testing.T) {
	a := FromIndices(10, 1, 3)
	b := FromIndices(10, 1, 3)
	c := FromIndices(200, 1, 3)
	d := FromIndices(10, 1, 4)
	if !a.Equal(b) {
		t.Fatal("identical bitsets not Equal")
	}
	if a.Equal(c) {
		t.Fatal("different lengths should not be Equal")
	}
	if !a.EqualBits(c) {
		t.Fatal("same bits different length should be EqualBits")
	}
	if a.EqualBits(d) {
		t.Fatal("different bits should not be EqualBits")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIndices(10, 2)
	b := a.Clone()
	b.Set(5)
	if a.Test(5) {
		t.Fatal("Clone shares storage")
	}
	if !b.Test(2) {
		t.Fatal("Clone lost bit")
	}
}

func TestCopyFrom(t *testing.T) {
	a := FromIndices(10, 2, 9)
	b := FromIndices(300, 100)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatalf("CopyFrom mismatch: %s vs %s", b, a)
	}
	if b.Test(100) {
		t.Fatal("stale bit after CopyFrom")
	}
}

func TestNextSetAndIndices(t *testing.T) {
	b := FromIndices(200, 3, 64, 130)
	if got := b.NextSet(0); got != 3 {
		t.Errorf("NextSet(0) = %d, want 3", got)
	}
	if got := b.NextSet(4); got != 64 {
		t.Errorf("NextSet(4) = %d, want 64", got)
	}
	if got := b.NextSet(131); got != -1 {
		t.Errorf("NextSet(131) = %d, want -1", got)
	}
	idx := b.Indices()
	want := []int{3, 64, 130}
	if len(idx) != len(want) {
		t.Fatalf("Indices = %v, want %v", idx, want)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", idx, want)
		}
	}
}

func TestNextSetRespectsLogicalLength(t *testing.T) {
	b := New(10)
	b.Set(5)
	b.Resize(3)
	if got := b.NextSet(0); got != -1 {
		t.Fatalf("NextSet found bit beyond logical length: %d", got)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("10x"); err == nil {
		t.Fatal("Parse should reject non-binary characters")
	}
}

func TestStringRoundTrip(t *testing.T) {
	cases := []string{"", "0", "1", "10110", "0000000001"}
	for _, s := range cases {
		b, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := b.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func BenchmarkSet(b *testing.B) {
	bs := New(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bs.Set(i % 4096)
	}
}
