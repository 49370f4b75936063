package bitset

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestRunsRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"0",
		"1",
		"1111",
		"0110",
		"101010101",
		"111000111000111",
		"000000000000000000000000000000000000000000000000000000000000000011",
		"110000000000000000000000000000000000000000000000000000000000000011",
	}
	for _, s := range cases {
		b, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		runs := b.Runs()
		back := FromRuns(b.n, runs)
		if !b.Equal(back) {
			t.Errorf("FromRuns(Runs(%q)) = %q", s, back.String())
		}
		enc := AppendRuns(nil, runs)
		if len(enc) != RunsSize(runs) {
			t.Errorf("RunsSize(%q) = %d, encoded %d bytes", s, RunsSize(runs), len(enc))
		}
		dec, rest, err := DecodeRuns(nil, enc, uint32(b.n))
		if err != nil {
			t.Fatalf("DecodeRuns(%q): %v", s, err)
		}
		if len(rest) != 0 {
			t.Errorf("DecodeRuns(%q) left %d bytes", s, len(rest))
		}
		if !reflect.DeepEqual(dec, runs) && !(len(dec) == 0 && len(runs) == 0) {
			t.Errorf("DecodeRuns(%q) = %v, want %v", s, dec, runs)
		}
	}
}

func TestRunsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		b := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		runs := b.Runs()
		// Runs are maximal: separated by at least one clear bit.
		for i, r := range runs {
			if r.Len == 0 {
				t.Fatalf("zero-length run %v", r)
			}
			if i > 0 && runs[i-1].End() >= r.Start {
				t.Fatalf("runs not separated: %v then %v", runs[i-1], r)
			}
		}
		if got := FromRuns(n, runs); !got.EqualBits(b) {
			t.Fatalf("trial %d: FromRuns mismatch", trial)
		}
		enc := AppendRuns(nil, runs)
		dec, _, err := DecodeRuns(nil, enc, uint32(n))
		if err != nil {
			t.Fatal(err)
		}
		if !FromRuns(n, dec).EqualBits(b) {
			t.Fatalf("trial %d: decode mismatch", trial)
		}
	}
}

func TestSetRange(t *testing.T) {
	for _, c := range []struct{ lo, hi, n int }{
		{0, 0, 10}, {0, 1, 10}, {3, 7, 10}, {0, 64, 64}, {63, 65, 100},
		{10, 200, 100}, {64, 128, 128}, {1, 127, 128},
	} {
		b := New(c.n)
		b.SetRange(c.lo, c.hi)
		want := New(c.n)
		for i := c.lo; i < c.hi; i++ {
			want.Set(i)
		}
		if !b.EqualBits(want) {
			t.Errorf("SetRange(%d,%d) over %d bits = %s", c.lo, c.hi, c.n, b.String())
		}
	}
}

func TestAddRunBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		b := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				b.Set(i)
			}
		}
		runs := b.Runs()
		s := uint32(rng.Intn(n))
		got := AddRunBit(runs, s)
		if b.Test(int(s)) {
			if &got[0] != &runs[0] || len(got) != len(runs) {
				// Same-slice identity only matters when non-empty; a set bit
				// always implies a non-empty run list.
				t.Fatalf("AddRunBit of set bit %d did not return the input", s)
			}
		}
		want := b.Clone()
		want.Set(int(s))
		if !FromRuns(n, got).EqualBits(want) {
			t.Fatalf("AddRunBit(%v, %d) = %v", runs, s, got)
		}
		// Result stays canonical.
		for i, r := range got {
			if r.Len == 0 || (i > 0 && got[i-1].End() >= r.Start) {
				t.Fatalf("AddRunBit produced non-canonical %v", got)
			}
		}
	}
}

func TestRemoveRunBit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		b := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) != 0 {
				b.Set(i)
			}
		}
		runs := b.Runs()
		s := uint32(rng.Intn(n))
		got := RemoveRunBit(runs, s)
		if !b.Test(int(s)) && (len(got) != len(runs) || len(runs) > 0 && &got[0] != &runs[0]) {
			t.Fatalf("RemoveRunBit of clear bit %d did not return the input", s)
		}
		want := b.Clone()
		want.Clear(int(s))
		if !FromRuns(n, got).EqualBits(want) || !slices.Equal(got, want.Runs()) || !b.EqualBits(FromRuns(n, runs)) {
			t.Fatalf("RemoveRunBit(%v, %d) = %v", runs, s, got)
		}
	}
}

func TestDecodeRunsRejectsMalformed(t *testing.T) {
	// Runs beyond maxBit.
	enc := AppendRuns(nil, []Run{{Start: 10, Len: 5}})
	if _, _, err := DecodeRuns(nil, enc, 12); err == nil {
		t.Error("runs beyond maxBit accepted")
	}
	// Adjacent (non-maximal) runs.
	bad := AppendRuns(nil, []Run{{Start: 0, Len: 2}})
	bad = bad[:0]
	bad = append(bad, 2)    // count
	bad = append(bad, 0, 1) // run [0,2)
	bad = append(bad, 0, 0) // gap 0: adjacent run [2,3)
	if _, _, err := DecodeRuns(nil, bad, 100); err == nil {
		t.Error("adjacent runs accepted")
	}
	// Truncated.
	good := AppendRuns(nil, []Run{{Start: 3, Len: 4}})
	if _, _, err := DecodeRuns(nil, good[:1], 100); err == nil {
		t.Error("truncated encoding accepted")
	}
	// A varint longer than it needs to be: the same runs in other bytes.
	if _, _, err := DecodeRuns(nil, []byte{1, 0x83, 0x00, 3}, 100); err == nil {
		t.Error("padded varint accepted")
	}
	// A gap that wraps the start below its predecessor's end.
	wrap := binary.AppendUvarint([]byte{2, 10, 0}, 1<<64-5)
	if _, _, err := DecodeRuns(nil, append(wrap, 0), 100); err == nil {
		t.Error("wrapping gap accepted")
	}
}
