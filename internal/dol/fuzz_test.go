package dol

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"dolxml/internal/bitset"
)

// FuzzCodebookUnmarshal hardens the codebook decoder: arbitrary bytes must
// either fail cleanly or decode to a codebook that encodes to exactly those
// bytes.
func FuzzCodebookUnmarshal(f *testing.F) {
	mk := func(build func(cb *Codebook)) []byte {
		cb := NewCodebook(4)
		build(cb)
		data, err := cb.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(mk(func(cb *Codebook) {}))
	f.Add(mk(func(cb *Codebook) {
		c := intern(cb, mustBits("1010"))
		cb.Retain(c)
		d := intern(cb, mustBits("0001"))
		cb.Retain(d)
		cb.Release(d)
	}))
	f.Add([]byte{0xFF})
	f.Add(duplicateRows())
	for _, retired := range retiredCodebooks() {
		f.Add(retired)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cb Codebook
		if err := cb.UnmarshalBinary(data); err != nil {
			return
		}
		if out := mustMarshal(t, &cb); !bytes.Equal(out, data) {
			t.Fatalf("%x decodes to a codebook that encodes to %x", data, out)
		}
	})
}

// FuzzCodebookMeta drives a codebook through a fuzzer-chosen op sequence
// (interning sparse and dense rows over a wide population, retains,
// releases, subject adds), then requires the serialized form to decode to
// the same dictionary and re-marshal to the same bytes. The raw input is also fed
// straight to the decoder, which must fail cleanly or round-trip.
func FuzzCodebookMeta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 10, 2, 3, 40, 1, 2, 0})
	f.Add([]byte{3, 200, 200, 1, 4, 4, 4, 2, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const pop = 4096
		cb := NewCodebook(pop)
		var live []Code
		next := func(i *int) int {
			if *i >= len(ops) {
				return 0
			}
			v := int(ops[*i])
			*i++
			return v
		}
		for i := 0; i < len(ops); {
			switch next(&i) % 4 {
			case 0: // intern a run-structured row
				b := bitset.New(pop)
				nRuns := next(&i)%4 + 1
				at := 0
				for r := 0; r < nRuns; r++ {
					at += next(&i) * 7
					ln := next(&i)%97 + 1
					if at+ln > pop {
						break
					}
					b.SetRange(at, at+ln)
					at += ln + 1
				}
				c := intern(cb, b)
				cb.Retain(c)
				live = append(live, c)
			case 1: // intern a scattered (dense-ish) row
				b := bitset.New(pop)
				for j := 0; j < next(&i); j++ {
					b.Set((j*2654435761 + next(&i)) % pop)
				}
				c := intern(cb, b)
				cb.Retain(c)
				live = append(live, c)
			case 2: // release a live reference
				if len(live) > 0 {
					k := next(&i) % len(live)
					cb.Release(live[k])
					live = append(live[:k], live[k+1:]...)
				}
			case 3:
				cb.AddSubject()
			}
		}
		data, err := cb.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Codebook
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("own serialization rejected: %v", err)
		}
		if back.NumSubjects() != cb.NumSubjects() || back.Len() != cb.Len() || len(back.entries) != len(cb.entries) {
			t.Fatalf("shape changed: subjects %d->%d len %d->%d cap %d->%d",
				cb.NumSubjects(), back.NumSubjects(), cb.Len(), back.Len(), len(cb.entries), len(back.entries))
		}
		sameEntries(t, cb, &back)
		again, err := back.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("marshal not a fixpoint")
		}
		// Decoder hardening: the raw op bytes fed straight in must fail
		// cleanly or produce a re-marshalable book.
		var raw Codebook
		if err := raw.UnmarshalBinary(ops); err == nil {
			if _, err := raw.MarshalBinary(); err != nil {
				t.Fatalf("decoded raw input fails to marshal: %v", err)
			}
		}
	})
}

// sameEntries fails unless codebooks a and b hold the same rows and
// reference counts in the same slots.
func sameEntries(t *testing.T, a, b *Codebook) {
	t.Helper()
	for c := range a.entries {
		if (a.entries[c] == nil) != (b.entries[c] == nil) || !slices.Equal(a.entries[c], b.entries[c]) {
			t.Fatalf("code %d: row %v became %v", c, a.entries[c], b.entries[c])
		}
		if a.refs[c] != b.refs[c] {
			t.Fatalf("code %d: refs %d -> %d", c, a.refs[c], b.refs[c])
		}
	}
}

// duplicateRows is an image whose two live slots hold the same row over 4
// subjects, which no writer emits.
func duplicateRows() []byte {
	row := []byte{1, 2, 0, 0, 1, 0, 1}
	return slices.Concat([]byte{4, 2}, row, row)
}

// retiredCodebooks are framings no writer emits any more, each of which
// UnmarshalBinary must reject: the version-2 framing, which opened with a
// magic uvarint and tagged a dense row 1 and a run row 2; the row headers 2
// and 3; and a dense row, whose header was its byte count (here 12: a
// 4-byte bit count, 4, then one word).
func retiredCodebooks() [][]byte {
	v2 := binary.AppendUvarint(nil, 1<<62+2)
	return [][]byte{
		append(v2, 4, 2, 2, 1, 0, 0, 1, 1, 12, 4, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1),
		{4, 1, 2, 1, 0, 0, 1},
		{4, 1, 3, 4, 0, 0, 1},
		{4, 1, 12, 4, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1},
	}
}

func mustMarshal(t *testing.T, cb *Codebook) []byte {
	t.Helper()
	data, err := cb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustBits(s string) *bitset.Bitset {
	b, err := bitset.Parse(s)
	if err != nil {
		panic(err)
	}
	return b
}
