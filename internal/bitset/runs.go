package bitset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// Run is a maximal interval of consecutive set bits: bits
// [Start, Start+Len) are set. Subject populations are heavily
// group-correlated, so access control lists over large subject spaces
// decompose into a handful of runs; the codebook holds every row as runs
// instead of dense words.
type Run struct {
	Start uint32
	Len   uint32
}

// End returns the exclusive end of the run.
func (r Run) End() uint32 { return r.Start + r.Len }

// Runs returns the maximal runs of set bits in increasing order. An empty
// bitset returns nil.
func (b *Bitset) Runs() []Run {
	var runs []Run
	i := b.NextSet(0)
	for i >= 0 {
		j := b.nextClear(i + 1)
		runs = append(runs, Run{Start: uint32(i), Len: uint32(j - i)})
		if j >= b.n {
			break
		}
		i = b.NextSet(j + 1)
	}
	return runs
}

// nextClear returns the index of the first clear bit at or after i, or b.n
// when every remaining bit is set.
func (b *Bitset) nextClear(i int) int {
	if i < 0 {
		i = 0
	}
	for i < b.n {
		inv := ^b.words[i/wordBits] >> uint(i%wordBits)
		if inv != 0 {
			j := i + bits.TrailingZeros64(inv)
			if j > b.n {
				j = b.n
			}
			return j
		}
		i = (i/wordBits + 1) * wordBits
	}
	return b.n
}

// FromRuns returns a bitset of logical length at least n with exactly the
// given runs set. Runs beyond n grow the bitset, mirroring Set.
func FromRuns(n int, runs []Run) *Bitset {
	b := New(n)
	for _, r := range runs {
		if r.Len == 0 {
			continue
		}
		b.SetRange(int(r.Start), int(r.Start+r.Len))
	}
	return b
}

// SetRange sets bits [lo, hi), growing the bitset if necessary. It fills
// whole words at a time, so granting a contiguous subject range costs
// O(words touched) rather than O(bits).
func (b *Bitset) SetRange(lo, hi int) {
	if lo < 0 {
		panic("bitset: negative SetRange bound")
	}
	if hi <= lo {
		return
	}
	b.grow(hi)
	lw, hw := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	hiMask := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if lw == hw {
		b.words[lw] |= loMask & hiMask
		return
	}
	b.words[lw] |= loMask
	for w := lw + 1; w < hw; w++ {
		b.words[w] = ^uint64(0)
	}
	b.words[hw] |= hiMask
}

// AddRunBit returns a sorted run list equal to runs plus bit s, coalescing
// with adjacent runs. When s is already set it returns runs unchanged (the
// same slice); otherwise it returns a fresh slice and leaves runs intact.
func AddRunBit(runs []Run, s uint32) []Run {
	k := sort.Search(len(runs), func(k int) bool { return runs[k].End() >= s })
	if k < len(runs) && runs[k].Start <= s && s < runs[k].End() {
		return runs // already set
	}
	// Every run before k ends strictly below s.
	switch {
	case k < len(runs) && runs[k].End() == s:
		// Extends run k upward; may bridge to run k+1.
		if k+1 < len(runs) && runs[k+1].Start == s+1 {
			out := make([]Run, 0, len(runs)-1)
			out = append(out, runs[:k]...)
			out = append(out, Run{Start: runs[k].Start, Len: runs[k].Len + 1 + runs[k+1].Len})
			out = append(out, runs[k+2:]...)
			return out
		}
		out := make([]Run, len(runs))
		copy(out, runs)
		out[k].Len++
		return out
	case k < len(runs) && runs[k].Start == s+1:
		// Extends run k downward.
		out := make([]Run, len(runs))
		copy(out, runs)
		out[k].Start = s
		out[k].Len++
		return out
	default:
		out := make([]Run, 0, len(runs)+1)
		out = append(out, runs[:k]...)
		out = append(out, Run{Start: s, Len: 1})
		out = append(out, runs[k:]...)
		return out
	}
}

// RemoveRunBit returns a sorted run list equal to runs less bit s,
// splitting the run that holds it. When s is clear it returns runs
// unchanged (the same slice); otherwise it returns a fresh slice and
// leaves runs intact.
func RemoveRunBit(runs []Run, s uint32) []Run {
	k := sort.Search(len(runs), func(k int) bool { return runs[k].End() > s })
	if k == len(runs) || runs[k].Start > s {
		return runs
	}
	r := runs[k]
	out := append(make([]Run, 0, len(runs)+1), runs[:k]...)
	if s > r.Start {
		out = append(out, Run{Start: r.Start, Len: s - r.Start})
	}
	if s+1 < r.End() {
		out = append(out, Run{Start: s + 1, Len: r.End() - s - 1})
	}
	return append(out, runs[k+1:]...)
}

// AppendRuns appends a compact encoding of the sorted run list to dst and
// returns the result: a uvarint run count, then per run the uvarint gap
// from the previous run's end (the start itself for the first run) and the
// uvarint length minus one. Group-correlated ACLs encode in a few bytes per
// run regardless of the subject population.
func AppendRuns(dst []byte, runs []Run) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(runs)))
	prev := uint32(0)
	for _, r := range runs {
		dst = binary.AppendUvarint(dst, uint64(r.Start-prev))
		dst = binary.AppendUvarint(dst, uint64(r.Len-1))
		prev = r.End()
	}
	return dst
}

// RunsSize returns len(AppendRuns(nil, runs)) without building the slice.
func RunsSize(runs []Run) int {
	sz := uvarintLen(uint64(len(runs)))
	prev := uint32(0)
	for _, r := range runs {
		sz += uvarintLen(uint64(r.Start-prev)) + uvarintLen(uint64(r.Len-1))
		prev = r.End()
	}
	return sz
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DecodeRuns decodes a run list produced by AppendRuns from the front of
// data, appending the runs to dst, and returns them, the unconsumed
// remainder, and an error on malformed input. It accepts exactly what
// AppendRuns writes — every varint in its shortest form — so the bytes it
// consumes are AppendRuns of the runs it returns. maxBit bounds the
// exclusive end of the last run (pass the subject population); it rejects
// encodings whose runs overflow the bitset they are destined for.
func DecodeRuns(dst []Run, data []byte, maxBit uint32) ([]Run, []byte, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 || data[n-1] == 0 && n > 1 {
		return nil, nil, fmt.Errorf("bitset: corrupt run count")
	}
	data = data[n:]
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		gap, n := binary.Uvarint(data)
		if n <= 0 || data[n-1] == 0 && n > 1 {
			return nil, nil, fmt.Errorf("bitset: corrupt run %d gap", i)
		}
		data = data[n:]
		lenM1, n := binary.Uvarint(data)
		if n <= 0 || data[n-1] == 0 && n > 1 {
			return nil, nil, fmt.Errorf("bitset: corrupt run %d length", i)
		}
		data = data[n:]
		if i > 0 && gap == 0 {
			return nil, nil, fmt.Errorf("bitset: run %d not separated from predecessor", i)
		}
		// Each bound is checked before it is added to, so no sum wraps.
		if gap > uint64(maxBit) || lenM1 >= uint64(maxBit) || prev+gap+lenM1+1 > uint64(maxBit) {
			return nil, nil, fmt.Errorf("bitset: run %d ends beyond %d bits", i, maxBit)
		}
		start := prev + gap
		dst = append(dst, Run{Start: uint32(start), Len: uint32(lenM1 + 1)})
		prev = start + lenM1 + 1
	}
	return dst, data, nil
}
