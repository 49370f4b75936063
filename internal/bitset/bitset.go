// Package bitset provides dynamic bit vectors used throughout the DOL
// implementation to represent per-node access control lists: bit i is set
// when subject i may access the node under the action mode at hand.
//
// The representation is a little-endian slice of 64-bit words. A Bitset of
// length n owns bits [0, n); out-of-range reads return false and
// out-of-range writes grow the vector. The zero value is an empty, usable
// bitset.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bitset is a growable bit vector. The zero value is empty and ready to use.
type Bitset struct {
	words []uint64
	n     int // logical length in bits
}

// New returns a bitset with logical length n, all bits clear.
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a bitset of length n with exactly the given bits set.
// Indices at or beyond n grow the bitset.
func FromIndices(n int, idx ...int) *Bitset {
	b := New(n)
	for _, i := range idx {
		b.Set(i)
	}
	return b
}

// grow extends the logical length to at least n bits.
func (b *Bitset) grow(n int) {
	if n <= b.n {
		return
	}
	need := (n + wordBits - 1) / wordBits
	for len(b.words) < need {
		b.words = append(b.words, 0)
	}
	b.n = n
}

// Resize sets the logical length to n bits, clearing any bits at or beyond n.
func (b *Bitset) Resize(n int) {
	if n < 0 {
		panic("bitset: negative length")
	}
	if n < b.n {
		need := (n + wordBits - 1) / wordBits
		b.words = b.words[:need]
		if rem := n % wordBits; rem != 0 && need > 0 {
			b.words[need-1] &= (1 << uint(rem)) - 1
		}
		b.n = n
		return
	}
	b.grow(n)
}

// Set sets bit i, growing the bitset if necessary.
func (b *Bitset) Set(i int) {
	if i < 0 {
		panic("bitset: negative index")
	}
	b.grow(i + 1)
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i. Clearing beyond the current length grows the bitset.
func (b *Bitset) Clear(i int) {
	if i < 0 {
		panic("bitset: negative index")
	}
	b.grow(i + 1)
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// SetTo sets bit i to v.
func (b *Bitset) SetTo(i int, v bool) {
	if v {
		b.Set(i)
	} else {
		b.Clear(i)
	}
}

// Test reports whether bit i is set. Out-of-range indices read as false.
func (b *Bitset) Test(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Equal reports whether b and o have identical logical length and bits.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	return b.EqualBits(o)
}

// EqualBits reports whether b and o have the same set bits, ignoring
// logical length. Two bitsets of different lengths whose set bits coincide
// compare equal under EqualBits but not under Equal.
func (b *Bitset) EqualBits(o *Bitset) bool {
	long, short := b.words, o.words
	if len(long) < len(short) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of b.
func (b *Bitset) Clone() *Bitset {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitset{words: w, n: b.n}
}

// CopyFrom overwrites b with the contents of o.
func (b *Bitset) CopyFrom(o *Bitset) {
	b.words = append(b.words[:0], o.words...)
	b.n = o.n
}

// Intersects reports whether b and o share at least one set bit. It is the
// allocation-free equivalent of Clone+And+Any, used on the access-decision
// hot path.
func (b *Bitset) Intersects(o *Bitset) bool {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if b.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none.
func (b *Bitset) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	for w := i / wordBits; w < len(b.words); w++ {
		word := b.words[w]
		if w == i/wordBits {
			word &= ^uint64(0) << uint(i%wordBits)
		}
		if word != 0 {
			idx := w*wordBits + bits.TrailingZeros64(word)
			if idx >= b.n {
				return -1
			}
			return idx
		}
	}
	return -1
}

// Indices returns the indices of all set bits in increasing order.
func (b *Bitset) Indices() []int {
	idx := make([]int, 0, b.Count())
	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
		idx = append(idx, i)
	}
	return idx
}

// Indices32 is Indices as uint32s, the form a run list's bounds take.
func (b *Bitset) Indices32() []uint32 {
	idx := make([]uint32, 0, b.Count())
	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
		idx = append(idx, uint32(i))
	}
	return idx
}

// String renders the bitset as a left-to-right bit string ("10110"),
// bit 0 first; useful in tests and debugging.
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.Grow(b.n)
	for i := 0; i < b.n; i++ {
		if b.Test(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Parse builds a bitset from a String-formatted bit string. It accepts only
// '0' and '1' characters.
func Parse(s string) (*Bitset, error) {
	b := New(len(s))
	for i, c := range s {
		switch c {
		case '1':
			b.Set(i)
		case '0':
		default:
			return nil, fmt.Errorf("bitset: invalid character %q at %d", c, i)
		}
	}
	return b, nil
}
