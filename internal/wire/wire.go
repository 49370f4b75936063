// Package wire is the varint framing of the store's binary metadata images
// (sidecar format 3): unsigned varints, and byte strings prefixed by their
// uvarint length. Its Reader accepts exactly what the Append functions
// produce — every varint complete and in its shortest form, every length
// inside the input — so a decoded image re-encodes to the bytes it came
// from, and a count read from the input can never allocate more elements
// than the input has bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrMalformed is what a Reader reports for input no encoder produces.
var ErrMalformed = errors.New("malformed image")

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendBytes appends p prefixed by its length.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendString appends s prefixed by its length.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Reader decodes an image front to back. The first malformed field sticks:
// it drops the bytes left, every later read returns zero values, and Err
// reports it.
type Reader struct {
	buf []byte
	bad bool
}

func (r *Reader) fail() {
	r.buf, r.bad = nil, true
}

// NewReader returns a Reader over b; the byte strings it returns alias b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Uvarint reads one uvarint in its shortest form. A one-byte value, the
// common case, is read inline.
func (r *Reader) Uvarint() uint64 {
	if b := r.buf; len(b) > 0 && b[0] < 0x80 {
		r.buf = b[1:]
		return uint64(b[0])
	}
	return r.uvarint()
}

func (r *Reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || r.buf[n-1] == 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Uint reads a uvarint no larger than max.
func (r *Reader) Uint(max uint64) uint64 {
	v := r.Uvarint()
	if v > max {
		r.fail()
		return 0
	}
	return v
}

// Int reads a uvarint that fits an int.
func (r *Reader) Int() int { return int(r.Uint(math.MaxInt)) }

// Len reads the count of a list whose every element takes at least one
// byte: a count past the bytes left is malformed.
func (r *Reader) Len() int {
	v := r.Uvarint()
	if v > uint64(len(r.buf)) {
		r.fail()
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string.
func (r *Reader) Bytes() []byte {
	n := r.Len()
	p := r.buf[:n:n]
	r.buf = r.buf[n:]
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Left returns the number of bytes not read yet.
func (r *Reader) Left() int { return len(r.buf) }

// Err reports whether a read so far was malformed.
func (r *Reader) Err() error {
	if r.bad {
		return ErrMalformed
	}
	return nil
}

// Done is Err that also requires every byte to have been read.
func (r *Reader) Done() error {
	if len(r.buf) != 0 {
		r.fail()
	}
	return r.Err()
}
