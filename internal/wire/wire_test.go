package wire

import (
	"errors"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	b := AppendUvarint(nil, 300)
	b = AppendString(b, "read")
	b = AppendBytes(b, []byte{})
	b = AppendUvarint(b, 1)
	r := NewReader(b)
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if s := r.String(); s != "read" {
		t.Fatalf("String = %q", s)
	}
	if p := r.Bytes(); len(p) != 0 {
		t.Fatalf("Bytes = %x", p)
	}
	if v := r.Uint(1); v != 1 {
		t.Fatalf("Uint = %d", v)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// Everything no encoder writes is malformed, and the first error sticks.
func TestRejectsWhatNoEncoderWrites(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
		read func(r *Reader)
	}{
		{"padded varint", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }},
		{"varint cut short", []byte{0x81}, func(r *Reader) { r.Uvarint() }},
		{"value past its bound", []byte{2}, func(r *Reader) { r.Uint(1) }},
		{"count past the bytes left", []byte{3, 0, 0}, func(r *Reader) { r.Len() }},
		{"string cut short", []byte{4, 'r', 'e'}, func(r *Reader) { _ = r.String() }},
		{"bytes left over", []byte{1, 2}, func(r *Reader) { r.Uvarint() }},
	} {
		r := NewReader(c.in)
		c.read(r)
		if err := r.Done(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", c.name, err)
		}
		if r.Uvarint() != 0 || r.Left() != 0 || r.Bytes() != nil {
			t.Errorf("%s: reads after the error return data", c.name)
		}
	}
}
