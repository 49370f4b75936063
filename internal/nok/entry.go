// Package nok implements the succinct, block-oriented physical storage
// scheme for XML document structure from Zhang, Kacholia and Özsu (ICDE'04)
// that the DOL paper builds on, together with the DOL paper's extensions
// (§3): per-entry embedded access-control codes, per-block access headers,
// and an in-memory page directory enabling navigation and page skipping.
//
// The document structure is the "closing parens" string of the paper: nodes
// appear in document order; each entry records the node's tag and the
// number of subtrees that end immediately after it (its closeCount). Open
// parentheses are elided as redundant. A node has a first child exactly
// when its closeCount is zero, in which case the child is the next node in
// document order.
//
// Access-control codes are opaque uint32 values here; their interpretation
// (the DOL codebook) lives in package dol.
package nok

import "encoding/binary"

// Entry is one decoded node record from a structure block.
type Entry struct {
	// Tag is the node's tag code (index into the store's tag table).
	Tag int32
	// CloseCount is the number of subtrees ending immediately after this
	// node; zero means the node has a first child.
	CloseCount int
	// HasCode marks the node as a DOL transition node carrying an
	// access-control code.
	HasCode bool
	// Code is the access-control codebook index, valid when HasCode.
	Code uint32
}

// appendEntry encodes e and appends it to buf.
func appendEntry(buf []byte, e Entry) []byte {
	head := uint64(e.Tag) << 1
	if e.HasCode {
		head |= 1
	}
	buf = binary.AppendUvarint(buf, head)
	buf = binary.AppendUvarint(buf, uint64(e.CloseCount))
	if e.HasCode {
		buf = binary.AppendUvarint(buf, uint64(e.Code))
	}
	return buf
}

// entrySize returns the encoded size of e in bytes.
func entrySize(e Entry) int {
	head := uint64(e.Tag) << 1
	if e.HasCode {
		head |= 1
	}
	n := uvarintLen(head) + uvarintLen(uint64(e.CloseCount))
	if e.HasCode {
		n += uvarintLen(uint64(e.Code))
	}
	return n
}

// uvarintLen returns the number of bytes AppendUvarint would use for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
