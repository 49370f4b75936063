package nok

import (
	"encoding/binary"
	"fmt"
	"math"
)

// slot is one node of a decoded block's positional index: everything a
// navigation step or an access check needs about the node at offset
// n − FirstNode, resolved in the pass that decodes the block. A cached
// block costs 16 bytes per entry (decEntryCostPerEntry) and holds only
// data fixed by the page's own bytes — levels and codes follow from the
// block header, offsets are block-relative — because a structural insert
// renumbers the FirstNode of later blocks while their pages, and their
// cached decodes, stay.
type slot struct {
	tag int32
	// code is the access code in force at the node: the nearest preceding
	// transition code in the block, or the header's (§3.3).
	code uint32
	// level is the node's depth (root = 0).
	level uint16
	// next is the offset of the first later entry at a level ≤ this
	// node's — its following sibling when the levels are equal, otherwise
	// the node that closes the parent — or the entry count when the block
	// ends inside the node's subtree or sibling run.
	next uint16
	// cf is the close count shifted left by one; bit 0 marks a transition
	// node (Entry.HasCode), whose inline code is then code.
	cf uint32
}

func (sl *slot) closeCount() int { return int(sl.cf >> 1) }
func (sl *slot) hasCode() bool   { return sl.cf&1 != 0 }

// entry returns the slot in stored form: codeless entries carry Code 0.
func (sl *slot) entry() Entry {
	e := Entry{Tag: sl.tag, CloseCount: sl.closeCount()}
	if sl.hasCode() {
		e.HasCode, e.Code = true, sl.code
	}
	return e
}

// noOpen ends the chain of open entries; no offset reaches it (a block
// holds at most 0xFFFF entries).
const noOpen = 0xFFFF

// decodeBlock decodes the page bytes of the block the directory describes
// as pi into its positional index — the one place an index is built: a
// single pass over the body that resolves each node's level, code in force
// and successor offset as it reads the entry. The header's entry count and
// body length are checked against the directory record and the page size,
// and every varint against its field's range, so a torn or corrupt page
// fails the caller instead of panicking.
func decodeBlock(pi PageInfo, data []byte) ([]slot, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("nok: page %d: %d bytes hold no block header", pi.Page, len(data))
	}
	count := int(binary.LittleEndian.Uint16(data[8:10]))
	dataLen := int(binary.LittleEndian.Uint16(data[10:12]))
	if count != pi.Count {
		return nil, fmt.Errorf("nok: page %d count mismatch: header %d, directory %d", pi.Page, count, pi.Count)
	}
	// An entry takes at least two bytes.
	if dataLen > len(data)-headerSize || count > dataLen/2 {
		return nil, fmt.Errorf("nok: page %d: header claims %d entries in %d bytes, page has %d", pi.Page, count, dataLen, len(data)-headerSize)
	}
	body := data[headerSize : headerSize+dataLen]
	slots := make([]slot, count)
	// top is the offset of the innermost open entry — an entry with
	// children whose subtree has not closed yet, so its successor is
	// unknown — or noOpen. Until then an open entry's next field links to
	// the open entry one level up. (A leaf's successor is simply the entry
	// after it.)
	top, level, code := noOpen, int(pi.StartDepth), pi.AccessCode
	j := 0
	// Tag, close count and code fit one byte on almost every entry; a longer
	// varint, or the end of the body, takes the general decoder.
	for p := 0; p < len(body); j++ {
		if j == count {
			return nil, fmt.Errorf("nok: page %d: block holds more than the %d entries announced", pi.Page, count)
		}
		head := uint64(body[p])
		if head < 0x80 {
			p++
		} else {
			var n int
			if head, n = binary.Uvarint(body[p:]); n <= 0 {
				return nil, fmt.Errorf("nok: page %d: corrupt entry header (uvarint %d)", pi.Page, n)
			}
			if head>>1 > math.MaxInt32 {
				return nil, fmt.Errorf("nok: page %d: tag code %d out of range", pi.Page, head>>1)
			}
			p += n
		}
		var cc uint64
		if p < len(body) && body[p] < 0x80 {
			cc = uint64(body[p])
			p++
		} else {
			var n int
			if cc, n = binary.Uvarint(body[p:]); n <= 0 {
				return nil, fmt.Errorf("nok: page %d: corrupt close count (uvarint %d)", pi.Page, n)
			}
			if cc > math.MaxInt32 {
				return nil, fmt.Errorf("nok: page %d: close count %d out of range", pi.Page, cc)
			}
			p += n
		}
		cf := uint32(cc) << 1
		if head&1 != 0 {
			cf |= 1
			if p < len(body) && body[p] < 0x80 {
				code = uint32(body[p])
				p++
			} else {
				v, n := binary.Uvarint(body[p:])
				if n <= 0 {
					return nil, fmt.Errorf("nok: page %d: corrupt access code (uvarint %d)", pi.Page, n)
				}
				if v > math.MaxUint32 {
					return nil, fmt.Errorf("nok: page %d: access code %d out of range", pi.Page, v)
				}
				code = uint32(v)
				p += n
			}
		}
		sl := &slots[j]
		*sl = slot{tag: int32(head >> 1), code: code, level: uint16(level), cf: cf}
		if cc == 0 {
			sl.next, top = uint16(top), j
		} else {
			// The entry closes itself and the innermost cc−1 open entries:
			// whatever comes next is the successor of them all.
			sl.next = uint16(j + 1)
			for c := cc - 1; c > 0 && top != noOpen; c-- {
				open := &slots[top]
				top, open.next = int(open.next), uint16(j+1)
			}
		}
		// A level outside the format's 16 bits — below the root, on a
		// corrupt page — fails the block.
		if level += 1 - int(cc); uint(level) > 0xFFFF {
			return nil, fmt.Errorf("nok: page %d: entry %d leaves the block at level %d", pi.Page, j, level)
		}
	}
	if j != count {
		return nil, fmt.Errorf("nok: page %d: block holds %d entries, %d announced", pi.Page, j, count)
	}
	// Entries still open have no successor in the block.
	for top != noOpen {
		sl := &slots[top]
		top, sl.next = int(sl.next), uint16(count)
	}
	return slots, nil
}

// checkIndex recomputes a decoded block's levels, codes in force and
// successor offsets from its close counts and transition flags alone and
// compares them with the index, returning the recomputed minimum level,
// change bit and level after the last entry.
func checkIndex(pi PageInfo, blk []slot) (min int, change bool, after int, err error) {
	level := int(pi.StartDepth)
	min = level
	code := pi.AccessCode
	for j := range blk {
		sl := &blk[j]
		if level < min {
			min = level
		}
		if sl.hasCode() {
			change = true
			code = sl.code
		}
		if int(sl.level) != level || sl.code != code {
			return 0, false, 0, fmt.Errorf("nok: page %d entry %d indexed at level %d code %d, recomputed %d and %d", pi.Page, j, sl.level, sl.code, level, code)
		}
		level += 1 - sl.closeCount()
		if level < 0 {
			return 0, false, 0, fmt.Errorf("nok: page %d closes below the root", pi.Page)
		}
	}
	// Successors, back to front: the entries after j are verified, so
	// their offsets may carry the search.
	for j := len(blk) - 1; j >= 0; j-- {
		k := j + 1
		for k < len(blk) && blk[k].level > blk[j].level {
			k = int(blk[k].next)
		}
		if int(blk[j].next) != k {
			return 0, false, 0, fmt.Errorf("nok: page %d entry %d successor offset %d, recomputed %d", pi.Page, j, blk[j].next, k)
		}
	}
	return min, change, level, nil
}
