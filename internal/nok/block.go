package nok

import (
	"encoding/binary"
	"fmt"
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

// indexer builds a block's positional index one entry at a time, in
// document order: init, add every entry, finish. An entry that cannot be
// indexed makes finish fail; later entries are then ignored.
type indexer struct {
	slots []slot // full length from the start; n are filled
	n     int
	err   error
	// top is the offset of the innermost open entry — an entry with
	// children whose subtree has not closed yet, so its successor is
	// unknown — or noOpen. Until then an open entry's next field links to
	// the open entry one level up. (A leaf's successor is simply the entry
	// after it.)
	top   int
	level int // of the next entry
	code  uint32
}

// noOpen ends the chain of open entries; no offset reaches it (a block
// holds at most 0xFFFF entries).
const noOpen = 0xFFFF

// init starts a block of count entries whose first lies at startDepth
// under startCode.
func (ix *indexer) init(startDepth uint16, startCode uint32, count int) {
	*ix = indexer{slots: make([]slot, count), top: noOpen, level: int(startDepth), code: startCode}
	if count > 0xFFFF {
		ix.err = fmt.Errorf("nok: block of %d entries exceeds the format's %d", count, 0xFFFF)
	}
}

// add appends one entry. More entries than init announced, or an entry
// that takes the level outside the format's 16-bit range — below the root,
// on a corrupt page — fail the block.
func (ix *indexer) add(e Entry) {
	j := ix.n
	if j >= len(ix.slots) || ix.err != nil {
		if ix.err == nil {
			ix.err = fmt.Errorf("nok: block holds more than the %d entries announced", len(ix.slots))
		}
		return
	}
	cf := uint32(e.CloseCount) << 1
	if e.HasCode {
		ix.code = e.Code
		cf |= 1
	}
	sl := &ix.slots[j]
	*sl = slot{tag: e.Tag, code: ix.code, level: uint16(ix.level), cf: cf}
	if e.CloseCount == 0 {
		sl.next, ix.top = uint16(ix.top), j
	} else {
		// The entry closes itself and the innermost CloseCount−1 open
		// entries: whatever comes next is the successor of them all.
		sl.next = uint16(j + 1)
		top := ix.top
		for c := e.CloseCount - 1; c > 0 && top != noOpen; c-- {
			open := &ix.slots[top]
			top, open.next = int(open.next), uint16(j+1)
		}
		ix.top = top
	}
	ix.n = j + 1
	ix.level += 1 - e.CloseCount
	if ix.level < 0 || ix.level > 0xFFFF {
		ix.err = fmt.Errorf("nok: entry %d leaves the block at level %d", j, ix.level)
	}
}

// finish closes the index: entries still open have no successor in the
// block.
func (ix *indexer) finish() ([]slot, error) {
	if ix.err != nil {
		return nil, ix.err
	}
	if ix.n != len(ix.slots) {
		return nil, fmt.Errorf("nok: block holds %d entries, %d announced", ix.n, len(ix.slots))
	}
	for top := ix.top; top != noOpen; {
		sl := &ix.slots[top]
		top, sl.next = int(sl.next), uint16(ix.n)
	}
	return ix.slots, nil
}

// decodeBlock decodes the page bytes of the block the directory describes
// as pi into its positional index. The header's entry count and body
// length are checked against the directory record and the page size, so a
// torn or corrupt page fails the caller instead of panicking.
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
	var ix indexer
	ix.init(pi.StartDepth, pi.AccessCode, count)
	for body := data[headerSize : headerSize+dataLen]; len(body) > 0; {
		e, n, err := decodeEntry(body)
		if err != nil {
			return nil, fmt.Errorf("nok: page %d: %w", pi.Page, err)
		}
		ix.add(e)
		body = body[n:]
	}
	blk, err := ix.finish()
	if err != nil {
		return nil, fmt.Errorf("nok: page %d: %w", pi.Page, err)
	}
	return blk, nil
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
