package nok

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The per-entry block decoder the engine used until decodeBlock became one
// fused loop, kept as the reference the tests and FuzzDecodeBlock compare
// it against: same verdict on every page and, on accept, the same slots.

// decodeEntry decodes one entry from data, returning it and the number of
// bytes consumed.
func decodeEntry(data []byte) (Entry, int, error) {
	head, n := binary.Uvarint(data)
	if n <= 0 {
		return Entry{}, 0, fmt.Errorf("nok: corrupt entry header (uvarint %d)", n)
	}
	if head>>1 > math.MaxInt32 {
		return Entry{}, 0, fmt.Errorf("nok: tag code %d out of range", head>>1)
	}
	e := Entry{Tag: int32(head >> 1), HasCode: head&1 != 0}
	cc, m := binary.Uvarint(data[n:])
	if m <= 0 {
		return Entry{}, 0, fmt.Errorf("nok: corrupt close count (uvarint %d)", m)
	}
	if cc > math.MaxInt32 {
		return Entry{}, 0, fmt.Errorf("nok: close count %d out of range", cc)
	}
	e.CloseCount = int(cc)
	total := n + m
	if e.HasCode {
		code, k := binary.Uvarint(data[total:])
		if k <= 0 {
			return Entry{}, 0, fmt.Errorf("nok: corrupt access code (uvarint %d)", k)
		}
		if code > math.MaxUint32 {
			return Entry{}, 0, fmt.Errorf("nok: access code %d out of range", code)
		}
		e.Code = uint32(code)
		total += k
	}
	return e, total, nil
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

// refDecodeBlock is decodeBlock as it was before the fused loop: header
// checks, then decodeEntry and indexer.add per entry.
func refDecodeBlock(pi PageInfo, data []byte) ([]slot, error) {
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
