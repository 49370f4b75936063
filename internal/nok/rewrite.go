package nok

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// freePage records a page released by a region rewrite. Without a gate it
// goes straight onto the reuse list; with one it is quarantined until every
// snapshot that might reference it has retired.
func (s *Store) freePage(p storage.PageID) {
	if s.gate != nil {
		s.retired = append(s.retired, p)
		return
	}
	s.freeList = append(s.freeList, p)
}

// allocPage returns a reusable or freshly allocated page, pinned. Reused
// pages are dropped from the decode cache at hand-out: a reader on an old
// snapshot may have re-cached the page's previous content between its
// release and its reuse here.
func (s *Store) allocPage() (*storage.Frame, error) {
	if len(s.freeList) == 0 && s.gate != nil {
		s.freeList = append(s.freeList, s.gate.Harvest()...)
	}
	if n := len(s.freeList); n > 0 {
		p := s.freeList[n-1]
		s.freeList = s.freeList[:n-1]
		s.invalidateDecoded(p)
		return s.pool.Get(p)
	}
	return s.pool.Allocate()
}

// AppendEntries appends entries [lo, hi) of block i, in stored form, to
// entries and the access code in force at each of them to codes — the read
// half of a region rewrite, which edits both and hands them back to
// RewriteRegion, RecodeRegion or RecodeBlock.
func (s *Store) AppendEntries(entries []Entry, codes []uint32, i, lo, hi int) ([]Entry, []uint32, error) {
	if i < 0 || i >= len(s.dir) || lo < 0 || hi < lo || hi > s.dir[i].Count {
		return nil, nil, fmt.Errorf("nok: invalid entries [%d,%d) of block %d of %d", lo, hi, i, len(s.dir))
	}
	blk, err := s.block(context.Background(), i)
	if err != nil {
		return nil, nil, err
	}
	entries, codes = slices.Grow(entries, hi-lo), slices.Grow(codes, hi-lo)
	for k := lo; k < hi; k++ {
		entries = append(entries, blk[k].entry())
		codes = append(codes, blk[k].code)
	}
	return entries, codes, nil
}

// RewriteRegion replaces blocks [i, j] with blocks holding newEntries. The
// region's first node keeps its document-order ID; the node count changes
// by len(newEntries) − (old count), shifting the IDs of all later nodes.
// startLevel is the level of the region's first entry (normally
// unchanged); startCode is the access code in force at that entry.
//
// The rewrite has the paper's update-locality property: only the pages of
// the affected region (plus any pages newly allocated for overflow) are
// written; later blocks are untouched — their in-memory directory entries
// are renumbered, but their on-disk contents remain valid because block
// headers are positioned by directory order, not by stored node IDs.
// It returns the number of blocks now occupying the region (directory
// indices i .. i+n-1). newEntries stays the caller's: the rewrite neither
// keeps nor modifies it.
//
// The rewrite runs inside WithTxn: on a write-ahead-logged pager the whole
// region replacement commits as one atomic batch (joining any batch already
// open at an outer boundary).
func (s *Store) RewriteRegion(i, j int, newEntries []Entry, startLevel int, startCode uint32) (int, error) {
	return s.rewrite(i, j, newEntries, startLevel, startCode, 0, -1)
}

// RecodeRegion is RewriteRegion for an update that changed nothing but
// access codes: newEntries holds the region's old tags and close counts,
// entry for entry, and the code in force differs from the old one at most
// at offsets [lo, hi] of it. When the new blocks keep the old ones'
// boundaries, the path summary observes the new codes on the classes of
// those entries instead of replaying the region. A recode inside one
// block whose spliced body fits the page is RecodeBlock's.
func (s *Store) RecodeRegion(i, j int, newEntries []Entry, startLevel int, startCode uint32, lo, hi int) (int, error) {
	if lo < 0 || hi < lo || hi >= len(newEntries) {
		return 0, fmt.Errorf("nok: recoded entries [%d,%d] of %d", lo, hi, len(newEntries))
	}
	n, err := s.rewrite(i, j, newEntries, startLevel, startCode, lo, hi)
	if err == nil {
		s.recodes.relayouts.Inc()
	}
	return n, err
}

// RecodeBlock changes access codes inside block i by splicing its page
// instead of laying the block out again. window holds, in stored form,
// entries [from, from+len(window)) of the block: their old tags and close
// counts with their new transition flags and codes. headerCode is the code
// in force at the block's first entry, a new one only when from is 0. The
// code in force at the window's last entry must be what it was (unless
// the window ends the block), so no entry after the window changes.
//
// Only the window is encoded again, between the old page's bytes before and
// after it, on a page from allocPage as every rewrite's (shadow paging under
// a gate); the offset marks kept with the cached index locate it, taken in
// one skip over the body on a block's first splice. The decode cache
// gets the old block's index with codes and transition flags patched on the
// window — levels, tags and successors cannot change — in place unless a
// frozen clone has read it, and the marks after the window shifted. The
// bytes are those RecodeRegion writes for the same entries, since a layout
// keeps a block whole exactly when its entries fit. When the spliced body
// does not fit the page, RecodeBlock changes nothing and reports false; the
// caller lays the block out with RecodeRegion, which splits it. A cursor on
// the live store must be discarded after a RecodeBlock, as after any
// rewrite.
func (s *Store) RecodeBlock(i, from int, window []Entry, headerCode uint32) (bool, error) {
	var spliced bool
	err := s.WithTxn(func() error {
		var err error
		spliced, err = s.recodeBlock(i, from, window, headerCode)
		return err
	})
	return spliced, err
}

func (s *Store) recodeBlock(i, from int, window []Entry, headerCode uint32) (bool, error) {
	if i < 0 || i >= len(s.dir) {
		return false, fmt.Errorf("nok: invalid block %d of %d", i, len(s.dir))
	}
	pi := s.dir[i]
	end := from + len(window)
	if from < 0 || end <= from || end > pi.Count {
		return false, fmt.Errorf("nok: recoded entries [%d,%d) of block %d's %d", from, end, i, pi.Count)
	}
	if from > 0 && headerCode != pi.AccessCode {
		return false, fmt.Errorf("nok: block %d header code %d changed by a recode from entry %d", i, pi.AccessCode, from)
	}
	old := pi.Page
	f, err := s.pool.Get(old)
	if err != nil {
		return false, err
	}
	spliced, err := s.splice(i, f, from, window, headerCode)
	if uerr := s.pool.Unpin(old, false); err == nil {
		err = uerr
	}
	if err == nil && spliced {
		s.recodes.splices.Inc()
	}
	return spliced, err
}

// splice is RecodeBlock on block i's pinned page f.
func (s *Store) splice(i int, f *storage.Frame, from int, window []Entry, headerCode uint32) (bool, error) {
	pi := s.dir[i]
	end := from + len(window)
	// The entry leaves the cache: a reader that comes after decodes the old
	// page, which a gated store never overwrites.
	ce := s.dec.take(pi.Page)
	if ce == nil {
		slots, err := decodeBlock(pi, f.Data)
		if err != nil {
			return false, err
		}
		ce = &decEntry{slots: slots}
	}
	slots := ce.slots
	code := headerCode
	if from > 0 {
		code = slots[from-1].code
	}
	var buf [128]byte
	enc := buf[:0]
	coded := false
	for k, e := range window {
		sl := &slots[from+k]
		if e.Tag != sl.tag || e.CloseCount != sl.closeCount() {
			return false, fmt.Errorf("nok: block %d entry %d recoded as tag %d closing %d, stored as tag %d closing %d", i, from+k, e.Tag, e.CloseCount, sl.tag, sl.closeCount())
		}
		if e.HasCode {
			if from+k == 0 {
				return false, fmt.Errorf("nok: block %d first entry recoded with an inline code", i)
			}
			code, coded = e.Code, true
		}
		enc = appendEntry(enc, e)
	}
	if end < len(slots) && code != slots[end-1].code {
		return false, fmt.Errorf("nok: block %d recode moves the code in force after entry %d from %d to %d", i, end, slots[end-1].code, code)
	}
	dataLen := int(binary.LittleEndian.Uint16(f.Data[10:12]))
	body := f.Data[headerSize : headerSize+min(dataLen, len(f.Data)-headerSize)]
	marks := ce.marks
	if marks == nil {
		marks = offsetMarks(body, len(slots))
	}
	// at returns the body offset of entry k, at most markEvery−1 entries
	// past its mark.
	at := func(k int) int {
		if k == len(slots) {
			return len(body)
		}
		if m := k / markEvery; m < len(marks) {
			return skipEntries(body, int(marks[m]), k%markEvery)
		}
		return -1
	}
	p, q := at(from), at(end)
	if p < 0 || q < p {
		return false, fmt.Errorf("nok: page %d: block %d's body ends before its entry %d", pi.Page, i, end)
	}
	n := dataLen - (q - p) + len(enc)
	if n > s.pool.Pager().PageSize()-headerSize {
		s.dec.put(pi.Page, slots, marks, ce.shared.Load())
		return false, nil
	}
	// A snapshot holds the index: patch a copy.
	if ce.shared.Load() {
		slots, marks = slices.Clone(slots), slices.Clone(marks)
	}
	code = headerCode
	if from > 0 {
		code = slots[from-1].code
	}
	off := p
	for k, e := range window {
		sl := &slots[from+k]
		sl.cf &^= 1
		if e.HasCode {
			sl.cf |= 1
			code = e.Code
		}
		sl.code = code
		if (from+k)%markEvery == 0 {
			marks[(from+k)/markEvery] = uint16(off)
		}
		off += entrySize(e)
	}
	for m := (end + markEvery - 1) / markEvery; m < len(marks); m++ {
		marks[m] += uint16(n - dataLen)
	}
	// Only a window that dropped the block's transitions and holds none
	// needs the rest of the block scanned for one.
	change := coded
	for k := 1; k < len(slots) && !change && pi.ChangeBit; k++ {
		change = slots[k].hasCode()
	}
	pi.AccessCode, pi.ChangeBit = headerCode, change

	// As in rewriteRegion: the old page is released before the new one is
	// taken, so an ungated store writes the block back onto its own page.
	s.freePage(pi.Page)
	nf, err := s.allocPage()
	if err != nil {
		return false, err
	}
	data := nf.Data[headerSize:]
	if nf != f {
		copy(data, body[:p])
	}
	// The suffix moves before the window is written: on the block's own
	// page the two overlap.
	copy(data[p+len(enc):], body[q:])
	copy(data[p:], enc)
	pi.Page = nf.ID()
	writeHeader(nf.Data, pi, n)
	if err := s.pool.Unpin(pi.Page, true); err != nil {
		return false, err
	}

	// Frozen clones share the directory: replace it, do not edit it.
	dir := slices.Clone(s.dir)
	dir[i] = pi
	s.dir = dir
	if err := s.observeRecode(i, [][]slot{slots}, from, end-1); err != nil {
		return false, err
	}
	s.dec.put(pi.Page, slots, marks, false)
	return true, nil
}

// skipEntries returns the offset in body of the entry n entries after the
// one at offset p, or -1 when body ends first.
func skipEntries(body []byte, p, n int) int {
	for ; n > 0 && p >= 0; n-- {
		if p >= len(body) {
			return -1
		}
		// A uvarint's low bit is its first byte's: the transition flag.
		coded := body[p]&1 != 0
		p = skipUvarint(body, skipUvarint(body, p))
		if coded {
			p = skipUvarint(body, p)
		}
	}
	return p
}

// skipUvarint returns the offset after the uvarint at p, or -1 when body
// ends first (or p is -1).
func skipUvarint(body []byte, p int) int {
	for ; p >= 0 && p < len(body); p++ {
		if body[p] < 0x80 {
			return p + 1
		}
	}
	return -1
}

// observeRecode brings the path summary up to a code-only rewrite of the
// blocks from i on that kept their boundaries, given their new indexes: the
// classes of entries [lo, hi] of the region observe their codes, from the
// context openAt finds at entry lo. No class is cloned unless one changes
// (pathsum.RegionRewrite).
func (s *Store) observeRecode(i int, blks [][]slot, lo, hi int) error {
	b := 0
	for ; lo >= len(blks[b]); b++ {
		lo, hi = lo-len(blks[b]), hi-len(blks[b])
	}
	var buf [32]int32
	tags := openAt(blks[b], lo, buf[:0])
	psr, err := s.paths.BeginRecode(i+b, int(blks[b][lo].level)-len(tags), tags)
	if err != nil {
		return s.RebuildPathSummary()
	}
	for ; b < len(blks) && hi >= 0; b, lo, hi = b+1, 0, hi-len(blks[b]) {
		for _, sl := range blks[b][lo:min(hi+1, len(blks[b]))] {
			psr.Recoded(sl.tag, sl.closeCount(), sl.code)
		}
	}
	spliced, ok := psr.FinishRecode()
	if !ok {
		return s.RebuildPathSummary()
	}
	s.paths = spliced
	return nil
}

// openAt appends to tags the tags of the elements of blk open above entry
// from, outermost first: a descent from the block's first entry that hops
// over each earlier sibling's subtree by its successor offset. It costs the
// depth plus the earlier siblings on the path — linear in from only in a
// flat block, a root with a thousand leaf children say. The elements open
// at the block's start that are still open at from number its level less
// the tags found.
func openAt(blk []slot, from int, tags []int32) []int32 {
	for j := 0; j < from; {
		if next := int(blk[j].next); next > from {
			tags = append(tags, blk[j].tag)
			j++
		} else {
			j = next
		}
	}
	return tags
}

func (s *Store) rewrite(i, j int, newEntries []Entry, startLevel int, startCode uint32, lo, hi int) (int, error) {
	var n int
	err := s.WithTxn(func() error {
		var err error
		n, err = s.rewriteRegion(i, j, newEntries, startLevel, startCode, lo, hi)
		return err
	})
	return n, err
}

// rewriteRegion lays newEntries out in blocks over [i, j]. Entries [lo, hi]
// are the recoded ones of a code-only rewrite; hi < lo means the structure
// may have changed.
func (s *Store) rewriteRegion(i, j int, newEntries []Entry, startLevel int, startCode uint32, lo, hi int) (int, error) {
	if i < 0 || j >= len(s.dir) || i > j {
		return 0, fmt.Errorf("nok: invalid region [%d,%d] of %d blocks", i, j, len(s.dir))
	}
	if len(newEntries) == 0 {
		return 0, fmt.Errorf("nok: rewrite to empty region unsupported")
	}
	oldCount := 0
	for k := i; k <= j; k++ {
		oldCount += s.dir[k].Count
	}
	delta := len(newEntries) - oldCount
	firstNode := s.dir[i].FirstNode

	// Release the old region's pages up front; their cached decodings are
	// stale either way. Freeing in reverse keeps the legacy assignment
	// order on ungated stores (LIFO pops hand the region's first page out
	// first); on gated stores the pages are quarantined instead and every
	// new block lands on a fresh or harvested page, leaving the old content
	// intact for pinned snapshots.
	for k := j; k >= i; k-- {
		s.invalidateDecoded(s.dir[k].Page)
		s.freePage(s.dir[k].Page)
	}

	pageSize := s.pool.Pager().PageSize()
	capBytes := pageSize - headerSize

	// Lay out new blocks, each a run newEntries[from:to] encoded straight
	// into its page; the block-first entry's inline code, which the header
	// carries, is dropped by the encoder.
	ends := blockEnds(newEntries, capBytes, j-i+1)
	newDir := make([]PageInfo, 0, len(ends))
	// warm collects each written block's positional index so the decode
	// cache can be primed once the rewrite has fully succeeded:
	// accessibility toggles re-read the region they just rewrote, and
	// without priming every toggle pays a full block decode because the
	// rewrite invalidated the cache. Installed only after the directory
	// splice — priming from inside flush could cache entries for a layout
	// that errors halfway, against a directory that still describes the
	// old blocks.
	warm := make([][]slot, 0, len(ends))
	flush := func(pi PageInfo, from, to int) error {
		frame, err := s.allocPage()
		if err != nil {
			return err
		}
		pi.Page, pi.Count = frame.ID(), to-from
		body := frame.Data[headerSize:headerSize]
		for k, e := range newEntries[from:to] {
			if k == 0 {
				e.HasCode, e.Code = false, 0
			} else if e.HasCode {
				pi.ChangeBit = true
			}
			body = appendEntry(body, e)
		}
		writeHeader(frame.Data, pi, len(body))
		// The index is a decode of the page just written: what readers get.
		blk, err := decodeBlock(pi, frame.Data)
		if uerr := s.pool.Unpin(frame.ID(), true); err == nil {
			err = uerr
		}
		if err != nil {
			return err
		}
		newDir = append(newDir, pi)
		warm = append(warm, blk)
		return nil
	}
	var (
		pi       PageInfo // the open block's header, but for page, count and min depth
		from     int      // the open block's first entry
		blockMin int
		level    = startLevel
		code     = startCode
	)
	for k, e := range newEntries {
		if e.HasCode {
			code = e.Code
		}
		if k == ends[len(newDir)] {
			pi.MinDepth = uint16(blockMin)
			if err := flush(pi, from, k); err != nil {
				return 0, err
			}
			from = k
		}
		if k == from {
			pi = PageInfo{FirstNode: firstNode + xmltree.NodeID(k), StartDepth: uint16(level), AccessCode: code}
			blockMin = level
		} else if level < blockMin {
			blockMin = level
		}
		level = level + 1 - e.CloseCount
	}
	pi.MinDepth = uint16(blockMin)
	if err := flush(pi, from, len(newEntries)); err != nil {
		return 0, err
	}

	// A code-only rewrite whose blocks kept their boundaries leaves every
	// block's start context as it was.
	recode := lo <= hi && len(newDir) == j-i+1
	for k := 0; recode && k < len(newDir); k++ {
		recode = newDir[k].Count == s.dir[i+k].Count
	}

	// Splice the directory and renumber later blocks.
	dir := make([]PageInfo, 0, len(s.dir)-(j-i+1)+len(newDir))
	dir = append(dir, s.dir[:i]...)
	dir = append(dir, newDir...)
	for k := j + 1; k < len(s.dir); k++ {
		pi := s.dir[k]
		pi.FirstNode += xmltree.NodeID(delta)
		dir = append(dir, pi)
	}
	s.dir = dir
	s.numNodes += delta
	var err error
	if recode {
		err = s.observeRecode(i, warm, lo, hi)
	} else {
		err = s.rewritePaths(i, j, newEntries, newDir, startCode)
	}
	if err != nil {
		return 0, err
	}
	for k, blk := range warm {
		s.dec.put(newDir[k].Page, blk, nil, false)
	}
	return len(newDir), nil
}

// blockEnds cuts entries into blocks of at most capBytes encoded bytes and
// returns the end of each: greedily, every block as full as the page
// allows, unless that takes more blocks than the region's old ones; then
// the same number of blocks — the fewest that hold the entries — filled
// evenly by bytes, each block ending where its next entry's middle would
// pass the mean of what is left. An overflowing block thus splits in half
// instead of spilling its last entry onto a page of its own, which the next
// update that grows the block overflows again. Should the even cut leave
// its last block over capacity, the greedy one stands.
func blockEnds(entries []Entry, capBytes, old int) []int {
	var ends []int
	total, bytes := 0, 0
	for k, e := range entries {
		sz := entrySize(e)
		if bytes+sz > capBytes && bytes > 0 {
			ends, bytes = append(ends, k), 0
		}
		bytes += sz
		total += sz
	}
	ends = append(ends, len(entries))
	n := len(ends)
	if n <= old {
		return ends
	}
	even := make([]int, 0, n)
	left := total // the bytes of the open block and of those after it
	bytes = 0
	for k, e := range entries {
		sz := entrySize(e)
		// r blocks are left, the open one included.
		if r := n - len(even); bytes > 0 && r > 1 && (bytes+sz > capBytes || (2*bytes+sz)*r > 2*left) {
			even, left, bytes = append(even, k), left-bytes, 0
		}
		bytes += sz
	}
	if bytes > capBytes {
		return ends
	}
	return append(even, len(entries))
}

// rewritePaths brings the path summary up to a rewrite of blocks [i, j]
// into newDir, on a copy-on-write clone: installed summaries stay immutable
// for frozen snapshots. It replays the region's new entries; a replay
// that cannot line up falls back to a full rebuild from the spliced blocks.
func (s *Store) rewritePaths(i, j int, newEntries []Entry, newDir []PageInfo, startCode uint32) error {
	psr, err := s.paths.BeginRewrite(i, j)
	if err != nil {
		return s.RebuildPathSummary()
	}
	code := startCode
	k := 0
	for _, pi := range newDir {
		for _, e := range newEntries[k : k+pi.Count] {
			if e.HasCode {
				code = e.Code
			}
			psr.Entry(e.Tag, e.CloseCount, code)
		}
		k += pi.Count
		psr.EndBlock()
	}
	spliced, ok := psr.Finish()
	if !ok {
		return s.RebuildPathSummary()
	}
	s.paths = spliced
	return nil
}

// InternTag returns the code for tag, adding it to the store's tag table if
// new — used when inserted fragments introduce tags the document had not
// seen. The index map is rebuilt copy-on-write so frozen clones sharing the
// old map never observe a concurrent insert; the tags slice only ever
// appends, which clones (whose codes are all below their own length) read
// safely.
func (s *Store) InternTag(tag string) int32 {
	if c, ok := s.tagIndex[tag]; ok {
		return c
	}
	c := int32(len(s.tags))
	s.tags = append(s.tags, tag)
	idx := make(map[string]int32, len(s.tagIndex)+1)
	for k, v := range s.tagIndex {
		idx[k] = v
	}
	idx[tag] = c
	s.tagIndex = idx
	return c
}
