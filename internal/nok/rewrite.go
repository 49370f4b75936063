package nok

import (
	"context"
	"fmt"
	"slices"

	"dolxml/internal/pathsum"
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

// FreePages returns the number of pages in the reuse list.
func (s *Store) FreePages() int { return len(s.freeList) }

// BlockEntries decodes the entries of block i exactly as stored: block-first
// entries never carry inline codes (their code lives in the header). The
// returned slice is the caller's (never shared with the decode cache).
func (s *Store) BlockEntries(i int) ([]Entry, error) {
	es, _, err := s.AppendBlock(nil, nil, i)
	return es, err
}

// AppendBlock appends block i's entries, in stored form, to entries and the
// access code in force at each of them to codes — the read half of a region
// rewrite, which edits both and hands them back to RewriteRegion.
func (s *Store) AppendBlock(entries []Entry, codes []uint32, i int) ([]Entry, []uint32, error) {
	if i < 0 || i >= len(s.dir) {
		return nil, nil, fmt.Errorf("nok: invalid block %d of %d", i, len(s.dir))
	}
	blk, err := s.block(context.Background(), i)
	if err != nil {
		return nil, nil, err
	}
	entries, codes = slices.Grow(entries, len(blk)), slices.Grow(codes, len(blk))
	for k := range blk {
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
// indices i .. i+n-1).
//
// The rewrite runs inside WithTxn: on a write-ahead-logged pager the whole
// region replacement commits as one atomic batch (joining any batch already
// open at an outer boundary).
func (s *Store) RewriteRegion(i, j int, newEntries []Entry, startLevel int, startCode uint32) (int, error) {
	var n int
	err := s.WithTxn(func() error {
		var err error
		n, err = s.rewriteRegion(i, j, newEntries, startLevel, startCode)
		return err
	})
	return n, err
}

func (s *Store) rewriteRegion(i, j int, newEntries []Entry, startLevel int, startCode uint32) (int, error) {
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

	// Replay the rewrite against the path summary on a copy-on-write
	// clone: installed summaries stay immutable for frozen snapshots. A
	// replay that cannot line up (psr nil or Finish rejecting) falls back
	// to a full rebuild from the spliced blocks.
	var psr *pathsum.RegionRewrite
	if s.paths != nil {
		psr, _ = s.paths.BeginRewrite(i, j)
	}

	// Lay out new blocks.
	var newDir []PageInfo
	// warm collects each written block's positional index so the decode
	// cache can be primed once the rewrite has fully succeeded:
	// accessibility toggles re-read the region they just rewrote, and
	// without priming every toggle pays a full block decode because the
	// rewrite invalidated the cache. Installed only after the directory
	// splice — priming from inside flush could cache entries for a layout
	// that errors halfway, against a directory that still describes the
	// old blocks.
	type warmedBlock struct {
		pid storage.PageID
		blk []slot
	}
	var warm []warmedBlock
	var (
		blockEntries []Entry
		blockBytes   int
		blockFirst   = firstNode
		level        = startLevel
		code         = startCode
		blockStartLv = startLevel
		blockStartCd = startCode
		blockMin     = startLevel
	)
	flush := func() error {
		if len(blockEntries) == 0 {
			return nil
		}
		if psr != nil {
			psr.EndBlock()
		}
		frame, err := s.allocPage()
		if err != nil {
			return err
		}
		pi := PageInfo{
			Page:       frame.ID(),
			FirstNode:  blockFirst,
			Count:      len(blockEntries),
			StartDepth: uint16(blockStartLv),
			MinDepth:   uint16(blockMin),
			AccessCode: blockStartCd,
		}
		blockEntries[0].HasCode = false
		blockEntries[0].Code = 0
		body := frame.Data[headerSize:headerSize]
		for _, e := range blockEntries {
			if e.HasCode {
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
		warm = append(warm, warmedBlock{pid: pi.Page, blk: blk})
		blockFirst += xmltree.NodeID(len(blockEntries))
		blockEntries = blockEntries[:0]
		blockBytes = 0
		return nil
	}

	for _, e := range newEntries {
		if e.HasCode {
			code = e.Code
		}
		sz := entrySize(e)
		if blockBytes+sz > capBytes && len(blockEntries) > 0 {
			if err := flush(); err != nil {
				return 0, err
			}
		}
		if len(blockEntries) == 0 {
			blockStartLv = level
			blockStartCd = code
			blockMin = level
		} else if level < blockMin {
			blockMin = level
		}
		if psr != nil {
			psr.Entry(e.Tag, e.CloseCount, code)
		}
		blockEntries = append(blockEntries, e)
		blockBytes += sz
		level = level + 1 - e.CloseCount
	}
	if err := flush(); err != nil {
		return 0, err
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
	if s.paths != nil {
		var spliced *pathsum.Summary
		ok := false
		if psr != nil {
			spliced, ok = psr.Finish()
		}
		if ok {
			s.paths = spliced
		} else if err := s.RebuildPathSummary(); err != nil {
			return 0, err
		}
	}
	for _, wb := range warm {
		s.dec.put(wb.pid, wb.blk)
	}
	return len(newDir), nil
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
