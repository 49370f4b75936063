package nok

import (
	"encoding/binary"
	"fmt"

	"dolxml/internal/pathsum"
	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// CodeSource supplies DOL access-control codes during a build. Package dol
// implements it on top of an accessibility matrix; a nil CodeSource builds
// an unsecured store (all codes zero, no transition entries).
type CodeSource interface {
	// CodeInForce returns the access code governing node n, i.e. the code
	// of the nearest preceding transition node (or of n itself).
	CodeInForce(n xmltree.NodeID) uint32
	// IsTransition reports whether n's accessibility differs from its
	// document-order predecessor (the root is always a transition node).
	IsTransition(n xmltree.NodeID) bool
}

// BuildOptions configure Build.
type BuildOptions struct {
	// Codes embeds DOL access codes; nil builds an unsecured store.
	Codes CodeSource
	// FillPercent bounds how full each structure block is packed
	// (1–100). Lower values leave room for in-place accessibility
	// updates. 0 means 100.
	FillPercent int
	// StoreValues also writes node text values into a value store.
	StoreValues bool
	// Values supplies node values when StoreValues is set; by default the
	// document's own values are used.
	Values func(n xmltree.NodeID) string
}

// Build writes doc's structure (and, if opts.Codes is set, its embedded DOL
// access codes) into blocks allocated from pool, in a single document-order
// pass — the construction property the paper highlights in §2.
func Build(pool *storage.BufferPool, doc *xmltree.Document, opts BuildOptions) (*Store, error) {
	if doc.Len() == 0 {
		return nil, fmt.Errorf("nok: empty document")
	}
	fill := opts.FillPercent
	if fill <= 0 || fill > 100 {
		fill = 100
	}
	pageSize := pool.Pager().PageSize()
	capBytes := (pageSize - headerSize) * fill / 100
	if capBytes < 8 {
		return nil, fmt.Errorf("nok: page size %d too small", pageSize)
	}

	s := &Store{
		pool:     pool,
		tags:     doc.Tags(),
		tagIndex: make(map[string]int32),
		numNodes: doc.Len(),
		dec:      newDecodeCache(DefaultDecodeCacheBudget),
	}
	for i, t := range s.tags {
		s.tagIndex[t] = int32(i)
	}

	maxDepth := doc.MaxDepth()
	if maxDepth > 0xFFFF {
		return nil, fmt.Errorf("nok: document depth %d exceeds format limit", maxDepth)
	}

	var (
		blockEntries []Entry
		blockBytes   int
		blockFirst   xmltree.NodeID
		blockMin     int
	)
	psb := pathsum.NewBuilder()
	flush := func() error {
		if len(blockEntries) == 0 {
			return nil
		}
		psb.EndBlock()
		frame, err := pool.Allocate()
		if err != nil {
			return err
		}
		pi := PageInfo{
			Page:       frame.ID(),
			FirstNode:  blockFirst,
			Count:      len(blockEntries),
			StartDepth: uint16(doc.Level(blockFirst)),
			MinDepth:   uint16(blockMin),
		}
		if opts.Codes != nil {
			pi.AccessCode = opts.Codes.CodeInForce(blockFirst)
		}
		// The block's first entry never carries an inline code: its code
		// is the header's AccessCode (§3.2 "initial transition node").
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
		if err := pool.Unpin(frame.ID(), true); err != nil {
			return err
		}
		s.dir = append(s.dir, pi)
		blockEntries = blockEntries[:0]
		blockBytes = 0
		return nil
	}

	for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
		e := Entry{
			Tag:        int32(doc.TagIDOf(n)),
			CloseCount: doc.CloseCount(n),
		}
		if opts.Codes != nil && opts.Codes.IsTransition(n) {
			e.HasCode = true
			e.Code = opts.Codes.CodeInForce(n)
		}
		sz := entrySize(e)
		if blockBytes+sz > capBytes && len(blockEntries) > 0 {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		if len(blockEntries) == 0 {
			blockFirst = n
			blockMin = doc.Level(n)
		} else if l := doc.Level(n); l < blockMin {
			blockMin = l
		}
		var code uint32
		if opts.Codes != nil {
			code = opts.Codes.CodeInForce(n)
		}
		psb.Entry(e.Tag, e.CloseCount, code)
		blockEntries = append(blockEntries, e)
		blockBytes += sz
	}
	if err := flush(); err != nil {
		return nil, err
	}
	paths, err := psb.Finish()
	if err != nil {
		return nil, fmt.Errorf("nok: path summary: %w", err)
	}
	s.paths = paths

	if opts.StoreValues {
		valueOf := opts.Values
		if valueOf == nil {
			valueOf = doc.Value
		}
		vs, err := BuildValues(pool, doc.Len(), valueOf)
		if err != nil {
			return nil, err
		}
		s.values = vs
	}
	return s, nil
}

// writeHeader encodes pi into the first headerSize bytes of data.
func writeHeader(data []byte, pi PageInfo, dataLen int) {
	binary.LittleEndian.PutUint32(data[0:4], uint32(pi.FirstNode))
	binary.LittleEndian.PutUint16(data[4:6], pi.StartDepth)
	binary.LittleEndian.PutUint16(data[6:8], pi.MinDepth)
	binary.LittleEndian.PutUint16(data[8:10], uint16(pi.Count))
	binary.LittleEndian.PutUint16(data[10:12], uint16(dataLen))
	binary.LittleEndian.PutUint32(data[12:16], pi.AccessCode)
	var flags byte
	if pi.ChangeBit {
		flags |= flagChangeBit
	}
	data[16] = flags
}

// readHeader decodes a block header from data.
func readHeader(page storage.PageID, data []byte) PageInfo {
	return PageInfo{
		Page:       page,
		FirstNode:  xmltree.NodeID(binary.LittleEndian.Uint32(data[0:4])),
		StartDepth: binary.LittleEndian.Uint16(data[4:6]),
		MinDepth:   binary.LittleEndian.Uint16(data[6:8]),
		Count:      int(binary.LittleEndian.Uint16(data[8:10])),
		AccessCode: binary.LittleEndian.Uint32(data[12:16]),
		ChangeBit:  data[16]&flagChangeBit != 0,
	}
}
