package nok

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// ValueStore holds node text values on their own pages, separate from the
// structure blocks, following the NoK design of storing structure and
// values apart. Only nodes with non-empty values occupy space; an in-memory
// index maps node IDs to their value's location.
type ValueStore struct {
	pool *storage.BufferPool
	// refs is sorted by Node; an edit installs new ones, so frozen
	// clones keep what they share.
	refs ValueRefs
}

type valueRef struct {
	Node xmltree.NodeID
	Page storage.PageID
	Off  uint16
	Len  uint16
}

// BuildValues writes the values of nodes 0..numNodes-1 (as reported by
// valueOf) into pages from pool, in document order.
func BuildValues(pool *storage.BufferPool, numNodes int, valueOf func(xmltree.NodeID) string) (*ValueStore, error) {
	vs := &ValueStore{pool: pool}
	var refs []valueRef
	pageSize := pool.Pager().PageSize()
	var (
		frame *storage.Frame
		off   int
	)
	flush := func() error {
		if frame == nil {
			return nil
		}
		err := pool.Unpin(frame.ID(), true)
		frame = nil
		return err
	}
	for n := xmltree.NodeID(0); int(n) < numNodes; n++ {
		v := valueOf(n)
		if v == "" {
			continue
		}
		if len(v) > pageSize {
			return nil, fmt.Errorf("nok: value of node %d (%d bytes) exceeds page size %d", n, len(v), pageSize)
		}
		if frame == nil || off+len(v) > pageSize {
			if err := flush(); err != nil {
				return nil, err
			}
			f, err := pool.Allocate()
			if err != nil {
				return nil, err
			}
			frame = f
			off = 0
		}
		copy(frame.Data[off:], v)
		refs = append(refs, valueRef{Node: n, Page: frame.ID(), Off: uint16(off), Len: uint16(len(v))})
		off += len(v)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	vs.refs = refsOf(refs)
	return vs, nil
}

// Value returns the text value of node n ("" when the node has none).
func (vs *ValueStore) Value(n xmltree.NodeID) (string, error) {
	return vs.ValueCtx(context.Background(), n)
}

// ValueCtx is Value with cancellation at the page-fetch boundary.
func (vs *ValueStore) ValueCtx(ctx context.Context, n xmltree.NodeID) (string, error) {
	refs := vs.refs.All()
	i := sort.Search(len(refs), func(i int) bool { return refs[i].Node >= n })
	if i >= len(refs) || refs[i].Node != n {
		return "", nil
	}
	r := refs[i]
	f, err := vs.pool.GetCtx(ctx, r.Page)
	if err != nil {
		return "", err
	}
	defer vs.pool.Unpin(r.Page, false)
	return string(f.Data[r.Off : r.Off+r.Len]), nil
}

// ValuesCtx returns the text values of the given nodes, which must be in
// ascending order ("" for a node that has none). Values are laid out in
// document order, so the answers of one query sit on few pages: each run of
// consecutive values on one page is read under one pin, and no pin outlives
// the call. Asked for no node, it reads nothing, the refs included.
func (vs *ValueStore) ValuesCtx(ctx context.Context, nodes []xmltree.NodeID) ([]string, error) {
	out := make([]string, len(nodes))
	if len(nodes) == 0 {
		return out, nil
	}
	var held *storage.Frame
	release := func() {
		if held != nil {
			vs.pool.Unpin(held.ID(), false)
		}
	}
	defer release()
	refs := vs.refs.All()
	for k, n := range nodes {
		// The next ref is usually near the last one found: gallop to a
		// window that holds it, then halve the window.
		hi := 1
		for hi < len(refs) && refs[hi-1].Node < n {
			hi <<= 1
		}
		lo := hi / 2
		for hi = min(hi, len(refs)); lo < hi; {
			if m := int(uint(lo+hi) >> 1); refs[m].Node < n {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if refs = refs[lo:]; len(refs) == 0 || refs[0].Node != n {
			continue
		}
		r := refs[0]
		if held == nil || held.ID() != r.Page {
			release()
			var err error
			if held, err = vs.pool.GetCtx(ctx, r.Page); err != nil {
				return nil, err
			}
		}
		out[k] = string(held.Data[r.Off : r.Off+r.Len])
	}
	return out, nil
}

// NumValues returns the number of stored (non-empty) values.
func (vs *ValueStore) NumValues() int { return vs.refs.im.n }

// Bytes is the memory the value refs hold: their packed image as read, plus
// 12 bytes a ref once a value read has unpacked them.
func (vs *ValueStore) Bytes() int64 { return vs.refs.bytes() }

// DeleteRange removes the value references of nodes [lo, hi] and shifts the
// node IDs of later references down, mirroring a structural subtree delete.
// The freed value bytes are reclaimed lazily (on the next full rebuild).
// The index is rebuilt copy-on-write: frozen clones keep reading the old
// slice while the live store installs the compacted one.
func (vs *ValueStore) DeleteRange(lo, hi xmltree.NodeID) {
	removed := hi - lo + 1
	refs := vs.refs.All()
	out := make([]valueRef, 0, len(refs))
	for _, r := range refs {
		switch {
		case r.Node < lo:
			out = append(out, r)
		case r.Node > hi:
			r.Node -= removed
			out = append(out, r)
		}
	}
	vs.refs = refsOf(out)
}

// InsertValues shifts the node IDs of references at or after `at` up by
// count and stores the values of the count inserted nodes (as reported by
// valueOf for fragment-relative IDs 0..count-1) on freshly allocated pages.
func (vs *ValueStore) InsertValues(at xmltree.NodeID, count int, valueOf func(xmltree.NodeID) string) error {
	refs := vs.refs.All()
	i := sort.Search(len(refs), func(i int) bool { return refs[i].Node >= at })
	if valueOf == nil {
		// Copy-on-write: shift into a fresh slice so frozen clones sharing
		// the old one keep their node IDs.
		out := slices.Clone(refs)
		for k := i; k < len(out); k++ {
			out[k].Node += xmltree.NodeID(count)
		}
		vs.refs = refsOf(out)
		return nil
	}
	// Validate every inserted value before mutating the index, so a
	// failed insert leaves the store untouched.
	pageSize := vs.pool.Pager().PageSize()
	for n := 0; n < count; n++ {
		if v := valueOf(xmltree.NodeID(n)); len(v) > pageSize {
			return fmt.Errorf("nok: inserted value of node %d (%d bytes) exceeds page size %d", n, len(v), pageSize)
		}
	}
	var (
		frame *storage.Frame
		off   int
		added []valueRef
	)
	flush := func() error {
		if frame == nil {
			return nil
		}
		err := vs.pool.Unpin(frame.ID(), true)
		frame = nil
		return err
	}
	for n := 0; n < count; n++ {
		v := valueOf(xmltree.NodeID(n))
		if v == "" {
			continue
		}
		if frame == nil || off+len(v) > pageSize {
			if err := flush(); err != nil {
				return err
			}
			f, err := vs.pool.Allocate()
			if err != nil {
				return err
			}
			frame = f
			off = 0
		}
		copy(frame.Data[off:], v)
		added = append(added, valueRef{Node: at + xmltree.NodeID(n), Page: frame.ID(), Off: uint16(off), Len: uint16(len(v))})
		off += len(v)
	}
	if err := flush(); err != nil {
		return err
	}
	// All writes succeeded: splice head, new refs and shifted tail into a
	// fresh slice (copy-on-write for frozen clones), keeping the index
	// sorted by node.
	out := make([]valueRef, 0, len(refs)+len(added))
	out = append(out, refs[:i]...)
	out = append(out, added...)
	for _, r := range refs[i:] {
		r.Node += xmltree.NodeID(count)
		out = append(out, r)
	}
	vs.refs = refsOf(out)
	return nil
}
