package nok

import (
	"cmp"
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
	// refs is sorted by Node.
	refs []valueRef
}

// The JSON names are sidecar format 1's (see ValueRefs).
type valueRef struct {
	Node xmltree.NodeID `json:"n"`
	Page storage.PageID `json:"p"`
	Off  uint16         `json:"o"`
	Len  uint16         `json:"l"`
}

// BuildValues writes the values of nodes 0..numNodes-1 (as reported by
// valueOf) into pages from pool, in document order.
func BuildValues(pool *storage.BufferPool, numNodes int, valueOf func(xmltree.NodeID) string) (*ValueStore, error) {
	vs := &ValueStore{pool: pool}
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
		vs.refs = append(vs.refs, valueRef{Node: n, Page: frame.ID(), Off: uint16(off), Len: uint16(len(v))})
		off += len(v)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return vs, nil
}

// Value returns the text value of node n ("" when the node has none).
func (vs *ValueStore) Value(n xmltree.NodeID) (string, error) {
	return vs.ValueCtx(context.Background(), n)
}

// ValueCtx is Value with cancellation at the page-fetch boundary.
func (vs *ValueStore) ValueCtx(ctx context.Context, n xmltree.NodeID) (string, error) {
	i := sort.Search(len(vs.refs), func(i int) bool { return vs.refs[i].Node >= n })
	if i >= len(vs.refs) || vs.refs[i].Node != n {
		return "", nil
	}
	r := vs.refs[i]
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
// the call.
func (vs *ValueStore) ValuesCtx(ctx context.Context, nodes []xmltree.NodeID) ([]string, error) {
	out := make([]string, len(nodes))
	var held *storage.Frame
	release := func() {
		if held != nil {
			vs.pool.Unpin(held.ID(), false)
		}
	}
	defer release()
	refs := vs.refs
	for k, n := range nodes {
		// The next ref is usually near the last one found: gallop to a
		// window that holds it, then search the window.
		hi := 1
		for hi < len(refs) && refs[hi-1].Node < n {
			hi <<= 1
		}
		lo := hi / 2
		i, ok := slices.BinarySearchFunc(refs[lo:min(hi, len(refs))], n, func(r valueRef, n xmltree.NodeID) int { return cmp.Compare(r.Node, n) })
		refs = refs[lo+i:]
		if !ok {
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
func (vs *ValueStore) NumValues() int { return len(vs.refs) }

// refSize is the in-memory bytes per value index entry.
const refSize = 4 + 4 + 2 + 2

// IndexBytes estimates the in-memory size of the value index.
func (vs *ValueStore) IndexBytes() int { return len(vs.refs) * refSize }

// DeleteRange removes the value references of nodes [lo, hi] and shifts the
// node IDs of later references down, mirroring a structural subtree delete.
// The freed value bytes are reclaimed lazily (on the next full rebuild).
// The index is rebuilt copy-on-write: frozen clones keep reading the old
// slice while the live store installs the compacted one.
func (vs *ValueStore) DeleteRange(lo, hi xmltree.NodeID) {
	removed := hi - lo + 1
	out := make([]valueRef, 0, len(vs.refs))
	for _, r := range vs.refs {
		switch {
		case r.Node < lo:
			out = append(out, r)
		case r.Node > hi:
			r.Node -= removed
			out = append(out, r)
		}
	}
	vs.refs = out
}

// InsertValues shifts the node IDs of references at or after `at` up by
// count and stores the values of the count inserted nodes (as reported by
// valueOf for fragment-relative IDs 0..count-1) on freshly allocated pages.
func (vs *ValueStore) InsertValues(at xmltree.NodeID, count int, valueOf func(xmltree.NodeID) string) error {
	i := sort.Search(len(vs.refs), func(i int) bool { return vs.refs[i].Node >= at })
	if valueOf == nil {
		// Copy-on-write: shift into a fresh slice so frozen clones sharing
		// the old one keep their node IDs.
		out := make([]valueRef, len(vs.refs))
		copy(out, vs.refs)
		for k := i; k < len(out); k++ {
			out[k].Node += xmltree.NodeID(count)
		}
		vs.refs = out
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
	out := make([]valueRef, 0, len(vs.refs)+len(added))
	out = append(out, vs.refs[:i]...)
	out = append(out, added...)
	for _, r := range vs.refs[i:] {
		r.Node += xmltree.NodeID(count)
		out = append(out, r)
	}
	vs.refs = out
	return nil
}
