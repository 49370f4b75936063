package dol

import (
	"fmt"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/nok"
	"dolxml/internal/xmltree"
)

// This file implements the update operations of paper §3.4 on the physical
// representation: accessibility updates (single node and whole subtree) and
// structural updates (insert, delete, move of a subtree), plus subject
// addition/removal, which are codebook-only operations.
//
// All updates share a common mechanism: decode the affected block region,
// edit the per-node access codes and/or splice entries, re-normalize
// transition flags, and rewrite just that region (update locality). Block
// headers before and after the region are untouched; block-local
// decodability guarantees nodes outside the region keep their rights.

// SetNodeAccess grants or revokes subject s on the single node n. Cost: the
// page read(s) of n's block region plus the corresponding writes, as in the
// paper's analysis.
func (ss *SecureStore) SetNodeAccess(n xmltree.NodeID, s acl.SubjectID, allowed bool) error {
	return ss.SetRangeACL(n, n, func(old *bitset.Bitset) *bitset.Bitset {
		nw := old.Clone()
		nw.SetTo(int(s), allowed)
		return nw
	})
}

// SetSubtreeAccess grants or revokes subject s on the whole subtree rooted
// at root. The paper's cost analysis applies: the subtree's nodes are
// clustered on ~N/B consecutive pages, each read and written once.
func (ss *SecureStore) SetSubtreeAccess(root xmltree.NodeID, s acl.SubjectID, allowed bool) error {
	end, err := ss.store.SubtreeEnd(root)
	if err != nil {
		return err
	}
	return ss.SetRangeACL(root, end, func(old *bitset.Bitset) *bitset.Bitset {
		nw := old.Clone()
		nw.SetTo(int(s), allowed)
		return nw
	})
}

// SetRangeACL applies f to the ACL of every node in [lo, hi] and rewrites
// the affected blocks. On a write-ahead-logged pager the rewrite is one
// atomic batch: a crash leaves either the old or the new region on disk.
func (ss *SecureStore) SetRangeACL(lo, hi xmltree.NodeID, f func(*bitset.Bitset) *bitset.Bitset) error {
	return ss.store.WithTxn(func() error { return ss.setRangeACL(lo, hi, f) })
}

func (ss *SecureStore) setRangeACL(lo, hi xmltree.NodeID, f func(*bitset.Bitset) *bitset.Bitset) error {
	st := ss.store
	if !st.Valid(lo) || !st.Valid(hi) || hi < lo {
		return fmt.Errorf("dol: invalid range [%d,%d]", lo, hi)
	}
	i, j := st.PageIndexOf(lo), st.PageIndexOf(hi)
	entries, codes, oldCodes, startLevel, err := ss.readRegion(i, j)
	if err != nil {
		return err
	}
	firstNode := st.PageInfoAt(i).FirstNode
	for k := range entries {
		n := firstNode + xmltree.NodeID(k)
		if n >= lo && n <= hi {
			codes[k] = ss.cb.Intern(f(ss.cb.ACL(codes[k])))
		}
	}
	normalizeFlags(entries, codes)

	nblocks, err := st.RewriteRegion(i, j, entries, startLevel, codes[0])
	if err != nil {
		return err
	}
	ss.swapRefs(i, nblocks, firstNode, entries, oldCodes)
	return nil
}

// DeleteSubtree removes the subtree rooted at n from the document. Node IDs
// above the removed range shift down. Deleting the root is rejected (the
// store cannot represent an empty document).
func (ss *SecureStore) DeleteSubtree(n xmltree.NodeID) error {
	return ss.store.WithTxn(func() error { return ss.deleteSubtree(n) })
}

func (ss *SecureStore) deleteSubtree(n xmltree.NodeID) error {
	st := ss.store
	if !st.Valid(n) {
		return fmt.Errorf("dol: invalid node %d", n)
	}
	if n == 0 {
		return fmt.Errorf("dol: cannot delete the document root")
	}
	end, err := st.SubtreeEnd(n)
	if err != nil {
		return err
	}
	prev := n - 1
	i, j := st.PageIndexOf(prev), st.PageIndexOf(end)
	entries, codes, oldCodes, startLevel, err := ss.readRegion(i, j)
	if err != nil {
		return err
	}
	firstNode := st.PageInfoAt(i).FirstNode
	localPrev := int(prev - firstNode)
	localN := int(n - firstNode)
	localEnd := int(end - firstNode)

	// Closes belonging to ancestors of n that were attached to the
	// subtree's last entry move to the preceding node.
	size := localEnd - localN + 1
	sum := 0
	for k := localN; k <= localEnd; k++ {
		sum += entries[k].CloseCount
	}
	external := sum - size
	entries[localPrev].CloseCount += external

	newEntries := append(append([]nok.Entry{}, entries[:localN]...), entries[localEnd+1:]...)
	newCodes := append(append([]Code{}, codes[:localN]...), codes[localEnd+1:]...)
	normalizeFlags(newEntries, newCodes)

	nblocks, err := st.RewriteRegion(i, j, newEntries, startLevel, newCodes[0])
	if err != nil {
		return err
	}
	ss.swapRefs(i, nblocks, firstNode, newEntries, oldCodes)
	if vs := st.Values(); vs != nil {
		vs.DeleteRange(n, end)
	}
	return nil
}

// InsertSubtree inserts the fragment document frag (with per-node access
// controls fragMatrix, whose subject dimension must match the codebook's)
// as a new child of parent. When after is InvalidNode the fragment becomes
// the first child; otherwise it is inserted immediately after the existing
// child `after`. The fragment root receives node ID prev+1 where prev is
// the node preceding the insertion point; later node IDs shift up.
func (ss *SecureStore) InsertSubtree(parent, after xmltree.NodeID, frag *xmltree.Document, fragMatrix *acl.Matrix) error {
	return ss.store.WithTxn(func() error { return ss.insertSubtree(parent, after, frag, fragMatrix) })
}

func (ss *SecureStore) insertSubtree(parent, after xmltree.NodeID, frag *xmltree.Document, fragMatrix *acl.Matrix) error {
	st := ss.store
	if !st.Valid(parent) {
		return fmt.Errorf("dol: invalid parent %d", parent)
	}
	if frag.Len() == 0 {
		return fmt.Errorf("dol: empty fragment")
	}
	if fragMatrix.NumNodes() != frag.Len() {
		return fmt.Errorf("dol: fragment matrix covers %d nodes, fragment has %d", fragMatrix.NumNodes(), frag.Len())
	}
	parentLevel, err := st.Level(parent)
	if err != nil {
		return err
	}
	prev := parent
	if after != xmltree.InvalidNode {
		if !st.Valid(after) {
			return fmt.Errorf("dol: invalid sibling %d", after)
		}
		prev, err = st.SubtreeEnd(after)
		if err != nil {
			return err
		}
	}
	i := st.PageIndexOf(prev)
	entries, codes, oldCodes, startLevel, err := ss.readRegion(i, i)
	if err != nil {
		return err
	}
	firstNode := st.PageInfoAt(i).FirstNode
	localPrev := int(prev - firstNode)
	prevLevel := startLevel
	{
		lvl := startLevel
		for k := 0; k < localPrev; k++ {
			lvl = lvl + 1 - entries[k].CloseCount
		}
		prevLevel = lvl
	}
	// Closes at prev that close parent or its ancestors transfer to the
	// fragment's last node, which now ends those subtrees.
	transferred := entries[localPrev].CloseCount - (prevLevel - parentLevel)
	if transferred < 0 {
		return fmt.Errorf("dol: node %d is not in parent %d's subtree scope", prev, parent)
	}
	entries[localPrev].CloseCount -= transferred

	// Fragment entries and codes.
	fragEntries := make([]nok.Entry, frag.Len())
	fragCodes := make([]Code, frag.Len())
	for k := 0; k < frag.Len(); k++ {
		fn := xmltree.NodeID(k)
		fragEntries[k] = nok.Entry{
			Tag:        st.InternTag(frag.Tag(fn)),
			CloseCount: frag.CloseCount(fn),
		}
		fragCodes[k] = ss.cb.Intern(fragMatrix.Row(fn))
	}
	fragEntries[len(fragEntries)-1].CloseCount += transferred

	localAt := localPrev + 1
	newEntries := make([]nok.Entry, 0, len(entries)+len(fragEntries))
	newEntries = append(newEntries, entries[:localAt]...)
	newEntries = append(newEntries, fragEntries...)
	newEntries = append(newEntries, entries[localAt:]...)
	newCodes := make([]Code, 0, len(codes)+len(fragCodes))
	newCodes = append(newCodes, codes[:localAt]...)
	newCodes = append(newCodes, fragCodes...)
	newCodes = append(newCodes, codes[localAt:]...)
	normalizeFlags(newEntries, newCodes)

	nblocks, err := st.RewriteRegion(i, i, newEntries, startLevel, newCodes[0])
	if err != nil {
		return err
	}
	ss.swapRefs(i, nblocks, firstNode, newEntries, oldCodes)
	if vs := st.Values(); vs != nil {
		if err := vs.InsertValues(prev+1, frag.Len(), frag.Value); err != nil {
			return err
		}
	}
	return nil
}

// MoveSubtree relocates the subtree rooted at n to become a child of
// newParent (after sibling `after`, or first child when after is
// InvalidNode), preserving the subtree's access controls and values. The
// destination must not lie inside the moved subtree. The delete and the
// re-insert join one batch on a write-ahead-logged pager, so a crash never
// exposes the intermediate deleted-but-not-reinserted document.
func (ss *SecureStore) MoveSubtree(n, newParent, after xmltree.NodeID) error {
	return ss.store.WithTxn(func() error { return ss.moveSubtree(n, newParent, after) })
}

func (ss *SecureStore) moveSubtree(n, newParent, after xmltree.NodeID) error {
	st := ss.store
	if !st.Valid(n) || n == 0 {
		return fmt.Errorf("dol: cannot move node %d", n)
	}
	end, err := st.SubtreeEnd(n)
	if err != nil {
		return err
	}
	if newParent >= n && newParent <= end {
		return fmt.Errorf("dol: destination %d lies inside the moved subtree [%d,%d]", newParent, n, end)
	}
	if after != xmltree.InvalidNode && after >= n && after <= end {
		return fmt.Errorf("dol: sibling %d lies inside the moved subtree", after)
	}

	// Extract the fragment: structure, ACLs and values.
	frag, fragMatrix, fragValues, err := ss.extractSubtree(n, end)
	if err != nil {
		return err
	}
	if err := ss.DeleteSubtree(n); err != nil {
		return err
	}
	// Adjust destination coordinates for the removed range.
	shift := end - n + 1
	if newParent > end {
		newParent -= shift
	}
	if after != xmltree.InvalidNode && after > end {
		after -= shift
	}
	if err := ss.InsertSubtree(newParent, after, frag, fragMatrix); err != nil {
		return err
	}
	// Restore values (InsertSubtree stored frag.Value, which extractSubtree
	// populated from fragValues via the builder, so nothing more to do).
	_ = fragValues
	return nil
}

// extractSubtree materializes the subtree [n, end] as a standalone document
// plus its accessibility matrix and values.
func (ss *SecureStore) extractSubtree(n, end xmltree.NodeID) (*xmltree.Document, *acl.Matrix, []string, error) {
	st := ss.store
	type rec struct {
		tag   string
		close int
		code  Code
		value string
	}
	var recs []rec
	err := st.WalkSubtree(n, func(ni nok.NodeInfo) bool {
		recs = append(recs, rec{
			tag:   st.TagName(ni.Entry.Tag),
			close: ni.Entry.CloseCount,
			code:  ni.Code,
		})
		return true
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if vs := st.Values(); vs != nil {
		for k := range recs {
			v, err := vs.Value(n + xmltree.NodeID(k))
			if err != nil {
				return nil, nil, nil, err
			}
			recs[k].value = v
		}
	}
	// The last record's closeCount includes closes of ancestors outside
	// the subtree; clamp it to the fragment-internal amount.
	size := len(recs)
	sum := 0
	for _, r := range recs {
		sum += r.close
	}
	recs[size-1].close -= sum - size

	b := xmltree.NewBuilder()
	depth := 0
	values := make([]string, size)
	for k, r := range recs {
		b.Begin(r.tag)
		if r.value != "" {
			b.Text(r.value)
		}
		values[k] = r.value
		depth++
		for c := 0; c < r.close; c++ {
			b.End()
			depth--
		}
	}
	for ; depth > 0; depth-- {
		b.End()
	}
	frag, err := b.Finish()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dol: extract subtree: %w", err)
	}
	m := acl.NewMatrix(size, ss.cb.NumSubjects())
	for k, r := range recs {
		m.SetRow(xmltree.NodeID(k), ss.cb.ACL(r.code))
	}
	return frag, m, values, nil
}

// Vacuum performs the paper's lazy redundancy correction (§3.4): subject
// deletion can leave distinct codebook entries with identical ACLs and
// adjacent transition nodes with equal effective lists. Vacuum rewrites
// the embedded codes canonically (every ACL maps to one code), merging
// redundant transitions and releasing duplicate codebook entries. It is a
// full-document pass; run it opportunistically, not per update.
func (ss *SecureStore) Vacuum() error {
	last := xmltree.NodeID(ss.store.NumNodes() - 1)
	return ss.SetRangeACL(0, last, func(old *bitset.Bitset) *bitset.Bitset {
		// Interning the unchanged ACL canonicalizes the code: the
		// codebook returns the first live entry with these bits.
		return old
	})
}

// AddSubject appends a new subject with no access anywhere. Only the
// in-memory codebook changes (§3.4).
func (ss *SecureStore) AddSubject() acl.SubjectID { return ss.cb.AddSubject() }

// AddSubjectLike appends a new subject whose rights match an existing one.
// Only the codebook changes; no embedded transition codes are touched.
func (ss *SecureStore) AddSubjectLike(like acl.SubjectID) (acl.SubjectID, error) {
	return ss.cb.AddSubjectLike(like)
}

// RemoveSubject deletes a subject's codebook column. Redundant embedded
// codes that may result are reclaimed lazily (§3.4).
func (ss *SecureStore) RemoveSubject(s acl.SubjectID) error {
	return ss.cb.RemoveSubject(s)
}

// readRegion decodes blocks [i, j] into a flat entry slice, the code in
// force at every node, and the list of codes the region references on disk
// (block headers plus inline transition codes — exactly what the reference
// counts track).
func (ss *SecureStore) readRegion(i, j int) (entries []nok.Entry, codes []Code, oldCodes []Code, startLevel int, err error) {
	st := ss.store
	startLevel = int(st.PageInfoAt(i).StartDepth)
	for k := i; k <= j; k++ {
		first := len(entries)
		if entries, codes, err = st.AppendBlock(entries, codes, k); err != nil {
			return nil, nil, nil, 0, err
		}
		oldCodes = append(oldCodes, st.PageInfoAt(k).AccessCode)
		for _, e := range entries[first:] {
			if e.HasCode {
				oldCodes = append(oldCodes, e.Code)
			}
		}
	}
	return entries, codes, oldCodes, startLevel, nil
}

// swapRefs restores the reference-count invariant
//
//	refs(code) = #(block headers with that code) + #(inline entries with it)
//
// after a region rewrite: it retains the codes now on disk in the rewritten
// region (headers of the nblocks replacement blocks starting at directory
// index i, plus inline entry codes — excluding entries that became block
// firsts, whose codes were moved into headers) and then releases the old
// region's codes.
func (ss *SecureStore) swapRefs(i, nblocks int, regionFirst xmltree.NodeID, entries []nok.Entry, oldCodes []Code) {
	stripped := make(map[int]bool, nblocks)
	for k := i; k < i+nblocks; k++ {
		pi := ss.store.PageInfoAt(k)
		ss.cb.Retain(pi.AccessCode)
		stripped[int(pi.FirstNode-regionFirst)] = true
	}
	for idx, e := range entries {
		if e.HasCode && !stripped[idx] {
			ss.cb.Retain(e.Code)
		}
	}
	for _, c := range oldCodes {
		ss.cb.Release(c)
	}
}

// normalizeFlags rewrites the HasCode/Code fields of entries so that entry
// k carries an inline code exactly when its code differs from entry k-1's.
// Entry 0's code is conveyed to RewriteRegion as the region start code.
func normalizeFlags(entries []nok.Entry, codes []Code) {
	for k := range entries {
		if k == 0 {
			entries[k].HasCode = false
			entries[k].Code = 0
			continue
		}
		if codes[k] != codes[k-1] {
			entries[k].HasCode = true
			entries[k].Code = codes[k]
		} else {
			entries[k].HasCode = false
			entries[k].Code = 0
		}
	}
}
