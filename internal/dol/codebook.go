// Package dol implements Document Ordered Labeling, the core contribution
// of the paper: a compact multi-subject encoding of fine-grained XML access
// controls consisting of (1) a list of transition nodes — nodes whose
// access control list differs from their document-order predecessor — and
// (2) a codebook dictionary of the distinct access control lists, with each
// transition node storing only a small code referencing the codebook (§2).
//
// Labeling is the logical form used for the paper's compression experiments
// (Figures 4–6). SecureStore is the physical form (§3): transition codes
// embedded in NoK structure blocks, a per-block header carrying the initial
// code and a change bit, and the codebook held in memory — giving access
// checks that cost no I/O beyond the structure pages the query evaluator
// loads anyway, plus whole-page skipping for fully inaccessible pages.
package dol

import (
	"encoding/binary"
	"fmt"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
)

// Code indexes a codebook entry. Codes are embedded at transition nodes in
// the physical representation.
type Code = uint32

// Codebook is the in-memory dictionary of distinct access control lists
// appearing in a secured tree (§2.1). Entries are reference counted so that
// updates can garbage-collect lists that no longer occur.
type Codebook struct {
	numSubjects int
	entries     []*bitset.Bitset // code -> ACL; nil for freed codes
	refs        []int
	index       map[string]Code // ACL key -> code
	free        []Code          // freed codes available for reuse
	// gen counts mutations that may invalidate externally cached access
	// decisions (entry create/free/rewrite, subject add/remove, reference
	// releases accompanying block rewrites). SubjectView decision caches
	// key themselves by this value. Mutations and Gen reads must not be
	// concurrent (securexml serializes them behind its store lock).
	gen uint64
}

// NewCodebook returns an empty codebook over numSubjects subjects.
func NewCodebook(numSubjects int) *Codebook {
	return &Codebook{
		numSubjects: numSubjects,
		index:       make(map[string]Code),
	}
}

// NumSubjects returns the subject dimension of the codebook.
func (cb *Codebook) NumSubjects() int { return cb.numSubjects }

// Clone returns a deep copy: entries (each bitset copied), reference
// counts, the ACL index, the free list and the mutation generation. The
// clone and the original can then diverge without sharing any mutable
// state — MVCC snapshots freeze the original while updates mutate the
// clone. The codebook is small by the paper's compactness claim, so the
// copy is cheap.
func (cb *Codebook) Clone() *Codebook {
	c := &Codebook{
		numSubjects: cb.numSubjects,
		entries:     make([]*bitset.Bitset, len(cb.entries)),
		refs:        append([]int(nil), cb.refs...),
		index:       make(map[string]Code, len(cb.index)),
		free:        append([]Code(nil), cb.free...),
		gen:         cb.gen,
	}
	for i, e := range cb.entries {
		if e != nil {
			c.entries[i] = e.Clone()
		}
	}
	for k, v := range cb.index {
		c.index[k] = v
	}
	return c
}

// Len returns the number of live entries — the paper's "number of codebook
// entries" metric (Figure 5).
func (cb *Codebook) Len() int { return len(cb.entries) - len(cb.free) }

// Cap returns the number of code slots ever issued (live + freed). Codes are
// always smaller than Cap, so per-code caches may size themselves by it.
func (cb *Codebook) Cap() int { return len(cb.entries) }

// Gen returns the mutation generation. Caches of per-code access decisions
// are valid only while Gen is unchanged.
func (cb *Codebook) Gen() uint64 { return cb.gen }

// Intern returns the code for the given ACL, adding a new entry (with
// reference count zero) if it has not been seen. The caller owns acquiring
// references via Retain.
func (cb *Codebook) Intern(a *bitset.Bitset) Code {
	key := a.Key()
	if c, ok := cb.index[key]; ok {
		return c
	}
	cb.gen++
	stored := a.Clone()
	stored.Resize(cb.numSubjects)
	var c Code
	if n := len(cb.free); n > 0 {
		c = cb.free[n-1]
		cb.free = cb.free[:n-1]
		cb.entries[c] = stored
		cb.refs[c] = 0
	} else {
		c = Code(len(cb.entries))
		cb.entries = append(cb.entries, stored)
		cb.refs = append(cb.refs, 0)
	}
	cb.index[key] = c
	return c
}

// Retain increments the reference count of code c.
func (cb *Codebook) Retain(c Code) {
	cb.refs[c]++
}

// Release decrements the reference count of code c, freeing the entry when
// it reaches zero.
func (cb *Codebook) Release(c Code) {
	if cb.refs[c] <= 0 {
		panic(fmt.Sprintf("dol: release of unreferenced code %d", c))
	}
	cb.refs[c]--
	// Every Release accompanies a representation change (a block rewrite or
	// an entry freeing), either of which can invalidate cached per-view
	// decisions and page bitmaps, so the generation always advances.
	cb.gen++
	if cb.refs[c] == 0 {
		delete(cb.index, cb.entries[c].Key())
		cb.entries[c] = nil
		cb.free = append(cb.free, c)
	}
}

// Refs returns the reference count of code c (0 for freed codes).
func (cb *Codebook) Refs(c Code) int { return cb.refs[c] }

// ACL returns the access control list for code c. The returned bitset is
// shared; callers must not modify it.
func (cb *Codebook) ACL(c Code) *bitset.Bitset {
	if int(c) >= len(cb.entries) || cb.entries[c] == nil {
		panic(fmt.Sprintf("dol: lookup of dead code %d", c))
	}
	return cb.entries[c]
}

// Accessible reports whether subject s is granted by code c — "the s-th bit
// in that codebook entry" (§3.3).
func (cb *Codebook) Accessible(c Code, s acl.SubjectID) bool {
	return cb.ACL(c).Test(int(s))
}

// AccessibleAny reports whether any subject of the effective set (user plus
// transitive groups) is granted by code c.
func (cb *Codebook) AccessibleAny(c Code, effective *bitset.Bitset) bool {
	return cb.ACL(c).Intersects(effective)
}

// Bytes estimates the storage footprint of the codebook: one bit per
// subject per live entry, as in the paper's 4 MB-for-LiveLink arithmetic
// (§5.1.1).
func (cb *Codebook) Bytes() int {
	perEntry := (cb.numSubjects + 7) / 8
	return cb.Len() * perEntry
}

// AddSubject appends a new subject column with no access anywhere (§3.4:
// adding a subject is a codebook-only operation). It returns the new
// subject's ID.
func (cb *Codebook) AddSubject() acl.SubjectID {
	s := acl.SubjectID(cb.numSubjects)
	cb.numSubjects++
	cb.gen++
	for _, e := range cb.entries {
		if e != nil {
			e.Resize(cb.numSubjects)
		}
	}
	// Keys are unchanged: the new column is all zeroes and Key ignores
	// trailing zero bits.
	return s
}

// AddSubjectLike appends a new subject whose rights everywhere match those
// of existing subject like (§3.4). No embedded codes change.
func (cb *Codebook) AddSubjectLike(like acl.SubjectID) (acl.SubjectID, error) {
	if int(like) < 0 || int(like) >= cb.numSubjects {
		return acl.InvalidSubject, fmt.Errorf("dol: AddSubjectLike(%d) out of range", like)
	}
	s := cb.AddSubject()
	for c, e := range cb.entries {
		if e == nil {
			continue
		}
		if e.Test(int(like)) {
			delete(cb.index, e.Key())
			e.Set(int(s))
			cb.index[e.Key()] = Code(c)
		}
	}
	return s, nil
}

// RemoveSubject deletes subject s's column. Distinct entries may collapse
// to equal ACLs afterwards; they are kept as duplicate codes (still
// correct) and reclaimed lazily, mirroring the paper's lazy redundancy
// correction (§3.4). The caller must renumber its SubjectIDs: subjects
// above s shift down by one.
func (cb *Codebook) RemoveSubject(s acl.SubjectID) error {
	if int(s) < 0 || int(s) >= cb.numSubjects {
		return fmt.Errorf("dol: RemoveSubject(%d) out of range", s)
	}
	cb.numSubjects--
	cb.gen++
	cb.index = make(map[string]Code, len(cb.entries))
	for c, e := range cb.entries {
		if e == nil {
			continue
		}
		e.RemoveBit(int(s))
		key := e.Key()
		// First live code with a given key wins the index slot;
		// duplicates remain addressable but are not re-issued.
		if _, ok := cb.index[key]; !ok {
			cb.index[key] = Code(c)
		}
	}
	return nil
}

// Duplicates returns the number of live entries whose ACL equals that of a
// lower-numbered live entry — redundancy introduced by RemoveSubject that a
// lazy compaction pass would reclaim.
func (cb *Codebook) Duplicates() int {
	seen := make(map[string]bool, len(cb.entries))
	dups := 0
	for _, e := range cb.entries {
		if e == nil {
			continue
		}
		k := e.Key()
		if seen[k] {
			dups++
		}
		seen[k] = true
	}
	return dups
}

// codebookV2Magic opens the version-2 codebook encoding. Version 1 opens
// with the subject count, so the magic is a value no real population can
// reach; decoders dispatch on the first uvarint.
const codebookV2Magic = uint64(1)<<62 + 2

// maxCodebookSubjects bounds the subject populations the v2 decoder will
// materialize rows for, so a corrupt header cannot demand gigabyte
// allocations before any row data is validated.
const maxCodebookSubjects = 1 << 27

// Per-row tags of the v2 encoding.
const (
	rowFreed = 0 // freed code slot, no payload
	rowDense = 1 // bitset.MarshalBinary bytes (the v1 row format)
	rowRuns  = 2 // run-length row: bitset.AppendRuns over the set bits
)

// sparseRowMinSubjects is the population below which rows never encode
// sparsely: dense rows are already a few dozen bytes there, and staying in
// the v1 framing keeps small stores byte-identical on disk.
const sparseRowMinSubjects = 256

// MarshalBinary serializes the codebook. Rows whose run-length encoding is
// smaller than their dense word encoding are written sparsely, and the
// whole blob switches to the version-2 framing as soon as one row does —
// group-correlated ACLs over large subject populations shrink from
// subjects/8 bytes per row to a few bytes per run. Books whose rows are all
// dense keep the version-1 bytes, so small stores are unchanged on disk.
func (cb *Codebook) MarshalBinary() ([]byte, error) {
	type rowPlan struct {
		runs []bitset.Run
		size int // encoded payload size of the chosen form
	}
	plans := make([]rowPlan, len(cb.entries))
	sparse := false
	for c, e := range cb.entries {
		if e == nil {
			continue
		}
		// Only rows spanning exactly the subject population may drop their
		// length; v1-decoded oddballs keep the self-describing dense form.
		if cb.numSubjects < sparseRowMinSubjects || e.Len() != cb.numSubjects {
			plans[c] = rowPlan{size: -1}
			continue
		}
		runs := e.Runs()
		if sz := bitset.RunsSize(runs); sz < 4+8*((e.Len()+63)/64) {
			plans[c] = rowPlan{runs: runs, size: sz}
			sparse = true
		} else {
			plans[c] = rowPlan{size: -1}
		}
	}
	var out []byte
	if sparse {
		out = binary.AppendUvarint(out, codebookV2Magic)
		out = binary.AppendUvarint(out, uint64(cb.numSubjects))
		out = binary.AppendUvarint(out, uint64(len(cb.entries)))
		for c, e := range cb.entries {
			if e == nil {
				out = binary.AppendUvarint(out, rowFreed)
				continue
			}
			if plans[c].size >= 0 {
				out = binary.AppendUvarint(out, rowRuns)
				out = bitset.AppendRuns(out, plans[c].runs)
			} else {
				data, err := e.MarshalBinary()
				if err != nil {
					return nil, err
				}
				out = binary.AppendUvarint(out, rowDense)
				out = binary.AppendUvarint(out, uint64(len(data)))
				out = append(out, data...)
			}
			out = binary.AppendUvarint(out, uint64(cb.refs[c]))
		}
		return out, nil
	}
	out = binary.AppendUvarint(out, uint64(cb.numSubjects))
	out = binary.AppendUvarint(out, uint64(len(cb.entries)))
	for c, e := range cb.entries {
		if e == nil {
			out = binary.AppendUvarint(out, 0)
			continue
		}
		data, err := e.MarshalBinary()
		if err != nil {
			return nil, err
		}
		out = binary.AppendUvarint(out, uint64(len(data)))
		out = append(out, data...)
		out = binary.AppendUvarint(out, uint64(cb.refs[c]))
	}
	return out, nil
}

// UnmarshalBinary restores a codebook serialized by MarshalBinary, accepting
// both the version-1 (all-dense) and version-2 (sparse-capable) framings.
func (cb *Codebook) UnmarshalBinary(data []byte) error {
	ns, n := binary.Uvarint(data)
	if n <= 0 {
		return fmt.Errorf("dol: corrupt codebook header")
	}
	data = data[n:]
	if ns == codebookV2Magic {
		return cb.unmarshalV2(data)
	}
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return fmt.Errorf("dol: corrupt codebook count")
	}
	data = data[n:]
	*cb = Codebook{
		numSubjects: int(ns),
		index:       make(map[string]Code),
	}
	for i := uint64(0); i < count; i++ {
		sz, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("dol: corrupt codebook entry %d", i)
		}
		data = data[n:]
		if sz == 0 {
			cb.entries = append(cb.entries, nil)
			cb.refs = append(cb.refs, 0)
			cb.free = append(cb.free, Code(i))
			continue
		}
		if uint64(len(data)) < sz {
			return fmt.Errorf("dol: truncated codebook entry %d", i)
		}
		var b bitset.Bitset
		if err := b.UnmarshalBinary(data[:sz]); err != nil {
			return err
		}
		data = data[sz:]
		refs, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("dol: corrupt refcount for entry %d", i)
		}
		data = data[n:]
		cb.entries = append(cb.entries, &b)
		cb.refs = append(cb.refs, int(refs))
		// First entry with a given key wins, matching RemoveSubject's
		// duplicate handling.
		key := b.Key()
		if _, ok := cb.index[key]; !ok {
			cb.index[key] = Code(i)
		}
	}
	return nil
}

// unmarshalV2 decodes the body of a version-2 codebook (the magic uvarint
// already consumed).
func (cb *Codebook) unmarshalV2(data []byte) error {
	ns, n := binary.Uvarint(data)
	if n <= 0 {
		return fmt.Errorf("dol: corrupt codebook v2 header")
	}
	if ns > maxCodebookSubjects {
		return fmt.Errorf("dol: codebook v2 claims %d subjects (max %d)", ns, maxCodebookSubjects)
	}
	data = data[n:]
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return fmt.Errorf("dol: corrupt codebook v2 count")
	}
	data = data[n:]
	*cb = Codebook{
		numSubjects: int(ns),
		index:       make(map[string]Code),
	}
	for i := uint64(0); i < count; i++ {
		tag, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("dol: corrupt codebook v2 row %d tag", i)
		}
		data = data[n:]
		var b *bitset.Bitset
		switch tag {
		case rowFreed:
			cb.entries = append(cb.entries, nil)
			cb.refs = append(cb.refs, 0)
			cb.free = append(cb.free, Code(i))
			continue
		case rowDense:
			sz, n := binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("dol: corrupt codebook v2 row %d size", i)
			}
			data = data[n:]
			if uint64(len(data)) < sz {
				return fmt.Errorf("dol: truncated codebook v2 row %d", i)
			}
			b = new(bitset.Bitset)
			if err := b.UnmarshalBinary(data[:sz]); err != nil {
				return err
			}
			data = data[sz:]
		case rowRuns:
			runs, rest, err := bitset.DecodeRuns(data, uint32(ns))
			if err != nil {
				return fmt.Errorf("dol: codebook v2 row %d: %w", i, err)
			}
			data = rest
			b = bitset.FromRuns(int(ns), runs)
		default:
			return fmt.Errorf("dol: unknown codebook v2 row tag %d", tag)
		}
		refs, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("dol: corrupt refcount for v2 row %d", i)
		}
		data = data[n:]
		cb.entries = append(cb.entries, b)
		cb.refs = append(cb.refs, int(refs))
		key := b.Key()
		if _, ok := cb.index[key]; !ok {
			cb.index[key] = Code(i)
		}
	}
	return nil
}
