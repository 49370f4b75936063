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
	"maps"
	"math"

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
	// index maps an ACL key to its code: the lowest live code with those
	// bits. It is built at the first Intern or AddSubjectLike (nil until
	// then: reads need only entries, and a Release has no slot to drop),
	// and a Clone shares it until either side writes (sharedIndex; see
	// writableIndex).
	index       map[string]Code
	sharedIndex bool
	// dups records that the index, when built, found live codes sharing
	// a key (UnmarshalBinary accepts duplicate rows): freeing the code in
	// such a key's slot drops the index, to be built again with the
	// survivor.
	dups bool
	free []Code // freed codes available for reuse
	// gen counts mutations that may invalidate externally cached access
	// decisions (entry create/free/rewrite, subject add/remove, reference
	// releases accompanying block rewrites). SubjectView decision caches
	// key themselves by this value. Mutations and Gen reads must not be
	// concurrent (securexml serializes them behind its store lock).
	gen uint64
}

// NewCodebook returns an empty codebook over numSubjects subjects.
func NewCodebook(numSubjects int) *Codebook {
	return &Codebook{numSubjects: numSubjects}
}

// NumSubjects returns the subject dimension of the codebook.
func (cb *Codebook) NumSubjects() int { return cb.numSubjects }

// Clone returns a copy that can diverge from the original. MVCC snapshots
// freeze the original while updates mutate the clone. The ACL index is
// shared copy-on-write: each side copies it at its first insert or delete,
// so a frozen original's index is never written. The entries' bitsets are
// shared: a codebook never modifies a stored bitset in place — the
// subject-column operations replace each entry with a modified copy.
func (cb *Codebook) Clone() *Codebook {
	cb.sharedIndex = true
	return &Codebook{
		numSubjects: cb.numSubjects,
		entries:     append([]*bitset.Bitset(nil), cb.entries...),
		refs:        append([]int(nil), cb.refs...),
		index:       cb.index,
		sharedIndex: true,
		dups:        cb.dups,
		free:        append([]Code(nil), cb.free...),
		gen:         cb.gen,
	}
}

// lookupIndex returns the ACL index for reading, building it if it is not
// built yet: the first live code with a given key wins its slot, so
// duplicate rows a decoded codebook holds stay addressable but are not
// re-issued.
func (cb *Codebook) lookupIndex() map[string]Code {
	if cb.index == nil {
		cb.index, cb.sharedIndex, cb.dups = make(map[string]Code, len(cb.entries)), false, false
		for c, e := range cb.entries {
			if e == nil {
				continue
			}
			key := e.Key()
			if _, ok := cb.index[key]; ok {
				cb.dups = true
			} else {
				cb.index[key] = Code(c)
			}
		}
	}
	return cb.index
}

// writableIndex returns the ACL index for writing: built, and cb's own copy
// of an index a Clone shares.
func (cb *Codebook) writableIndex() map[string]Code {
	if cb.sharedIndex && cb.index != nil {
		cb.index = maps.Clone(cb.index)
	}
	cb.sharedIndex = false
	return cb.lookupIndex()
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
	if c, ok := cb.lookupIndex()[key]; ok {
		return c
	}
	cb.gen++
	index := cb.writableIndex()
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
	index[key] = c
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
		// The slot is c's only if c holds it: a duplicate row shares its
		// key with the live code in the slot, and when c holds it a
		// duplicate may live on to take it over. An index not built yet
		// is built without the freed entry.
		if cb.index != nil {
			key := cb.entries[c].Key()
			if owner, ok := cb.index[key]; ok && owner == c {
				if cb.dups {
					cb.index, cb.sharedIndex = nil, false
				} else {
					delete(cb.writableIndex(), key)
				}
			}
		}
		cb.entries[c] = nil
		cb.free = append(cb.free, c)
	}
}

// live reports whether code c holds an entry.
func (cb *Codebook) live(c Code) bool { return int(c) < len(cb.entries) && cb.entries[c] != nil }

// ACL returns the access control list for code c. The returned bitset is
// shared; callers must not modify it.
func (cb *Codebook) ACL(c Code) *bitset.Bitset {
	if !cb.live(c) {
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
	for c, e := range cb.entries {
		if e != nil {
			e = e.Clone()
			e.Resize(cb.numSubjects)
			cb.entries[c] = e
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
	index := cb.writableIndex()
	s := cb.AddSubject()
	// AddSubject left every entry a copy of this codebook's own, so the
	// bits are set in place. Codes are visited in ascending order, so the
	// lowest of duplicates keeps the new key's slot as it held the old.
	for c, e := range cb.entries {
		if e == nil {
			continue
		}
		if e.Test(int(like)) {
			delete(index, e.Key())
			e.Set(int(s))
			if _, ok := index[e.Key()]; !ok {
				index[e.Key()] = Code(c)
			}
		}
	}
	return s, nil
}

// maxCodebookSubjects bounds the subject populations the decoder will
// materialize rows for, so a corrupt header cannot demand gigabyte
// allocations before any row data is validated.
const maxCodebookSubjects = 1 << 27

// Row headers. Any other header is a dense row's byte count
// (bitset.MarshalBinary: a 4-byte length, then exactly the words it needs),
// which is at least minDenseRow: headers 2 and 3 are never written.
const (
	rowFreed    = 0 // freed code slot, no payload
	rowRuns     = 1 // run-length row: bitset.AppendRuns over the set bits
	minDenseRow = 4 // a dense row of no words
)

// sparseRowMinSubjects is the population below which rows never encode
// sparsely: dense rows are already a few dozen bytes there.
const sparseRowMinSubjects = 256

// MarshalBinary serializes the codebook: the subject count, the slot count,
// then per slot a header, its row and its reference count. A row spanning
// the whole population of at least sparseRowMinSubjects subjects is written
// run-length encoded when that is smaller than its dense words, so
// group-correlated ACLs over large populations take a few bytes per run
// instead of subjects/8 per row.
func (cb *Codebook) MarshalBinary() ([]byte, error) {
	out := binary.AppendUvarint(nil, uint64(cb.numSubjects))
	out = binary.AppendUvarint(out, uint64(len(cb.entries)))
	for c, e := range cb.entries {
		if e == nil {
			out = binary.AppendUvarint(out, rowFreed)
			continue
		}
		var runs []bitset.Run
		sparse := cb.numSubjects >= sparseRowMinSubjects && e.Len() == cb.numSubjects
		if sparse {
			runs = e.Runs()
			sparse = bitset.RunsSize(runs) < minDenseRow+8*((e.Len()+63)/64)
		}
		if sparse {
			out = binary.AppendUvarint(out, rowRuns)
			out = bitset.AppendRuns(out, runs)
		} else {
			data, err := e.MarshalBinary()
			if err != nil {
				return nil, err
			}
			out = binary.AppendUvarint(out, uint64(len(data)))
			out = append(out, data...)
		}
		out = binary.AppendUvarint(out, uint64(cb.refs[c]))
	}
	return out, nil
}

// UnmarshalBinary restores a codebook serialized by MarshalBinary.
func (cb *Codebook) UnmarshalBinary(data []byte) error {
	ns, n := binary.Uvarint(data)
	if n <= 0 || ns > maxCodebookSubjects {
		return fmt.Errorf("dol: corrupt codebook header")
	}
	data = data[n:]
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return fmt.Errorf("dol: corrupt codebook count")
	}
	data = data[n:]
	*cb = Codebook{numSubjects: int(ns)}
	for i := uint64(0); i < count; i++ {
		h, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("dol: corrupt codebook row %d header", i)
		}
		data = data[n:]
		var b *bitset.Bitset
		switch {
		case h == rowFreed:
			cb.entries = append(cb.entries, nil)
			cb.refs = append(cb.refs, 0)
			cb.free = append(cb.free, Code(i))
			continue
		case h == rowRuns:
			runs, rest, err := bitset.DecodeRuns(data, uint32(ns))
			if err != nil {
				return fmt.Errorf("dol: codebook row %d: %w", i, err)
			}
			data, b = rest, bitset.FromRuns(int(ns), runs)
		case h < minDenseRow:
			return fmt.Errorf("dol: codebook row %d has header %d", i, h)
		case uint64(len(data)) < h:
			return fmt.Errorf("dol: truncated codebook row %d", i)
		default:
			b = new(bitset.Bitset)
			if err := b.UnmarshalBinary(data[:h]); err != nil {
				return err
			}
			if h != uint64(minDenseRow+8*((b.Len()+63)/64)) {
				return fmt.Errorf("dol: codebook row %d has %d bytes for %d bits", i, h, b.Len())
			}
			data = data[h:]
		}
		refs, n := binary.Uvarint(data)
		if n <= 0 || refs > math.MaxInt {
			return fmt.Errorf("dol: corrupt refcount for codebook row %d", i)
		}
		data = data[n:]
		cb.entries = append(cb.entries, b)
		cb.refs = append(cb.refs, int(refs))
	}
	if len(data) != 0 {
		return fmt.Errorf("dol: %d bytes after the codebook's last row", len(data))
	}
	return nil
}
