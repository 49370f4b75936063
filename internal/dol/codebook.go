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
	"math/bits"
	"sort"
	"unsafe"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
)

// Code indexes a codebook entry. Codes are embedded at transition nodes in
// the physical representation.
type Code = uint32

// Codebook is the in-memory dictionary of distinct access control lists
// appearing in a secured tree (§2.1). Each entry holds its list as runs of
// granted subjects, the form its row takes on disk too (MarshalBinary), so
// an entry costs a few bytes per run whatever the subject population.
// Entries are reference counted so that updates can garbage-collect lists
// that no longer occur.
type Codebook struct {
	numSubjects int
	// entries maps a code to its ACL's set subjects as sorted, maximal
	// runs; nil for freed codes (an empty ACL is a zero-length row). A row
	// is never written after it is stored: a Clone shares it.
	entries [][]bitset.Run
	refs    []int
	// index maps a row's run encoding (rowKey) to its code, one code per
	// row. A Clone shares it until either side writes (sharedIndex; see
	// writableIndex).
	index       map[string]Code
	sharedIndex bool
	free        []Code // freed codes available for reuse
}

// NewCodebook returns an empty codebook over numSubjects subjects.
func NewCodebook(numSubjects int) *Codebook {
	return &Codebook{numSubjects: numSubjects, index: make(map[string]Code)}
}

// NumSubjects returns the subject dimension of the codebook.
func (cb *Codebook) NumSubjects() int { return cb.numSubjects }

// Clone returns a copy that can diverge from the original. MVCC snapshots
// freeze the original while updates mutate the clone. The ACL index is
// shared copy-on-write: each side copies it at its first insert or delete,
// so a frozen original's index is never written. The rows are shared: a
// codebook never modifies a stored row in place.
func (cb *Codebook) Clone() *Codebook {
	cb.sharedIndex = true
	return &Codebook{
		numSubjects: cb.numSubjects,
		entries:     append([][]bitset.Run(nil), cb.entries...),
		refs:        append([]int(nil), cb.refs...),
		index:       cb.index,
		sharedIndex: true,
		free:        append([]Code(nil), cb.free...),
	}
}

// rowKey is a row's index key: its run encoding.
func rowKey(row []bitset.Run) string { return string(bitset.AppendRuns(nil, row)) }

// writableIndex returns the ACL index for writing: cb's own copy of an
// index a Clone shares.
func (cb *Codebook) writableIndex() map[string]Code {
	if cb.sharedIndex {
		cb.index, cb.sharedIndex = maps.Clone(cb.index), false
	}
	return cb.index
}

// Len returns the number of live entries — the paper's "number of codebook
// entries" metric (Figure 5).
func (cb *Codebook) Len() int { return len(cb.entries) - len(cb.free) }

// Intern returns the code for the ACL whose set subjects are row, sorted
// and maximal runs (Bitset.Runs, AddRunBit), adding an entry with
// reference count zero if it has not been seen. A new entry keeps row, so
// the caller must not modify it afterwards. The caller owns acquiring
// references via Retain.
func (cb *Codebook) Intern(row []bitset.Run) Code {
	var buf [64]byte // a key that fits is encoded here, and looked up without allocating
	key := bitset.AppendRuns(buf[:0], row)
	if c, ok := cb.index[string(key)]; ok {
		return c
	}
	if n := len(row); n > 0 && int(row[n-1].End()) > cb.numSubjects {
		panic(fmt.Sprintf("dol: ACL grants subject %d of %d", row[n-1].End()-1, cb.numSubjects))
	}
	if row == nil {
		row = []bitset.Run{}
	}
	var c Code
	if n := len(cb.free); n > 0 {
		c = cb.free[n-1]
		cb.free = cb.free[:n-1]
		cb.entries[c] = row
		cb.refs[c] = 0
	} else {
		c = Code(len(cb.entries))
		cb.entries = append(cb.entries, row)
		cb.refs = append(cb.refs, 0)
	}
	cb.writableIndex()[string(key)] = c
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
	if cb.refs[c] == 0 {
		var buf [64]byte
		delete(cb.writableIndex(), string(bitset.AppendRuns(buf[:0], cb.entries[c])))
		cb.entries[c] = nil
		cb.free = append(cb.free, c)
	}
}

// live reports whether code c holds an entry.
func (cb *Codebook) live(c Code) bool { return int(c) < len(cb.entries) && cb.entries[c] != nil }

// Row returns the set subjects of code c's ACL as sorted, maximal runs.
// The row is shared; callers must not modify it.
func (cb *Codebook) Row(c Code) []bitset.Run {
	if !cb.live(c) {
		deadCode(c)
	}
	return cb.entries[c]
}

func deadCode(c Code) { panic(fmt.Sprintf("dol: lookup of dead code %d", c)) }

// ACL returns the access control list for code c as a new bitset over the
// codebook's subjects.
func (cb *Codebook) ACL(c Code) *bitset.Bitset {
	return bitset.FromRuns(cb.numSubjects, cb.Row(c))
}

// Accessible reports whether subject s is granted by code c — "the s-th bit
// in that codebook entry" (§3.3).
func (cb *Codebook) Accessible(c Code, s acl.SubjectID) bool {
	row := cb.Row(c)
	k := sort.Search(len(row), func(k int) bool { return row[k].End() > uint32(s) })
	return k < len(row) && row[k].Start <= uint32(s)
}

// AccessibleAny reports whether any subject of the effective set (user plus
// transitive groups), given as its sorted subjects, is granted by code c.
func (cb *Codebook) AccessibleAny(c Code, subjects []uint32) bool {
	ok, _ := cb.grantsAny(c, subjects)
	return ok
}

// grantsAny reports whether code c's row grants any of subjects, sorted,
// and how many runs it visited to tell. It merges the subjects with the
// runs, or, when that is shorter, searches the row for each subject in
// turn, every search starting where the last one ended: then it visits
// O(len(subjects) · log len(row)) runs, whatever the row's length.
func (cb *Codebook) grantsAny(c Code, subjects []uint32) (ok bool, visits int) {
	if !cb.live(c) {
		deadCode(c)
	}
	row := cb.entries[c]
	if len(subjects)*bits.Len(uint(len(row))) < len(row)+len(subjects) {
		lo := 0
		for _, s := range subjects {
			visits += 2 // row[lo], for its end and for its start
			// The first run at or after lo that ends past s: the one at lo
			// itself, often, else found by halving.
			if lo < len(row) && row[lo].End() <= s {
				// row[lo] ends at or before s; halve [lo, len) keeping
				// that so, then step past it.
				for n := len(row) - lo; n > 1; visits++ {
					half := n >> 1
					if row[lo+half].End() <= s {
						lo += half
					}
					n -= half
				}
				lo++
			}
			if lo == len(row) {
				return false, visits
			}
			if row[lo].Start <= s {
				return true, visits
			}
		}
		return false, visits
	}
	for i, k := 0, 0; i < len(subjects) && k < len(row); visits++ {
		switch s := subjects[i]; {
		case s < row[k].Start:
			i++
		case s >= row[k].End():
			k++
		default:
			return true, visits + 1
		}
	}
	return false, visits
}

// Bytes is the paper's storage arithmetic for the codebook: one bit per
// subject per live entry, as in its 4 MB-for-LiveLink estimate (§5.1.1).
// HeapBytes is what the rows take in memory.
func (cb *Codebook) Bytes() int {
	perEntry := (cb.numSubjects + 7) / 8
	return cb.Len() * perEntry
}

// HeapBytes is what the live rows hold on the heap: their runs, at
// unsafe.Sizeof(bitset.Run{}) bytes each, plus their index keys.
func (cb *Codebook) HeapBytes() int {
	n := 0
	for _, row := range cb.entries {
		if row != nil {
			n += len(row)*int(unsafe.Sizeof(bitset.Run{})) + bitset.RunsSize(row)
		}
	}
	return n
}

// AddSubject appends a new subject column with no access anywhere (§3.4:
// adding a subject is a codebook-only operation). It returns the new
// subject's ID. No row changes: the new column is clear in every one.
func (cb *Codebook) AddSubject() acl.SubjectID {
	s := acl.SubjectID(cb.numSubjects)
	cb.numSubjects++
	return s
}

// AddSubjectLike appends a new subject whose rights everywhere match those
// of existing subject like (§3.4). No embedded codes change. Each row that
// grants like is replaced by one that also grants the new subject; no two
// rows become equal, since only the new subject's bits change.
func (cb *Codebook) AddSubjectLike(like acl.SubjectID) (acl.SubjectID, error) {
	if int(like) < 0 || int(like) >= cb.numSubjects {
		return acl.InvalidSubject, fmt.Errorf("dol: AddSubjectLike(%d) out of range", like)
	}
	index := cb.writableIndex()
	s := cb.AddSubject()
	for c, row := range cb.entries {
		if row == nil || !cb.Accessible(Code(c), like) {
			continue
		}
		delete(index, rowKey(row))
		row = bitset.AddRunBit(row, uint32(s))
		cb.entries[c] = row
		index[rowKey(row)] = Code(c)
	}
	return s, nil
}

// maxCodebookSubjects bounds the subject populations the decoder will
// materialize rows for, so a corrupt header cannot demand gigabyte
// allocations before any row data is validated.
const maxCodebookSubjects = 1 << 27

// Row headers, the only two a slot can have.
const (
	rowFreed = 0 // freed code slot, no payload
	rowRuns  = 1 // a live row: bitset.AppendRuns of its runs, then its reference count
)

// MarshalBinary serializes the codebook: the subject count, the slot count,
// then per slot a header byte, and for a live row its runs and its
// reference count. A row takes a few bytes per run, whatever the subject
// population.
func (cb *Codebook) MarshalBinary() ([]byte, error) {
	out := binary.AppendUvarint(nil, uint64(cb.numSubjects))
	out = binary.AppendUvarint(out, uint64(len(cb.entries)))
	for c, row := range cb.entries {
		if row == nil {
			out = append(out, rowFreed)
			continue
		}
		out = append(out, rowRuns)
		out = bitset.AppendRuns(out, row)
		out = binary.AppendUvarint(out, uint64(cb.refs[c]))
	}
	return out, nil
}

// UnmarshalBinary restores a codebook serialized by MarshalBinary,
// accepting exactly the bytes MarshalBinary writes. It decodes all rows'
// runs into one array and their index keys into one string, a row's key the
// bytes it read (bitset.DecodeRuns accepts exactly AppendRuns of the row).
// It refuses a header other than 0 or 1, a varint not in its shortest form,
// and an image in which two live slots hold equal rows: no writer issues
// two codes for one ACL.
func (cb *Codebook) UnmarshalBinary(data []byte) error {
	ns, n := uvarint(data)
	if n <= 0 || ns > maxCodebookSubjects {
		return fmt.Errorf("dol: corrupt codebook header")
	}
	data = data[n:]
	count, n := uvarint(data)
	if n <= 0 {
		return fmt.Errorf("dol: corrupt codebook count")
	}
	data = data[n:]
	// A slot takes at least a byte, so a corrupt count sizes nothing.
	slots := int(min(count, uint64(len(data))))
	*cb = Codebook{numSubjects: int(ns), entries: make([][]bitset.Run, 0, slots), refs: make([]int, 0, slots)}
	// Row i's runs are runs[span[i].runs:span[i+1].runs], its key
	// keys[span[i].key:span[i+1].key]; both arrays may move as they grow,
	// so the rows are cut from them at the end.
	type span struct{ runs, key int }
	spans := make([]span, 1, slots+1)
	var runs []bitset.Run
	var keys []byte
	for i := uint64(0); i < count; i++ {
		if len(data) == 0 {
			return fmt.Errorf("dol: truncated codebook row %d", i)
		}
		h := data[0]
		data = data[1:]
		refs := uint64(0)
		switch h {
		case rowFreed:
			cb.free = append(cb.free, Code(i))
		case rowRuns:
			var err error
			rest := data
			if runs, data, err = bitset.DecodeRuns(runs, data, uint32(ns)); err != nil {
				return fmt.Errorf("dol: codebook row %d: %w", i, err)
			}
			keys = append(keys, rest[:len(rest)-len(data)]...)
			if refs, n = uvarint(data); n <= 0 || refs > math.MaxInt {
				return fmt.Errorf("dol: corrupt refcount for codebook row %d", i)
			}
			data = data[n:]
		default:
			return fmt.Errorf("dol: codebook row %d has header %d", i, h)
		}
		cb.refs = append(cb.refs, int(refs))
		spans = append(spans, span{len(runs), len(keys)})
	}
	if len(data) != 0 {
		return fmt.Errorf("dol: %d bytes after the codebook's last row", len(data))
	}
	index := make(map[string]Code, len(cb.refs)-len(cb.free))
	all := string(keys)
	for i := range cb.refs {
		a, b := spans[i], spans[i+1]
		if a.key == b.key {
			cb.entries = append(cb.entries, nil) // a freed slot
			continue
		}
		key := all[a.key:b.key]
		if c, ok := index[key]; ok {
			return fmt.Errorf("dol: codebook rows %d and %d are equal", c, i)
		}
		index[key] = Code(i)
		row := runs[a.runs:b.runs:b.runs]
		if row == nil {
			row = []bitset.Run{}
		}
		cb.entries = append(cb.entries, row)
	}
	cb.index = index
	return nil
}

// uvarint is binary.Uvarint refusing, with n -1, a varint that is not in
// its shortest form, the only one binary.AppendUvarint writes.
func uvarint(data []byte) (v uint64, n int) {
	if v, n = binary.Uvarint(data); n > 1 && data[n-1] == 0 {
		return 0, -1
	}
	return v, n
}
