package dol

import (
	"fmt"

	"dolxml/internal/bitset"
)

// RunCodebook is the sparse twin of Codebook: entries are run-length lists
// of set subject bits instead of dense words, interned by their compact run
// encoding. A dense codebook row costs subjects/8 bytes no matter how
// correlated the population is, which makes the paper's million-subject
// regime unmeasurable (10⁶ subjects × thousands of entries is gigabytes of
// bitsets and Key() churn). Group-correlated ACLs are a handful of runs, so
// the sparse form holds the same dictionary in a few bytes per entry and
// lets the scaling experiments build real codebooks at 10⁶ subjects.
//
// The API mirrors the subset of Codebook the experiments need: interning,
// reference counting with slot reuse, and membership tests. It is not
// concurrency-safe.
type RunCodebook struct {
	numSubjects int
	entries     [][]bitset.Run // code -> runs; nil for freed (empty ACL is []bitset.Run{})
	refs        []int
	index       map[string]Code // run-encoding key -> code
	free        []Code
	// Aggregate row-shape accounting, maintained incrementally so the
	// scaling sweep can report row width without a full scan.
	liveRuns  int64 // sum of len(runs) over live entries
	liveBytes int64 // sum of encoded row bytes over live entries
	maxRuns   int   // widest row ever interned (monotone)
}

// NewRunCodebook returns an empty sparse codebook over numSubjects subjects.
func NewRunCodebook(numSubjects int) *RunCodebook {
	if numSubjects < 0 {
		panic("dol: negative subject count")
	}
	return &RunCodebook{
		numSubjects: numSubjects,
		index:       make(map[string]Code),
	}
}

// Len returns the number of live entries.
func (cb *RunCodebook) Len() int { return len(cb.entries) - len(cb.free) }

// Intern returns the code for the ACL described by the sorted, maximal run
// list, adding an entry with reference count zero if it is new. The runs
// are copied; the caller may reuse its slice.
func (cb *RunCodebook) Intern(runs []bitset.Run) Code {
	key := string(bitset.AppendRuns(nil, runs))
	if c, ok := cb.index[key]; ok {
		return c
	}
	stored := make([]bitset.Run, len(runs))
	copy(stored, runs)
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
	cb.liveRuns += int64(len(stored))
	cb.liveBytes += int64(len(key))
	if len(stored) > cb.maxRuns {
		cb.maxRuns = len(stored)
	}
	return c
}

// WithBit returns the code for entry c's ACL plus subject bit s, interning
// it if new. When s is already granted by c it returns c itself.
func (cb *RunCodebook) WithBit(c Code, s int) Code {
	if s < 0 || s >= cb.numSubjects {
		panic(fmt.Sprintf("dol: WithBit(%d) out of range [0,%d)", s, cb.numSubjects))
	}
	runs := cb.runs(c)
	next := bitset.AddRunBit(runs, uint32(s))
	if len(next) == len(runs) && (len(runs) == 0 || &next[0] == &runs[0]) {
		return c
	}
	return cb.Intern(next)
}

// Retain increments the reference count of code c.
func (cb *RunCodebook) Retain(c Code) { cb.refs[c]++ }

// Release decrements the reference count of code c, freeing the entry when
// it reaches zero.
func (cb *RunCodebook) Release(c Code) {
	if cb.refs[c] <= 0 {
		panic(fmt.Sprintf("dol: release of unreferenced sparse code %d", c))
	}
	cb.refs[c]--
	if cb.refs[c] == 0 {
		key := string(bitset.AppendRuns(nil, cb.entries[c]))
		delete(cb.index, key)
		cb.liveRuns -= int64(len(cb.entries[c]))
		cb.liveBytes -= int64(len(key))
		cb.entries[c] = nil
		cb.free = append(cb.free, c)
	}
}

func (cb *RunCodebook) runs(c Code) []bitset.Run {
	if int(c) >= len(cb.entries) || cb.entries[c] == nil {
		panic(fmt.Sprintf("dol: lookup of dead sparse code %d", c))
	}
	return cb.entries[c]
}

// SparseBytes returns the encoded size of the live entries — the row bytes
// a v2 sparse serialization would pay.
func (cb *RunCodebook) SparseBytes() int64 { return cb.liveBytes }

// DenseBytes returns what the same dictionary would cost as dense rows, one
// bit per subject per live entry — the Codebook.Bytes arithmetic.
func (cb *RunCodebook) DenseBytes() int64 {
	return int64(cb.Len()) * int64((cb.numSubjects+7)/8)
}

// LiveRuns returns the total run count across live entries.
func (cb *RunCodebook) LiveRuns() int64 { return cb.liveRuns }

// MaxRuns returns the widest (most runs) row ever interned.
func (cb *RunCodebook) MaxRuns() int { return cb.maxRuns }
