package securexml

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dolxml/internal/acl"
	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/query"
	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// snapshot is one published, immutable state of the store: the frozen
// structure store and secure wrapper, the subject directory in force, the
// derived indexes, and the page-table version that keeps the snapshot's
// pages from being overwritten while anyone holds it. Updates build the
// next snapshot off to the side and publish it with one atomic pointer
// swap; readers load-and-pin it without ever touching Store.mu.
type snapshot struct {
	seq uint64
	ver *storage.Version
	st  *nok.Store
	ss  *dol.SecureStore
	dir *acl.Directory
	idx *indexState
}

// indexState holds the tag and value indexes derived from one snapshot's
// structure: flat in-memory runs (btree.Runs), not B+-trees — an index that
// is replaced on every structural commit and never edited needs no pages.
// The postings are grouped by path class, numbered as the snapshot's path
// summary numbers them. It is built off every lock, at Open from the scan
// that opens the store, otherwise on the first query that needs it —
// concurrent first queries share one build through the Once — and is
// reused across snapshots whose structure and class numbering are unchanged
// (ACL-only updates never move an extent or a value, so the postings stay
// valid; pages are resolved through each snapshot's own directory at
// evaluation time; see sharesIndex). The value runs are built per tag, by the
// first value test on that tag.
type indexState struct {
	once   sync.Once
	err    error
	index  *btree.Runs
	vindex query.ValueIndex // a *btree.ValueRuns; nil when no values are stored
	// built is set once index and vindex are, for readers outside the Once.
	built atomic.Bool
	// masks memoizes the view-independent half of query plans (path
	// embedding, candidate postings, value-index postings) across the
	// snapshots sharing this index state. Entries are stamped with the
	// publishing sequence and hit only on an exact match, so an ACL-only
	// commit (which shares the indexState but shadow-pages the block
	// directory) still replans.
	masks *query.MaskCache
}

func newIndexState(masks *query.MaskCache) *indexState {
	return &indexState{masks: masks}
}

// sharesIndex reports whether a snapshot over next may keep the index state
// of one over prev: only when the commit between them left the structure
// alone and the path classes numbered as they were. An ACL-only rewrite
// whose summary replay fails rebuilds the summary, which numbers the classes
// afresh.
func sharesIndex(prev, next *nok.Store, structural bool) bool {
	if structural {
		return false
	}
	a, b := prev.Paths(), next.Paths()
	return a.Numbering() == b.Numbering() && a.NumNodes() == b.NumNodes()
}

// ensure builds the indexes on first use and returns the build outcome
// (memoized; a failed build fails every query of this snapshot chain until
// a structural update publishes a fresh indexState). x is a finished extent
// pass over st, classes numbered as st's path summary numbers them, or nil
// to have one made.
func (ix *indexState) ensure(st *nok.Store, x *nok.Extents) error {
	ix.once.Do(func() { ix.err = ix.build(st, x) })
	return ix.err
}

// bytes is the memory the built runs hold, value runs included; 0 until
// they are built.
func (ix *indexState) bytes() int64 {
	if !ix.built.Load() {
		return 0
	}
	n := ix.index.Bytes()
	if v, ok := ix.vindex.(*btree.ValueRuns); ok {
		n += v.Bytes()
	}
	return n
}

// build groups an extent pass's entries into the class runs: the pass reads
// each structure block once and nothing else. A tag's value run reads the
// value pages of that tag's nodes once, when first asked for, under no
// query's context — a cancelled first asker must not fail the tag for
// everyone after.
func (ix *indexState) build(st *nok.Store, x *nok.Extents) error {
	if x == nil {
		var err error
		if x, err = st.ClassExtents(); err != nil {
			return err
		}
	}
	sum := st.Paths()
	tags := make([]int32, sum.NumNodes())
	for c := range tags {
		tags[c] = sum.NodeAt(int32(c)).Tag
	}
	var err error
	ix.index, err = btree.NewClassRuns(x.Postings, st.NumTags(), btree.Classes{
		Of: x.Classes, Tag: tags, Numbering: sum.Numbering(),
	})
	if err != nil {
		return err
	}
	if vs := st.Values(); vs != nil {
		ix.vindex = btree.NewValueRuns(ix.index, func(nodes []xmltree.NodeID) ([]string, error) {
			return vs.ValuesCtx(context.Background(), nodes)
		})
	}
	ix.built.Store(true)
	return nil
}

// snapRef is one pinned hold of a snapshot, stamped for pin-duration
// accounting. Every acquire must be paired with exactly one release.
type snapRef struct {
	sn *snapshot
	at time.Time
}

// failedNow reports the poisoned state without any lock: the explicit flag
// (an abort discarded buffered writes) or a broken WAL (a group flush died,
// so the in-memory state of every batch sealed since is ahead of what disk
// will ever hold).
func (s *Store) failedNow() bool {
	return s.failed.Load() || (s.wp != nil && s.wp.Broken() != nil)
}

// acquire pins the current snapshot for one reader. The pin is the only
// synchronization a query needs: no store lock is taken, so readers never
// stall an updater and vice versa. The TryPin loop covers the benign race
// where a publish retires the version between the load and the pin.
//
// A store that fails while a snapshot is pinned keeps serving that
// snapshot correctly — an aborted transaction only ever wrote fresh or
// quarantine-cleared pages, never a page a published snapshot references —
// but new acquisitions fail. This closes the pre-snapshot TOCTOU window
// where a query could start between a poisoning update's lock release and
// the query's own lock acquisition and then read half-diverged state.
func (s *Store) acquire() (snapRef, error) {
	if s.failedNow() {
		return snapRef{}, errStoreFailed
	}
	for {
		sn := s.cur.Load()
		if sn.ver.TryPin() {
			s.snapPins.Inc()
			return snapRef{sn: sn, at: time.Now()}, nil
		}
	}
}

// acquireFor resolves the snapshot a query runs against: the caller's
// explicit repeatable-read pin when opts carries one, else the current
// snapshot. Either way the query holds its own pin for its whole drain.
func (s *Store) acquireFor(opts QueryOptions) (snapRef, error) {
	if opts.Snapshot == nil {
		return s.acquire()
	}
	return opts.Snapshot.ref()
}

// release drops one pin, records the hold duration and fires the slow-pin
// log when the hold exceeded StoreOptions.SlowPinThreshold — long pins
// delay page reclamation the way slow queries delay answers, so they get
// the same reporting treatment.
func (s *Store) release(r snapRef) {
	if r.sn == nil {
		return
	}
	held := time.Since(r.at)
	r.sn.ver.Unpin()
	s.snapUnpins.Inc()
	s.snapPinUs.Observe(held.Microseconds())
	if slow := s.opts.SlowPinThreshold; slow > 0 && held >= slow {
		w := s.opts.SlowPinLog
		if w == nil {
			w = os.Stderr
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "securexml: slow snapshot pin (%v >= %v): seq=%d live_versions=%d\n",
			held.Round(time.Microsecond), slow, r.sn.seq, s.vt.LiveVersions())
		s.slowMu.Lock()
		w.Write(buf.Bytes())
		s.slowMu.Unlock()
	}
}

// publish freezes the live state into the next snapshot and swaps it in.
// Called with s.mu held, after the update's batch sealed successfully (the
// effects are thereby visible to new queries in commit order). structural
// reports whether the update changed the document structure; ACL- and
// directory-only updates keep sharing the previous snapshot's indexes.
//
// The pages the update released are handed to the version table tagged
// with the new version, so they become reusable only when every older
// snapshot has retired.
func (s *Store) publish(structural bool) {
	st := s.ss.Store()
	prev := s.cur.Load()
	ver := s.vt.Publish(st.TakeRetired())
	// The snapshot holds its own reference beyond the table's, so the
	// previous snapshot stays pinnable until the pointer swap below.
	ver.TryPin()
	frozen := st.Freeze()
	sn := &snapshot{
		seq: ver.Seq(),
		ver: ver,
		st:  frozen,
		ss:  s.ss.Freeze(frozen),
		dir: s.dir,
	}
	s.dirShared = true
	if prev != nil && sharesIndex(prev.st, frozen, structural) {
		sn.idx = prev.idx
	} else {
		sn.idx = newIndexState(query.NewMaskCache(&s.maskHits, &s.maskMisses))
	}
	s.cur.Store(sn)
	if prev != nil {
		prev.ver.Unpin()
	}
}

// initSnapshot installs the version table, the deferred page-reuse gate and
// the first snapshot. Called once from Seal and Open, before the store is
// shared.
func (s *Store) initSnapshot() {
	s.vt = storage.NewVersionTable()
	st := s.ss.Store()
	st.SetPageReuseGate(s.vt)
	ver := s.vt.Current()
	ver.TryPin()
	frozen := st.Freeze()
	s.dirShared = true
	s.cur.Store(&snapshot{
		seq: ver.Seq(),
		ver: ver,
		st:  frozen,
		ss:  s.ss.Freeze(frozen),
		dir: s.dir,
		idx: newIndexState(query.NewMaskCache(&s.maskHits, &s.maskMisses)),
	})
}

// mutableDir returns the live directory, cloning it first when it is still
// shared with a published snapshot. Callers mutate the returned directory
// under s.mu.
func (s *Store) mutableDir() *acl.Directory {
	if s.dirShared {
		s.dir = s.dir.Clone()
		s.dirShared = false
	}
	return s.dir
}

// evaluatorAt builds the query evaluator over one snapshot's frozen store
// and indexes; the caller must have ensured the snapshot's indexState.
func evaluatorAt(sn *snapshot) *query.Evaluator {
	return query.NewEvaluatorAt(query.Snapshot{
		Store:  sn.st,
		Index:  sn.idx.index,
		Values: sn.idx.vindex,
		Masks:  sn.idx.masks,
		Seq:    sn.seq,
	})
}

// Snapshot is a pinned, repeatable-read handle on one committed state of
// the store. Every query carrying it (QueryOptions.Snapshot) evaluates
// against exactly that state, byte-identically, regardless of concurrent
// updates. Close releases the pin; holding a snapshot open keeps the pages
// of its version from being reclaimed, so close it when done.
type Snapshot struct {
	s      *Store
	base   snapRef
	mu     sync.Mutex
	closed bool
}

// Snapshot pins the store's current committed state and returns the
// repeatable-read handle. The handle is valid until Close, even across
// concurrent updates or a store failure (a failed store stops admitting
// new snapshots but keeps serving pinned ones).
func (s *Store) Snapshot() (*Snapshot, error) {
	r, err := s.acquire()
	if err != nil {
		return nil, err
	}
	return &Snapshot{s: s, base: r}, nil
}

// Seq returns the snapshot's commit sequence number (1 for the sealed
// state, +1 per committed update).
func (sp *Snapshot) Seq() uint64 { return sp.base.sn.seq }

// ref takes one additional pin on the snapshot for a single query's
// lifetime, so a racing Close never invalidates an in-flight query.
func (sp *Snapshot) ref() (snapRef, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return snapRef{}, fmt.Errorf("securexml: snapshot already closed")
	}
	// The handle's own pin keeps the refcount positive, so this cannot
	// fail.
	sp.base.sn.ver.TryPin()
	sp.s.snapPins.Inc()
	return snapRef{sn: sp.base.sn, at: time.Now()}, nil
}

// Close releases the snapshot's pin, allowing its version (and the pages
// only it still references) to be reclaimed. Idempotent.
func (sp *Snapshot) Close() error {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return nil
	}
	sp.closed = true
	sp.mu.Unlock()
	sp.s.release(sp.base)
	return nil
}
