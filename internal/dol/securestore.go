package dol

import (
	"context"
	"fmt"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/nok"
	"dolxml/internal/obs"
	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// SecureStore is the physical DOL representation (§3): a NoK structure
// store with embedded transition codes, per-block access headers mirrored
// in the in-memory page directory, and the codebook in memory.
type SecureStore struct {
	store *nok.Store
	cb    *Codebook
	// cbShared marks the codebook as shared with a frozen clone (see
	// Freeze); the next mutation must go through WillMutate to clone it
	// first. Only the owning writer touches it.
	cbShared bool

	// stats is shared by the live store and every frozen clone, so view
	// counters registered once keep counting across snapshots.
	stats *viewStats

	// region is the writer's buffer for region rewrites (update.go).
	region regionBuf
}

// viewStats holds the view-layer counters, registered under view_* via
// RegisterMetrics: decisions counts access decisions asked of the codebook,
// bitmapBuilds page-deny bitmaps built.
type viewStats struct {
	decisions    obs.Counter
	bitmapBuilds obs.Counter
}

// BuildSecureStore labels doc with the accessibility matrix m and builds
// the store from the labeling (BuildLabeledStore).
func BuildSecureStore(pool *storage.BufferPool, doc *xmltree.Document, m *acl.Matrix, opts nok.BuildOptions) (*SecureStore, error) {
	return BuildLabeledStore(pool, doc, FromMatrix(m), opts)
}

// BuildLabeledStore writes doc with the finished labeling lab — the
// combined structure + access control representation — into blocks from
// pool in a single document-order pass. The store takes lab's codebook.
func BuildLabeledStore(pool *storage.BufferPool, doc *xmltree.Document, lab *Labeling, opts nok.BuildOptions) (*SecureStore, error) {
	if lab.NumNodes() != doc.Len() {
		return nil, fmt.Errorf("dol: labeling covers %d nodes, document has %d", lab.NumNodes(), doc.Len())
	}
	opts.Codes = lab
	st, err := nok.Build(pool, doc, opts)
	if err != nil {
		return nil, err
	}
	ss := &SecureStore{store: st, cb: lab.Codebook(), stats: &viewStats{}}
	// Establish the reference-count invariant refs(code) = #headers +
	// #inline entries carrying it. The stream builder retained one
	// reference per logical transition; blocks store block-first
	// transition codes in their headers instead of inline, so transfer
	// those references to the headers and add header references for
	// blocks whose first node is not a transition.
	for i := 0; i < st.NumPages(); i++ {
		pi := st.PageInfoAt(i)
		ss.cb.Retain(pi.AccessCode)
		if lab.IsTransition(pi.FirstNode) {
			ss.cb.Release(lab.CodeInForce(pi.FirstNode))
		}
	}
	return ss, nil
}

// OpenSecureStore wraps an existing NoK store (reopened via nok.Open) and
// its codebook.
func OpenSecureStore(store *nok.Store, cb *Codebook) *SecureStore {
	return &SecureStore{store: store, cb: cb, stats: &viewStats{}}
}

// Store returns the underlying NoK structure store.
func (ss *SecureStore) Store() *nok.Store { return ss.store }

// Freeze returns a read-only clone over the given frozen NoK store,
// sharing the codebook and the view counters. The live store's next
// codebook mutation must go through WillMutate, which clones the codebook
// so the frozen view keeps its exact access state. The clone must not be
// mutated.
func (ss *SecureStore) Freeze(frozen *nok.Store) *SecureStore {
	ss.cbShared = true
	return &SecureStore{store: frozen, cb: ss.cb, cbShared: true, stats: ss.stats}
}

// WillMutate prepares the store for a codebook mutation: if the codebook is
// shared with a frozen clone it is deep-copied first (carrying entries,
// refcounts and generation), so in-place Intern/Retain/Release/AddSubject
// mutations never reach a published snapshot. The codebook is compact by
// design (the paper's central claim), so the copy is cheap relative to the
// page writes of any update.
func (ss *SecureStore) WillMutate() {
	if ss.cbShared {
		ss.cb = ss.cb.Clone()
		ss.cbShared = false
	}
}

// RegisterMetrics registers the view-layer counters with reg under prefix
// (prefix "view" yields view_decisions_computed and view_bitmap_builds).
// Codebook-shape gauges are the facade's concern: it reads them off its
// current snapshot so exports never race an update.
func (ss *SecureStore) RegisterMetrics(reg *obs.Registry, prefix string) error {
	for _, m := range []struct {
		name, help string
		c          *obs.Counter
	}{
		{"decisions_computed", "Access decisions computed from the codebook.", &ss.stats.decisions},
		{"bitmap_builds", "Page deny-bitmaps materialized.", &ss.stats.bitmapBuilds},
	} {
		if err := reg.RegisterCounter(prefix+"_"+m.name, m.c); err != nil {
			return err
		}
		reg.SetHelp(prefix+"_"+m.name, m.help)
	}
	return nil
}

// Codebook returns the in-memory codebook.
func (ss *SecureStore) Codebook() *Codebook { return ss.cb }

// Accessible reports whether subject s may access node n: locate the
// governing transition code within n's block and test bit s of the
// codebook entry (§3.3). When n's block is already buffered the check
// costs no physical I/O.
func (ss *SecureStore) Accessible(n xmltree.NodeID, s acl.SubjectID) (bool, error) {
	c, err := ss.store.AccessCodeAt(n)
	if err != nil {
		return false, err
	}
	return ss.cb.Accessible(c, s), nil
}

// SubjectView binds a SecureStore to one effective subject set, giving the
// single-argument access predicate the secure query evaluator consumes.
// Every decision is "the s-th bit in that codebook entry" (§3.3) for the
// view's subjects, asked of the codebook when it is needed: a view holds no
// memo, so one made before an update answers for the codebook after it.
// Views are safe for concurrent readers; updates to the underlying store
// must not run concurrently with view reads (securexml serializes them
// behind its store lock).
type SubjectView struct {
	ss *SecureStore
	// subjects is the effective set as its sorted subjects, the form a
	// decision reads.
	subjects []uint32
}

// accessibleCode decides whether the view's subjects may access code c.
func (v *SubjectView) accessibleCode(c Code) bool {
	v.ss.stats.decisions.Inc()
	return v.ss.cb.AccessibleAny(c, v.subjects)
}

// View returns a SubjectView for the given effective subject set (a user's
// own subject plus their transitive groups; see acl.Directory).
func (ss *SecureStore) View(effective *bitset.Bitset) *SubjectView {
	return &SubjectView{ss: ss, subjects: effective.Indices32()}
}

// ViewSubject returns a SubjectView for a single subject.
func (ss *SecureStore) ViewSubject(s acl.SubjectID) *SubjectView {
	return &SubjectView{ss: ss, subjects: []uint32{uint32(s)}}
}

// Accessible reports whether the view's subject set may access node n: the
// governing code is located in n's block (§3.3), then decided.
func (v *SubjectView) Accessible(n xmltree.NodeID) (bool, error) {
	return v.AccessibleCtx(context.Background(), n)
}

// AccessibleCtx is Accessible with cancellation: the code lookup honors the
// context at its page-fetch boundary, so a cancelled query stops without
// pinning n's block.
func (v *SubjectView) AccessibleCtx(ctx context.Context, n xmltree.NodeID) (bool, error) {
	c, err := v.ss.store.AccessCodeAtCtx(ctx, n)
	if err != nil {
		return false, err
	}
	return v.accessibleCode(c), nil
}

// PageDenyBits returns a new page-deny bitmap for the view: bit i is set
// exactly when block i's change bit is clear and its header code denies the
// view's subjects, the page-skipping test of §3.3. One pass over the
// in-memory page directory (no I/O) turns every later page test of a query
// into a bit probe; a query compiles it once.
func (v *SubjectView) PageDenyBits() []uint64 {
	v.ss.stats.bitmapBuilds.Inc()
	st := v.ss.store
	n := st.NumPages()
	bits := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		pi := st.PageInfoAt(i)
		if !pi.ChangeBit && !v.accessibleCode(pi.AccessCode) {
			bits[i/64] |= 1 << uint(i%64)
		}
	}
	return bits
}

// CodeAllowed decides the view's access to a bare code, with no I/O. The
// path-summary compiler uses it to pre-resolve whole path classes whose
// occurrences all share one code. A dead code allows nothing: the summary
// keeps the uniform claim of a class whose every occurrence is gone, and
// its code may have been released since.
func (v *SubjectView) CodeAllowed(c Code) bool {
	return v.ss.cb.live(c) && v.accessibleCode(c)
}

// Subjects returns the view's effective subject set as its sorted subjects
// (shared; read-only).
func (v *SubjectView) Subjects() []uint32 { return v.subjects }

// Store returns the view's secure store.
func (v *SubjectView) Store() *SecureStore { return v.ss }

// Matrix reconstructs the accessibility matrix encoded in the physical
// representation by streaming every block; used by tests and consistency
// checks.
func (ss *SecureStore) Matrix() (*acl.Matrix, error) {
	m := acl.NewMatrix(ss.store.NumNodes(), ss.cb.NumSubjects())
	err := ss.store.WalkSubtree(0, func(ni nok.NodeInfo) bool {
		m.SetRow(ni.ID, ss.cb.ACL(ni.Code))
		return true
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// TransitionCount returns the number of transition nodes: the nodes, in
// document order, whose code differs from the preceding node's, the root
// included. It walks every block and counts code changes, so a block whose
// first code equals its predecessor's last adds nothing: this is the
// logical count Labeling.NumTransitions gives at build time and
// Proposition 1 bounds under updates, not the number of codes the blocks
// store.
func (ss *SecureStore) TransitionCount() (int, error) {
	count := 0
	var prev Code
	first := true
	err := ss.store.WalkSubtree(0, func(ni nok.NodeInfo) bool {
		if first || ni.Code != prev {
			count++
		}
		prev = ni.Code
		first = false
		return true
	})
	if err != nil {
		return 0, err
	}
	return count, nil
}
