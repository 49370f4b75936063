package securexml

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dolxml/internal/acl"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/obs"
	"dolxml/internal/query"
	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// StoreOptions configure the physical representation.
type StoreOptions struct {
	// Path, when set, backs the store with a page file on disk (required
	// for Save); empty keeps the pages in memory.
	Path string
	// PageSize is the block size in bytes (default 4096, the paper's).
	PageSize int
	// PoolPages bounds the buffer pool (default 4096 frames).
	PoolPages int
	// FillPercent leaves slack in structure blocks for in-place updates
	// (default 90).
	FillPercent int
	// DiscardValues skips the node value store (structure-only store).
	DiscardValues bool
	// DecodeCacheBytes budgets the NoK store's decoded-block cache, which
	// keeps recently decoded structure blocks in their entry form so hot
	// scans skip re-parsing (an in-memory complement to the buffer pool).
	// 0 keeps the default (1 MiB); a negative value disables the cache.
	DecodeCacheBytes int64
	// DisableWAL turns off the write-ahead log that file-backed stores
	// otherwise get, trading crash atomicity of updates for one less file
	// and fewer fsyncs. Memory-backed stores never have a WAL.
	DisableWAL bool
	// Durability selects how update commits reach disk on a write-ahead-
	// logged store: DurabilitySync (default) blocks each update until its
	// batch is flushed; DurabilityGrouped blocks until a shared group
	// flush covers the batch, letting concurrent updaters split the fsync
	// cost; DurabilityAsync returns as soon as the batch is sealed, with
	// durability reported through a Commit handle (see SetAccessAsync and
	// AwaitDurable). Stores without a WAL ignore the setting: their
	// updates are applied in place and have no deferred flush.
	Durability Durability
	// WrapPager, when set, wraps the data pager before the store (and the
	// WAL) sees it — a seam for fault-injection tests.
	WrapPager func(storage.Pager) storage.Pager
	// WrapWALFile, when set, wraps the write-ahead log file — the matching
	// fault-injection seam for the log itself.
	WrapWALFile func(storage.File) storage.File
	// SlowQueryThreshold, when positive, forces tracing on for every query
	// and dumps the trace of any query at least this slow to SlowQueryLog.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query dumps (default os.Stderr). Each
	// report is a single Write, serialized by the store, so the writer
	// need not be goroutine-safe.
	SlowQueryLog io.Writer
	// SlowPinThreshold, when positive, reports any snapshot pin held at
	// least this long to SlowPinLog. A long-held pin delays page
	// reclamation the way a slow query delays answers: pages freed by
	// updates stay quarantined until the pinned version retires.
	SlowPinThreshold time.Duration
	// SlowPinLog receives slow-pin reports (default os.Stderr), serialized
	// like SlowQueryLog.
	SlowPinLog io.Writer
	// SLOLatency, when positive, sets the store's per-query latency
	// objective: every query slower than it burns error budget. The
	// objective and the burn accounting are exported through the metrics
	// registry (slo_latency_objective_us, slo_queries_over_objective,
	// slo_burn_rate_permille).
	SLOLatency time.Duration
	// SLOTarget is the availability target the error budget is measured
	// against (default 0.999: one query in a thousand may miss the
	// objective before the burn rate exceeds 1000 permille).
	SLOTarget float64
}

// Durability selects when an update commit becomes durable relative to the
// call that made it. All three modes share the same crash guarantees —
// recovery replays an exact prefix of the committed batches — they differ
// only in when the caller learns its batch is in that prefix.
type Durability int

const (
	// DurabilitySync makes each update durable before its call returns:
	// the committer seals its batch and runs the group flush itself
	// (coalescing any concurrently sealed batches). Today's semantics,
	// and the default.
	DurabilitySync Durability = iota
	// DurabilityGrouped blocks each update until the shared background
	// flush covers its batch: N concurrent updaters share one log fsync,
	// one data fsync and one checkpoint instead of paying 3 each.
	DurabilityGrouped
	// DurabilityAsync returns as soon as the batch is sealed (its effects
	// are immediately visible to queries); durability is reported through
	// the Commit handle of the *Async update variants, or collectively by
	// AwaitDurable. A crash can lose a suffix of unflushed updates — never
	// an interior one.
	DurabilityAsync
)

func (o *StoreOptions) defaults() {
	if o.PageSize == 0 {
		o.PageSize = storage.DefaultPageSize
	}
	if o.PoolPages == 0 {
		o.PoolPages = 4096
	}
	if o.FillPercent == 0 {
		o.FillPercent = 90
	}
	if o.SLOTarget == 0 {
		o.SLOTarget = 0.999
	}
}

// Store is a sealed secure XML store. It is safe for concurrent use under
// snapshot isolation: queries pin the current published snapshot and run
// entirely lock-free against it, updates serialize among themselves and
// publish a new snapshot when they commit. Readers never block an updater
// and an updater never blocks readers.
type Store struct {
	// mu serializes updates (and snapshot publication) with each other.
	// Queries do NOT take it: they pin the current snapshot instead.
	mu sync.RWMutex
	// commitMu serializes DurabilitySync commits with each other across
	// their whole seal-and-flush span (see lockUpdate): a Sync commit
	// keeps the historical one-flush-per-batch I/O behavior instead of
	// coalescing with concurrent committers. The relaxed modes never take
	// it — coalescing is exactly what they opt into.
	commitMu sync.Mutex
	opts     StoreOptions
	pool     *storage.BufferPool
	// ss is the live, mutable secure store; only update paths (under
	// s.mu) touch it. Queries go through cur's frozen view.
	ss *dol.SecureStore
	// dir is the live subject directory. While dirShared it is also
	// referenced by the published snapshot and must be cloned before
	// mutation (see mutableDir).
	dir       *acl.Directory
	dirShared bool
	modes     []string
	modeIdx   map[string]int
	// cur is the published snapshot queries pin; vt tracks version
	// lifetimes and quarantines freed pages until no pinned version can
	// still read them.
	cur atomic.Pointer[snapshot]
	vt  *storage.VersionTable
	// sink routes committed update metadata (the store.json image carried
	// in WAL commit records) to the persisted directory, once one is known.
	sink *metaSink
	// wp is the write-ahead-logged pager, nil for memory-backed or
	// DisableWAL stores. Update commits seal into its flush queue under
	// s.mu and flush after releasing it, so readers never wait out an
	// updater's fsyncs.
	wp *storage.WALPager
	// recovery records what opening the WAL found (zero value when the
	// store has no WAL or the log was clean).
	recovery storage.RecoveryInfo
	// failed marks the store poisoned: an update batch was rolled back
	// after buffering page writes, so the in-memory directory, codebook and
	// buffer pool are ahead of what disk will ever hold. New operations
	// fail (already-pinned snapshots finish serving their committed state);
	// reopening the store runs WAL recovery and rebuilds a consistent
	// image.
	failed atomic.Bool
	// reg is the store-wide metrics registry; every layer registers its
	// counters into it at construction (initObs), and the query-level
	// counters below are its members. All surfaces — MetricsSnapshot, the
	// debug endpoints, dolcli -stats, dolbench — read the same registry.
	reg          *obs.Registry
	queryTotal   *obs.Counter
	queryErrors  *obs.Counter
	querySlow    *obs.Counter
	queryAnswers *obs.Counter
	queryMatches *obs.Counter
	skipAccess   *obs.Counter
	skipStruct   *obs.Counter
	candRejects  *obs.Counter
	pathRejects  *obs.Counter
	joinRejects  *obs.Counter
	pathEmpties  *obs.Counter
	pathClasses  *obs.Counter
	queryLatency *obs.Histogram
	// maskHits/maskMisses count plan-memo lookups — the view-independent
	// half of a plan, skip masks included — served from and missed by the
	// per-snapshot MaskCache. They are created before the first snapshot
	// (whose cache captures them) and registered in initObs.
	maskHits   *obs.Counter
	maskMisses *obs.Counter
	snapPins   *obs.Counter
	snapUnpins *obs.Counter
	snapPinUs  *obs.Histogram
	// rec is the always-on query flight recorder: every query — traced or
	// not — folds a digest into it (a counting trace supplies the page
	// accounting when the caller attached no trace). traceDropped counts
	// events any query trace discarded past its limit; sloFinished/sloOver
	// drive the error-budget burn gauges.
	rec          *obs.Recorder
	traceDropped *obs.Counter
	sloFinished  *obs.Counter
	sloOver      *obs.Counter
	// slowMu serializes slow-query and slow-pin reports: queries finish
	// concurrently, and the log writers (bytes.Buffer, log files) need not
	// be goroutine-safe.
	slowMu sync.Mutex
	// Cached sidecar fragments (see marshalMeta); guarded by s.mu like the
	// structures they mirror.
	metaPre     []byte
	metaNokHead []byte
	metaVals    []byte
	metaFP      metaHeadState
	// sidecarBytes is the size of the last sidecar image: the one Open read
	// or marshalMeta last produced (the sidecar_bytes gauge).
	sidecarBytes atomic.Int64
}

// errStoreFailed poisons a store whose in-memory state diverged from disk
// when an update batch was discarded. See Store.failed.
var errStoreFailed = fmt.Errorf("securexml: store failed mid-update; close and reopen to recover")

// Failed reports whether the store has been poisoned by a discarded update
// batch or a failed group flush and must be reopened.
func (s *Store) Failed() bool { return s.failedNow() }

// Recovery reports what crash recovery found when the store was opened:
// how many committed batches were redone, whether their metadata sidecar
// was rewritten, and whether a torn or uncommitted log tail was discarded.
func (s *Store) Recovery() storage.RecoveryInfo { return s.recovery }

// Seal materializes the policy into a DOL-labeled NoK store and returns
// the queryable Store. The builder must not be reused afterwards.
func (b *Builder) Seal(opts StoreOptions) (*Store, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.doc == nil {
		return nil, fmt.Errorf("securexml: Seal before LoadXML")
	}
	opts.defaults()
	matrix, err := b.buildMatrix()
	if err != nil {
		return nil, err
	}
	sink := &metaSink{}
	var pager storage.Pager
	var wal *storage.WALPager
	if opts.Path != "" {
		fp, err := storage.OpenFilePager(opts.Path, opts.PageSize)
		if err != nil {
			return nil, err
		}
		pager = fp
	} else {
		pager = storage.NewMemPager(opts.PageSize)
	}
	if opts.WrapPager != nil {
		pager = opts.WrapPager(pager)
	}
	if opts.Path != "" && !opts.DisableWAL {
		// The initial bulk build runs outside any batch (the WAL is a
		// transparent proxy until Begin), so sealing journals nothing;
		// the log starts mattering at the first update.
		osf, err := storage.OpenOSFile(opts.Path + walSuffix)
		if err != nil {
			pager.Close()
			return nil, err
		}
		var log storage.File = osf
		if opts.WrapWALFile != nil {
			log = opts.WrapWALFile(log)
		}
		wp, _, err := storage.OpenWALPager(pager, log, sink.deliver)
		if err != nil {
			log.Close()
			pager.Close()
			return nil, err
		}
		pager, wal = wp, wp
	}
	pool := storage.NewBufferPool(pager, opts.PoolPages)
	ss, err := dol.BuildSecureStore(pool, b.doc, matrix, nok.BuildOptions{
		FillPercent: opts.FillPercent,
		StoreValues: !opts.DiscardValues,
	})
	if err != nil {
		return nil, err
	}
	applyDecodeCacheBudget(ss.Store(), opts.DecodeCacheBytes)
	s := &Store{
		opts:       opts,
		pool:       pool,
		ss:         ss,
		dir:        b.dir,
		modes:      b.modes,
		modeIdx:    b.modeIdx,
		sink:       sink,
		wp:         wal,
		maskHits:   obs.NewCounter(),
		maskMisses: obs.NewCounter(),
	}
	s.initSnapshot()
	if err := s.initObs(); err != nil {
		return nil, err
	}
	// Build the initial indexes eagerly so Seal (not the first query)
	// reports a build failure, matching the historical reindex-at-seal.
	sn := s.cur.Load()
	if err := sn.idx.ensure(sn.st, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// applyDecodeCacheBudget maps the StoreOptions encoding (0 = keep the
// store's default, negative = disable) onto the NoK decoded-block cache.
func applyDecodeCacheBudget(st *nok.Store, budget int64) {
	if budget == 0 {
		return
	}
	if budget < 0 {
		budget = 0
	}
	st.SetDecodeCacheBudget(budget)
}

// Match is one query answer.
type Match struct {
	// Node is the answer's document-order ID.
	Node NodeID
	// Tag and Value describe the answer node.
	Tag   string
	Value string
}

func (s *Store) mode(name string) (int, error) {
	m, ok := s.modeIdx[name]
	if !ok {
		return 0, fmt.Errorf("securexml: unknown mode %q (have %s)", name, strings.Join(s.modes, ", "))
	}
	return m, nil
}

// subjectIn resolves a subject name against one directory — a snapshot's
// for readers, the live one for updates (which hold s.mu).
func subjectIn(dir *acl.Directory, name string) (acl.SubjectID, error) {
	id, ok := dir.Lookup(name)
	if !ok {
		return acl.InvalidSubject, fmt.Errorf("securexml: unknown subject %q", name)
	}
	return id, nil
}

func (s *Store) subject(name string) (acl.SubjectID, error) {
	return subjectIn(s.dir, name)
}

// answerTag returns the tag code of answer n: the one the plan bound every
// answer to (query.Result.Tag), or, for a "*" returning step, whose tags no
// plan knows, the one n's block holds.
func answerTag(ctx context.Context, cur *nok.Cursor, n xmltree.NodeID, tag int32) (int32, error) {
	if tag != query.AnyTag {
		return tag, nil
	}
	info, err := cur.Info(ctx, n)
	return info.Entry.Tag, err
}

// matches converts result node IDs, in document order, to Match records
// against the query's pinned store; tag is the result's Tag. It threads ctx
// so the page reads the conversion performs — value pages, fetched a page
// at a time, not a node at a time; structure pages only under answerTag's
// "*" case — land in the query's trace.
func (s *Store) matches(ctx context.Context, st *nok.Store, nodes []xmltree.NodeID, tag int32) ([]Match, error) {
	out := make([]Match, len(nodes))
	cur := st.NewCursor()
	for i, n := range nodes {
		code, err := answerTag(ctx, cur, n, tag)
		if err != nil {
			return nil, err
		}
		out[i] = Match{Node: NodeID(n), Tag: st.TagName(code)}
	}
	if vs := st.Values(); vs != nil {
		vals, err := vs.ValuesCtx(ctx, nodes)
		if err != nil {
			return nil, err
		}
		for i, v := range vals {
			out[i].Value = v
		}
	}
	return out, nil
}

// viewAt builds the user's effective subject view over one snapshot: the
// subject is resolved against the snapshot's directory and the view wraps
// the snapshot's frozen secure store, so access decisions and evaluation
// read the same committed state.
func (s *Store) viewAt(sn *snapshot, user, mode string) (*dol.SubjectView, error) {
	u, err := subjectIn(sn.dir, user)
	if err != nil {
		return nil, err
	}
	mi, err := s.mode(mode)
	if err != nil {
		return nil, err
	}
	return sn.ss.View(effectiveBits(sn.dir, len(s.modes), mi, u)), nil
}

// ErrBadQuery marks the query failures that are the caller's mistake: an
// XPath expression that does not parse, an unknown subject, an unknown
// mode. Test with errors.Is; everything else a query returns is a store or
// context failure.
var ErrBadQuery = errors.New("securexml: bad query")

// prepared is one request bound to everything a plan is compiled from: the
// parsed pattern, a pinned snapshot with its evaluator, and the evaluation
// options (subject view and semantics included).
type prepared struct {
	pt  *query.PatternTree
	fp  string
	ref snapRef
	ev  *query.Evaluator
	qo  query.Options
}

// prepare is the one place a request becomes evaluator input: it parses the
// expression, fingerprints it, pins the snapshot, resolves the subject view
// and semantics, makes sure the snapshot's indexes exist and maps
// QueryOptions onto query.Options, recording the parse span and the
// snapshot pin on tr (the query's effective trace; may be nil). On success
// the caller owns the pin and must call unprepare; on error nothing is held
// and p carries whatever was learned (the fingerprint, once parsed).
func (s *Store) prepare(tr *obs.Trace, user, mode, xpath string, opts QueryOptions) (p prepared, err error) {
	endParse := tr.Span(obs.EvParse)
	p.pt, err = query.Parse(xpath)
	endParse()
	if err != nil {
		return p, fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	p.fp = fingerprintFor(p.pt, opts)
	p.qo = query.Options{
		Limit:              opts.Limit,
		DisableSummarySkip: opts.DisableSummarySkip,
		DisablePathSummary: opts.DisablePathSummary,
		Trace:              tr,
	}
	if p.ref, err = s.acquireFor(opts); err != nil {
		return p, err
	}
	sn := p.ref.sn
	tr.SnapshotPin(sn.seq)
	defer func() {
		if err != nil {
			s.unprepare(&p)
		}
	}()
	if !opts.Unrestricted {
		if p.qo.View, err = s.viewAt(sn, user, mode); err != nil {
			return p, fmt.Errorf("%w: %w", ErrBadQuery, err)
		}
		if opts.Pruned {
			p.qo.Semantics = query.SemanticsPrunedSubtree
		}
	}
	if err = sn.idx.ensure(sn.st, nil); err != nil {
		return p, err
	}
	p.ev = evaluatorAt(sn)
	return p, nil
}

// unprepare drops the snapshot pin prepare took.
func (s *Store) unprepare(p *prepared) {
	p.qo.Trace.SnapshotUnpin(p.ref.sn.seq, time.Since(p.ref.at))
	s.release(p.ref)
	p.ref = snapRef{}
}

func (s *Store) run(ctx context.Context, user, mode, xpath string, opts QueryOptions) (ms []Match, err error) {
	tr, finish := s.startQuery(opts.Trace.inner(), opts.Analyze != nil)
	p, err := s.prepare(tr, user, mode, xpath, opts)
	defer func() { finish(p.fp, xpath, int64(len(ms)), err) }()
	if err != nil {
		return nil, err
	}
	defer s.unprepare(&p)
	ctx = obs.WithTrace(ctx, tr)
	res, err := p.ev.EvaluateCtx(ctx, p.pt, p.qo)
	if err != nil {
		return nil, err
	}
	s.queryAnswers.Add(int64(len(res.Nodes)))
	s.queryMatches.Add(int64(res.Matches))
	s.recordSkips(res.Skips)
	// Match materialization reads the answers' value pages; under ANALYZE
	// those pins must land in their own attribution bucket, not an
	// operator's.
	ms, err = s.matches(obs.WithTrace(ctx, tr.ForOp(query.OpOutput)), p.ref.sn.st, res.Nodes, res.Tag)
	tr.Mark(obs.EvDone)
	if err == nil && opts.Analyze != nil {
		// Fold the forced trace into per-operator attribution against the
		// plan the evaluation ran.
		opts.Analyze.an = query.AnalyzeTrace(res.Plan, tr.Events(), tr.Dropped())
	}
	return ms, err
}

// Query evaluates the XPath expression as the given user under the given
// action mode, with the paper's default (Cho et al.) semantics: every node
// bound by a match must be accessible to the user or one of their groups.
func (s *Store) Query(user, mode, xpath string) ([]Match, error) {
	return s.QueryCtx(context.Background(), user, mode, xpath, QueryOptions{})
}

// QueryPruned is Query under the Gabillon–Bruno semantics (§4.2): subtrees
// rooted at inaccessible nodes contribute nothing, enforced with ε-STD
// path checks.
func (s *Store) QueryPruned(user, mode, xpath string) ([]Match, error) {
	return s.QueryCtx(context.Background(), user, mode, xpath, QueryOptions{Pruned: true})
}

// QueryUnrestricted evaluates without access control (administrative use).
func (s *Store) QueryUnrestricted(xpath string) ([]Match, error) {
	return s.QueryCtx(context.Background(), "", "", xpath, QueryOptions{Unrestricted: true})
}

func (s *Store) combinedBitIn(dir *acl.Directory, subject, mode string) (acl.SubjectID, error) {
	sub, err := subjectIn(dir, subject)
	if err != nil {
		return acl.InvalidSubject, err
	}
	mi, err := s.mode(mode)
	if err != nil {
		return acl.InvalidSubject, err
	}
	return acl.SubjectID(int(sub)*len(s.modes) + mi), nil
}

func (s *Store) combinedBit(subject string, mode string) (acl.SubjectID, error) {
	return s.combinedBitIn(s.dir, subject, mode)
}

// Accessible reports whether the named subject alone (no group expansion)
// may access node n under the mode.
func (s *Store) Accessible(subject, mode string, n NodeID) (bool, error) {
	r, err := s.acquire()
	if err != nil {
		return false, err
	}
	defer s.release(r)
	bit, err := s.combinedBitIn(r.sn.dir, subject, mode)
	if err != nil {
		return false, err
	}
	return r.sn.ss.Accessible(xmltree.NodeID(n), bit)
}

// UserAccessible reports whether the user, including their transitive
// groups, may access node n under the mode (paper footnote 4). The check
// runs against one pinned snapshot, so the group expansion and the node's
// access code come from the same committed state.
func (s *Store) UserAccessible(user, mode string, n NodeID) (bool, error) {
	r, err := s.acquire()
	if err != nil {
		return false, err
	}
	defer s.release(r)
	view, err := s.viewAt(r.sn, user, mode)
	if err != nil {
		return false, err
	}
	return view.Accessible(xmltree.NodeID(n))
}

// Commit is the durability handle of one committed update. The update's
// effects are visible to queries as soon as the updating call returns; the
// handle reports when (and whether) they became durable. The zero-cost
// handle of a store without a WAL is already resolved.
type Commit struct {
	s  *Store
	cw *storage.CommitWaiter // nil when there is nothing to flush
}

// Done returns a channel closed once the update is durable or its flush
// failed; consult Err afterwards.
func (c *Commit) Done() <-chan struct{} {
	if c.cw == nil {
		return closedDone
	}
	return c.cw.Done()
}

// Err returns the flush outcome. Valid only after Done is closed.
func (c *Commit) Err() error {
	if c.cw == nil {
		return nil
	}
	return c.cw.Err()
}

// Wait blocks until the update is durable and returns the flush outcome.
// A flush failure has already poisoned the store (Failed reports true);
// reopen to recover — the log decides which sealed batches survive.
func (c *Commit) Wait() error {
	if c.cw == nil {
		return nil
	}
	return c.cw.Wait()
}

var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// updateTxn runs fn as one user-visible atomic update and SEALS it with
// the metadata sidecar: on a write-ahead-logged pager it opens the
// outermost batch (the nok/dol layers' own batches nest inside), flushes
// every dirty buffer-pool frame into it, and moves the batch onto the
// flush queue — cheap, no I/O. The caller must hold the write lock, and
// must call finish AFTER releasing it: the expensive flush protocol runs
// there, outside s.mu, so queries never stall behind an updater's fsyncs.
//
// If the batch is rolled back or sealing fails after page writes were
// buffered, the in-memory store is ahead of what disk will ever hold; the
// store is then poisoned (see Store.failed) and must be reopened. Pinned
// snapshots are unaffected either way: a transaction only ever writes
// freshly allocated or quarantine-cleared pages, never a page a published
// snapshot references.
func (s *Store) updateTxn(fn func() error) (*Commit, error) {
	if s.failedNow() {
		return nil, errStoreFailed
	}
	// The live codebook may still be shared read-only with the published
	// snapshot; detach it before any mutation.
	s.ss.WillMutate()
	if s.wp == nil {
		if err := fn(); err != nil {
			s.discardRetired()
			return nil, err
		}
		return &Commit{s: s}, nil
	}
	if err := s.wp.Begin(); err != nil {
		return nil, err
	}
	runErr := fn()
	// Flush unconditionally: on success the dirty frames must join the
	// batch before commit; on failure they must join it before rollback so
	// the pager's dirty-abort report distinguishes a clean validation
	// failure from a discarded half-written update.
	flushErr := s.pool.FlushAll()
	if runErr == nil {
		runErr = flushErr
	}
	if runErr == nil {
		var meta []byte
		if meta, runErr = s.marshalMeta(); runErr == nil {
			cw, err := s.wp.SealCommit(meta)
			if err == nil {
				return &Commit{s: s, cw: cw}, nil
			}
			s.noteAbort(s.wp)
			s.discardRetired()
			return nil, err
		}
	}
	_ = s.wp.Rollback()
	s.noteAbort(s.wp)
	s.discardRetired()
	return nil, runErr
}

// discardRetired drops the pages an aborted transaction freed instead of
// publishing them for reuse: their old content may still be what the
// current snapshot reads. An abort that actually buffered writes has
// poisoned the store anyway; a clean validation failure freed nothing.
func (s *Store) discardRetired() { s.ss.Store().TakeRetired() }

// lockUpdate acquires the write lock for one update running under
// durability mode d. On a journaled store a DurabilitySync update
// additionally takes commitMu, held until finish completes its inline
// flush, so concurrent Sync commits never coalesce into one group. Every
// lockUpdate must be paired with either failUpdate (update abandoned
// before updateTxn ran) or s.mu.Unlock-then-finish.
func (s *Store) lockUpdate(d Durability) {
	if d == DurabilitySync && s.wp != nil {
		s.commitMu.Lock()
	}
	s.mu.Lock()
}

// failUpdate abandons an update between lockUpdate and updateTxn: it
// releases whatever lockUpdate took and passes err through.
func (s *Store) failUpdate(d Durability, err error) error {
	s.mu.Unlock()
	if d == DurabilitySync && s.wp != nil {
		s.commitMu.Unlock()
	}
	return err
}

// finish completes a sealed update according to the durability mode. It
// must be called WITHOUT s.mu held — this is where the flush I/O happens
// (inline for DurabilitySync, on the background flusher for the others).
func (s *Store) finish(d Durability, c *Commit, err error) (*Commit, error) {
	if d == DurabilitySync && s.wp != nil {
		defer s.commitMu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	if c.cw == nil {
		return c, nil
	}
	switch d {
	case DurabilityAsync:
		s.wp.ScheduleFlush()
		return c, nil
	case DurabilityGrouped:
		s.wp.ScheduleFlush()
		return c, c.Wait()
	default: // DurabilitySync: the committer is its own flusher.
		// Flush's return is authoritative: the waiter resolves at the log
		// sync, before the apply/checkpoint tail, and a tail failure
		// poisons the store — a Sync caller must hear about it here.
		if err := s.wp.Flush(); err != nil {
			return c, err
		}
		return c, c.Wait()
	}
}

// AwaitDurable blocks until every update committed so far is durable — the
// collective barrier for DurabilityAsync (and a no-op for stores without a
// WAL or with nothing pending).
func (s *Store) AwaitDurable() error {
	if s.wp == nil {
		return nil
	}
	return s.wp.FlushBarrier()
}

// noteAbort poisons the store when the pager reports that an abort
// discarded buffered writes. The caller must hold the write lock.
func (s *Store) noteAbort(tp storage.TxnPager) {
	type dirtyReporter interface{ LastAbortDirty() bool }
	if d, ok := tp.(dirtyReporter); ok && d.LastAbortDirty() {
		s.failed.Store(true)
	}
}

// SetAccess grants or revokes the subject's access to node n (or, with
// wholeSubtree, to n's entire subtree) under the mode — the §3.4
// accessibility updates, applied in place to the affected blocks only.
// Durability follows StoreOptions.Durability.
func (s *Store) SetAccess(subject, mode string, n NodeID, allowed, wholeSubtree bool) error {
	_, err := s.setAccess(s.opts.Durability, subject, mode, n, allowed, wholeSubtree)
	return err
}

// SetAccessAsync is SetAccess with DurabilityAsync regardless of the
// store's configured mode: it returns as soon as the update is applied and
// sealed (already visible to queries), and the Commit handle reports when
// it is durable. The motivating workload — bursts of ACL toggles from many
// users — commits through here and shares one group flush.
func (s *Store) SetAccessAsync(subject, mode string, n NodeID, allowed, wholeSubtree bool) (*Commit, error) {
	return s.setAccess(DurabilityAsync, subject, mode, n, allowed, wholeSubtree)
}

func (s *Store) setAccess(d Durability, subject, mode string, n NodeID, allowed, wholeSubtree bool) (*Commit, error) {
	s.lockUpdate(d)
	bit, err := s.combinedBit(subject, mode)
	if err != nil {
		return nil, s.failUpdate(d, err)
	}
	c, err := s.updateTxn(func() error {
		if wholeSubtree {
			return s.ss.SetSubtreeAccess(xmltree.NodeID(n), bit, allowed)
		}
		return s.ss.SetNodeAccess(xmltree.NodeID(n), bit, allowed)
	})
	if err == nil {
		s.publish(false)
	}
	s.mu.Unlock()
	return s.finish(d, c, err)
}

// AddUser registers a new user with no access anywhere — a codebook-only
// operation (§3.4).
func (s *Store) AddUser(name string) error {
	return s.addSubject(name, false, "")
}

// AddUserLike registers a new user whose rights match an existing
// subject's in every mode.
func (s *Store) AddUserLike(name, like string) error {
	return s.addSubject(name, false, like)
}

// AddGroup registers a new group with no access anywhere.
func (s *Store) AddGroup(name string) error {
	return s.addSubject(name, true, "")
}

func (s *Store) addSubject(name string, group bool, like string) error {
	d := s.opts.Durability
	s.lockUpdate(d)
	var likeID acl.SubjectID = acl.InvalidSubject
	if like != "" {
		var err error
		likeID, err = s.subject(like)
		if err != nil {
			return s.failUpdate(d, err)
		}
	}
	// Codebook-only update: no pages change, but the commit still journals
	// the refreshed metadata sidecar so the new subject survives a crash.
	s.invalidateMetaHead()
	c, err := s.updateTxn(func() error {
		dir := s.mutableDir()
		var err error
		if group {
			_, err = dir.AddGroup(name)
		} else {
			_, err = dir.AddUser(name)
		}
		if err != nil {
			return err
		}
		numModes := len(s.modes)
		for m := 0; m < numModes; m++ {
			if likeID == acl.InvalidSubject {
				s.ss.AddSubject()
			} else {
				if _, err := s.ss.AddSubjectLike(acl.SubjectID(int(likeID)*numModes + m)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err == nil {
		s.publish(false)
	}
	s.mu.Unlock()
	_, err = s.finish(s.opts.Durability, c, err)
	return err
}

// AddMember records a group membership on the sealed store (affects only
// effective-rights expansion, not the encoding).
func (s *Store) AddMember(group, member string) error {
	d := s.opts.Durability
	s.lockUpdate(d)
	g, err := s.subject(group)
	if err != nil {
		return s.failUpdate(d, err)
	}
	m, err := s.subject(member)
	if err != nil {
		return s.failUpdate(d, err)
	}
	// Directory-only update; the commit journals the refreshed sidecar.
	s.invalidateMetaHead()
	c, err := s.updateTxn(func() error { return s.mutableDir().AddMember(g, m) })
	if err == nil {
		s.publish(false)
	}
	s.mu.Unlock()
	_, err = s.finish(s.opts.Durability, c, err)
	return err
}

// InsertXML inserts the XML fragment as a new child of parent (after the
// existing child `after`, or first when after is InvalidNode). Per the
// paper's update model the inserted nodes arrive with access controls:
// every fragment node receives the access control list currently in force
// at the parent node.
func (s *Store) InsertXML(parent, after NodeID, fragment string) error {
	d := s.opts.Durability
	s.lockUpdate(d)
	frag, err := xmltree.ParseString(fragment)
	if err != nil {
		return s.failUpdate(d, err)
	}
	code, err := s.ss.Store().AccessCodeAt(xmltree.NodeID(parent))
	if err != nil {
		return s.failUpdate(d, err)
	}
	row := s.ss.Codebook().ACL(code)
	fm := acl.NewMatrix(frag.Len(), s.ss.Codebook().NumSubjects())
	for n := 0; n < frag.Len(); n++ {
		fm.SetRow(xmltree.NodeID(n), row)
	}
	s.invalidateMetaHead()
	c, err := s.updateTxn(func() error {
		return s.ss.InsertSubtree(xmltree.NodeID(parent), xmltree.NodeID(after), frag, fm)
	})
	if err == nil {
		s.publish(true)
	}
	s.mu.Unlock()
	_, err = s.finish(s.opts.Durability, c, err)
	return err
}

// Delete removes node n's subtree.
func (s *Store) Delete(n NodeID) error {
	s.lockUpdate(s.opts.Durability)
	s.invalidateMetaHead()
	c, err := s.updateTxn(func() error { return s.ss.DeleteSubtree(xmltree.NodeID(n)) })
	if err == nil {
		s.publish(true)
	}
	s.mu.Unlock()
	_, err = s.finish(s.opts.Durability, c, err)
	return err
}

// Move relocates node n's subtree under newParent (after the sibling
// `after`, or first when InvalidNode), preserving its access controls.
func (s *Store) Move(n, newParent, after NodeID) error {
	s.lockUpdate(s.opts.Durability)
	s.invalidateMetaHead()
	c, err := s.updateTxn(func() error {
		return s.ss.MoveSubtree(xmltree.NodeID(n), xmltree.NodeID(newParent), xmltree.NodeID(after))
	})
	if err == nil {
		s.publish(true)
	}
	s.mu.Unlock()
	_, err = s.finish(s.opts.Durability, c, err)
	return err
}

// Vacuum performs the paper's lazy redundancy correction (§3.4): it
// rewrites the embedded access codes canonically, merging transitions made
// redundant by earlier updates and reclaiming duplicate codebook entries.
// It is a full-document maintenance pass. Node IDs and extents are
// unchanged, so published indexes stay shared.
func (s *Store) Vacuum() error {
	s.lockUpdate(s.opts.Durability)
	s.invalidateMetaHead()
	c, err := s.updateTxn(s.ss.Vacuum)
	if err == nil {
		s.publish(false)
	}
	s.mu.Unlock()
	_, err = s.finish(s.opts.Durability, c, err)
	return err
}

// NumNodes returns the document's node count (of the current snapshot).
func (s *Store) NumNodes() int { return s.cur.Load().st.NumNodes() }

// Tag returns the tag of node n.
func (s *Store) Tag(n NodeID) (string, error) {
	r, err := s.acquire()
	if err != nil {
		return "", err
	}
	defer s.release(r)
	st := r.sn.st
	code, err := st.Tag(xmltree.NodeID(n))
	if err != nil {
		return "", err
	}
	return st.TagName(code), nil
}

// Value returns the text value of node n ("" when values are not stored).
func (s *Store) Value(n NodeID) (string, error) {
	r, err := s.acquire()
	if err != nil {
		return "", err
	}
	defer s.release(r)
	vs := r.sn.st.Values()
	if vs == nil {
		return "", nil
	}
	return vs.Value(xmltree.NodeID(n))
}

// Modes lists the registered action mode names.
func (s *Store) Modes() []string { return append([]string(nil), s.modes...) }

// Subjects lists the subject names in SubjectID order (of the current
// snapshot's directory).
func (s *Store) Subjects() []string {
	dir := s.cur.Load().dir
	out := make([]string, dir.Len())
	for i := range out {
		out[i] = dir.Name(acl.SubjectID(i))
	}
	return out
}

// Stats summarizes the physical representation, the quantities of the
// paper's §5.1 storage analysis.
type Stats struct {
	Nodes           int
	StructurePages  int
	Transitions     int
	CodebookEntries int
	CodebookBytes   int
	DirectoryBytes  int
	// SummaryBytes is the in-memory footprint of the per-block path-class
	// bitsets driving structure-aware page skipping (part of the next).
	SummaryBytes int
	// PathSummaryBytes is the in-memory footprint of the path summary
	// (one node per distinct root-to-tag path plus per-block class sets)
	// driving path routing.
	PathSummaryBytes int
	Pool             storage.PoolStats
	IO               storage.IOStats
	// DecodeCache reports the decoded-block cache's counters.
	DecodeCache CacheStats
}

// CacheStats mirror the decoded-block cache counters: hit/miss/eviction
// counts plus the cache's current and budgeted size in (estimated) bytes.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
	Budget    int64
}

// SkipStats count the page reads one query avoided, by cause: pages
// skipped because the directory proves them fully inaccessible to the
// subject (Access), pages skipped because the path summary places none of
// the pattern's classes on them (Struct), and root candidates rejected
// from the directory alone (Candidates).
// PathCandidates counts candidates the path summary rejected before any
// I/O, PathClasses the access verdicts it resolved at the path-class
// level, and PathEmpty is 1 when it proved the query empty outright.
// JoinCandidates counts the candidates the structural semi-join on the index
// postings removed after that: no posting of a joined subtree lies where
// they could pair with it.
type SkipStats struct {
	AccessPages    int64
	StructPages    int64
	Candidates     int64
	PathCandidates int64
	JoinCandidates int64
	PathClasses    int64
	PathEmpty      int64
}

// Stats collects the store's current statistics against one pinned
// snapshot. Note that the transition count requires a full walk of the
// structure store, which itself runs through the buffer pool; use
// PoolStats or DecodeCacheStats for cheap, walk-free counters around
// individual queries.
func (s *Store) Stats() (Stats, error) {
	r, err := s.acquire()
	if err != nil {
		return Stats{}, err
	}
	defer s.release(r)
	sn := r.sn
	tr, err := sn.ss.TransitionCount()
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Nodes:            sn.st.NumNodes(),
		StructurePages:   sn.st.NumPages(),
		Transitions:      tr,
		CodebookEntries:  sn.ss.Codebook().Len(),
		CodebookBytes:    sn.ss.Codebook().Bytes(),
		DirectoryBytes:   sn.st.DirectoryBytes(),
		SummaryBytes:     sn.st.SummaryBytes(),
		PathSummaryBytes: sn.st.PathSummaryBytes(),
		Pool:             s.pool.Stats(),
		IO:               s.pool.Pager().Stats(),
		DecodeCache:      s.DecodeCacheStats(),
	}, nil
}

// PoolStats returns the buffer pool's counters without touching any page —
// safe to sample before and after a query to measure its physical reads.
func (s *Store) PoolStats() storage.PoolStats { return s.pool.Stats() }

// PageSize returns the store's page size in bytes.
func (s *Store) PageSize() int { return s.opts.PageSize }

// PoolBufferedBytes returns the bytes currently held by the buffer pool
// (buffered frames × page size). The tenant registry samples it to enforce
// a global byte budget across stores.
func (s *Store) PoolBufferedBytes() int64 {
	return int64(s.pool.Buffered()) * int64(s.opts.PageSize)
}

// PoolPinned returns the number of outstanding page pins — zero once every
// query, cursor and snapshot against the store has finished.
func (s *Store) PoolPinned() int { return s.pool.Pinned() }

// SetPoolCapacity re-budgets the buffer pool to at most frames pages,
// evicting (and writing back) LRU frames immediately. The tenant registry
// uses it to divide one global byte budget across however many stores are
// open; it is safe to call while queries and updates run.
func (s *Store) SetPoolCapacity(frames int) error {
	return s.pool.SetCapacity(frames)
}

// SetDecodeCacheBudget re-budgets the decoded-block cache at runtime; ≤ 0
// disables decode caching and drops the current contents.
func (s *Store) SetDecodeCacheBudget(budget int64) {
	s.ss.Store().SetDecodeCacheBudget(budget)
}

// DecodeCacheStats returns the decoded-block cache's counters without
// touching any page.
func (s *Store) DecodeCacheStats() CacheStats {
	ds := s.ss.Store().DecodeCacheStats()
	return CacheStats{
		Hits:      ds.Hits,
		Misses:    ds.Misses,
		Evictions: ds.Evictions,
		Entries:   ds.Entries,
		Bytes:     ds.Bytes,
		Budget:    ds.Budget,
	}
}

// Close flushes and releases the store; sealed-but-unflushed async commits
// are flushed on the way out (their Commit handles resolve). Callers must
// finish queries and close cursors and snapshots first. A poisoned store
// (see Failed) is closed without flushing: its buffers were built against
// discarded batch state, and writing them outside a batch would tear the
// on-disk image that WAL recovery otherwise guarantees intact.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failedNow() {
		return s.pool.Pager().Close()
	}
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	return s.pool.Pager().Close()
}
