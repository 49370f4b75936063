package obs

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies one trace event. Span-ish kinds (parse, compile,
// open) carry a duration; page kinds carry the page and the
// evidence that justified reading or skipping it.
type EventKind string

// Trace event kinds. Page events are the heart of the trace: together they
// account for every page the query pinned or skipped, and the invariant
// tests hold them against the buffer pool's own counters.
const (
	// EvParse covers query parsing (recorded by the facade).
	EvParse EventKind = "parse"
	// EvCompile covers skip-mask compilation (in-memory only, no I/O).
	EvCompile EventKind = "compile_skip_mask"
	// EvOpen covers building the cursor pipeline.
	EvOpen EventKind = "open_pipeline"
	// EvPagePin records one buffer-pool page acquisition (Hit tells
	// whether it was served without physical I/O). Exactly one EvPagePin
	// is recorded per pool Get, so trace pins == pool pin count.
	EvPagePin EventKind = "page_pin"
	// EvPageDecode records an actual block decode (absent when the decoded
	// form came from the decode cache).
	EvPageDecode EventKind = "page_decode"
	// EvPageSkipAccess records a scan block skipped because the subject
	// view's deny bitmap proves every node in it inaccessible (§3.3).
	EvPageSkipAccess EventKind = "page_skip_access"
	// EvCandidateReject records a root candidate rejected from the deny
	// bitmap alone, before any page was read for it.
	EvCandidateReject EventKind = "candidate_reject"
	// EvPathEmpty marks a query proven empty at compile time — the path
	// summary admits no embedding of the pattern (or every embeddable
	// class is uniformly denied to the view) — with zero pages pinned.
	EvPathEmpty EventKind = "path_empty"
	// EvJoinProbe records one structural-join probe (STD or ε-STD).
	EvJoinProbe EventKind = "join_probe"
	// EvEmit records one answer leaving the pipeline.
	EvEmit EventKind = "emit"
	// EvDone marks the end of the drain (recorded by the facade).
	EvDone EventKind = "done"
	// EvSnapshotPin records the query pinning its MVCC snapshot; N carries
	// the snapshot's sequence number.
	EvSnapshotPin EventKind = "snapshot_pin"
	// EvSnapshotUnpin records the pin being released; N carries the
	// sequence number, Dur how long the pin was held.
	EvSnapshotUnpin EventKind = "snapshot_unpin"
)

// TraceEvent is one timestamped entry of a query trace.
type TraceEvent struct {
	// At is the offset from the trace's start.
	At time.Duration `json:"at_us"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Op names the plan operator that recorded the event ("" when the
	// event was recorded outside any operator — facade work such as
	// parsing or answer conversion). Stamped by handles from ForOp; the
	// ANALYZE fold partitions events into per-operator buckets by it.
	Op string `json:"op,omitempty"`
	// Page is the page touched or skipped (-1 when not page-related).
	Page int64 `json:"page,omitempty"`
	// Node is the data node involved (-1 when not node-related).
	Node int64 `json:"node,omitempty"`
	// Hit marks a pool hit on pin events.
	Hit bool `json:"hit,omitempty"`
	// Dur is the span duration for span-ish events.
	Dur time.Duration `json:"dur_us,omitempty"`
	// N carries an event-specific count (pairs of a probe, a snapshot's
	// sequence number).
	N int64 `json:"n,omitempty"`
}

// DefaultTraceLimit bounds a trace's event count; past it events are
// dropped (counted in Dropped) rather than growing without bound on huge
// scans.
const DefaultTraceLimit = 1 << 20

// Trace is one query's event log. It is safe for concurrent use: every
// append goes through one mutex. A nil *Trace is
// valid and records nothing, so call sites need no guards beyond the usual
// pointer check when building events is itself costly.
//
// Two cheap derived forms exist. ForOp returns a handle sharing the same
// event log that stamps every event it records with an operator label, so
// page pins performed under an operator's context attribute to that
// operator. NewCountingTrace returns a trace that keeps only atomic
// page/skip/emit counters and records no events — the always-on flight
// recorder's per-query accounting without per-event cost.
type Trace struct {
	mu      sync.Mutex
	start   time.Time
	limit   int
	events  []TraceEvent
	dropped int64
	// dropCt, when set, is incremented once per dropped event so drops
	// surface in the metrics registry, not only inside the dump.
	dropCt *Counter
	// root is non-nil on ForOp handles and points at the trace owning the
	// event log; op is the label such a handle stamps on its events.
	root *Trace
	op   string
	// counting switches the trace to counter-only mode: add keeps the
	// atomic tallies below and discards the event itself.
	counting                     bool
	cPins, cHits, cSkips, cEmits atomic.Int64
}

// NewTrace returns an empty trace starting now.
func NewTrace() *Trace {
	return &Trace{start: time.Now(), limit: DefaultTraceLimit}
}

// NewTraceWithLimit returns an empty trace that drops events past limit —
// for tests exercising the drop path without recording a million events.
func NewTraceWithLimit(limit int) *Trace {
	if limit < 0 {
		limit = 0
	}
	return &Trace{start: time.Now(), limit: limit}
}

// NewCountingTrace returns a trace in counter-only mode: page pins, hits,
// skips and emits are tallied atomically but no events are retained.
// Events, WriteTo and Dropped see an empty trace; the count accessors
// (PageReads, PageHits, PageSkips, Emits, Counts) read the tallies.
func NewCountingTrace() *Trace {
	return &Trace{start: time.Now(), counting: true}
}

// base returns the trace owning the event log (itself, or the root of a
// ForOp handle).
func (t *Trace) base() *Trace {
	if t.root != nil {
		return t.root
	}
	return t
}

// ForOp returns a handle over the same trace that stamps op on every event
// it records. Handles are cheap (one allocation) and safe to share; a nil
// receiver returns nil.
func (t *Trace) ForOp(op string) *Trace {
	if t == nil || op == "" {
		return t
	}
	return &Trace{root: t.base(), op: op}
}

// SetDropCounter arranges for c to be incremented once per event dropped
// past the trace limit, surfacing drops in the metrics registry.
func (t *Trace) SetDropCounter(c *Counter) {
	if t == nil {
		return
	}
	b := t.base()
	b.mu.Lock()
	b.dropCt = c
	b.mu.Unlock()
}

// add appends one event, stamping it.
func (t *Trace) add(e TraceEvent) {
	if t == nil {
		return
	}
	b := t.base()
	if b.counting {
		switch e.Kind {
		case EvPagePin:
			b.cPins.Add(1)
			if e.Hit {
				b.cHits.Add(1)
			}
		case EvPageSkipAccess:
			b.cSkips.Add(1)
		case EvEmit:
			b.cEmits.Add(1)
		}
		return
	}
	if t.op != "" {
		e.Op = t.op
	}
	now := time.Since(b.start)
	b.mu.Lock()
	if len(b.events) >= b.limit {
		b.dropped++
		c := b.dropCt
		b.mu.Unlock()
		if c != nil {
			c.Inc()
		}
		return
	}
	e.At = now
	b.events = append(b.events, e)
	b.mu.Unlock()
}

// Mark records a point event.
func (t *Trace) Mark(kind EventKind) {
	t.add(TraceEvent{Kind: kind, Page: -1, Node: -1})
}

// Span starts a span of the given kind and returns the function that ends
// it, recording one event carrying the span's duration.
func (t *Trace) Span(kind EventKind) func() {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() {
		t.add(TraceEvent{Kind: kind, Page: -1, Node: -1, Dur: time.Since(begin)})
	}
}

// PagePin records one buffer-pool page acquisition.
func (t *Trace) PagePin(page int64, hit bool) {
	t.add(TraceEvent{Kind: EvPagePin, Page: page, Node: -1, Hit: hit})
}

// PageDecode records an actual decode of a block (a decode-cache miss).
func (t *Trace) PageDecode(page int64) {
	t.add(TraceEvent{Kind: EvPageDecode, Page: page, Node: -1})
}

// PageSkip records a scan block passed over without I/O because the deny
// bitmap proves it dead.
func (t *Trace) PageSkip(page int64) {
	t.add(TraceEvent{Kind: EvPageSkipAccess, Page: page, Node: -1})
}

// CandidateReject records a root candidate rejected pre-I/O.
func (t *Trace) CandidateReject(node int64, page int64) {
	t.add(TraceEvent{Kind: EvCandidateReject, Page: page, Node: node})
}

// JoinProbe records one structural-join probe and its pair count.
func (t *Trace) JoinProbe(node int64, pairs int) {
	t.add(TraceEvent{Kind: EvJoinProbe, Page: -1, Node: node, N: int64(pairs)})
}

// Emit records one answer leaving the pipeline.
func (t *Trace) Emit(node int64) {
	t.add(TraceEvent{Kind: EvEmit, Page: -1, Node: node})
}

// SnapshotPin records the query pinning snapshot seq.
func (t *Trace) SnapshotPin(seq uint64) {
	t.add(TraceEvent{Kind: EvSnapshotPin, Page: -1, Node: -1, N: int64(seq)})
}

// SnapshotUnpin records the release of the pin on snapshot seq after
// holding it for held.
func (t *Trace) SnapshotUnpin(seq uint64, held time.Duration) {
	t.add(TraceEvent{Kind: EvSnapshotUnpin, Page: -1, Node: -1, N: int64(seq), Dur: held})
}

// Events returns a copy of the recorded events.
func (t *Trace) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	b := t.base()
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]TraceEvent, len(b.events))
	copy(out, b.events)
	return out
}

// Dropped returns how many events were discarded past the trace limit
// (0 means the trace is complete).
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	b := t.base()
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// PageReads counts page-pin events — one per buffer-pool Get the traced
// work performed.
func (t *Trace) PageReads() int64 {
	if t == nil {
		return 0
	}
	if b := t.base(); b.counting {
		return b.cPins.Load()
	}
	return t.countKinds(EvPagePin)
}

// PageHits counts page-pin events served from the pool without physical
// I/O.
func (t *Trace) PageHits() int64 {
	if t == nil {
		return 0
	}
	b := t.base()
	if b.counting {
		return b.cHits.Load()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	for _, e := range b.events {
		if e.Kind == EvPagePin && e.Hit {
			n++
		}
	}
	return n
}

// PageSkips counts page-skip events.
func (t *Trace) PageSkips() int64 {
	if t == nil {
		return 0
	}
	if b := t.base(); b.counting {
		return b.cSkips.Load()
	}
	return t.countKinds(EvPageSkipAccess)
}

// Emits counts answers that left the pipeline.
func (t *Trace) Emits() int64 {
	if t == nil {
		return 0
	}
	if b := t.base(); b.counting {
		return b.cEmits.Load()
	}
	return t.countKinds(EvEmit)
}

// PagesConsidered counts every page decision in the trace: pins plus
// skips. The metrics-invariant tests hold
// PageReads + PageSkips == PagesConsidered against the registry's
// independently maintained counters.
func (t *Trace) PagesConsidered() int64 {
	if t == nil {
		return 0
	}
	if b := t.base(); b.counting {
		return b.cPins.Load() + b.cSkips.Load()
	}
	return t.countKinds(EvPagePin, EvPageSkipAccess)
}

// Counts returns the trace's page accounting in one pass: pins, pool
// hits, skips and emits. It works in both event and counting
// mode and is what the flight recorder folds into a query digest.
func (t *Trace) Counts() (pins, hits, skips, emits int64) {
	if t == nil {
		return
	}
	b := t.base()
	if b.counting {
		return b.cPins.Load(), b.cHits.Load(), b.cSkips.Load(), b.cEmits.Load()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.events {
		switch e.Kind {
		case EvPagePin:
			pins++
			if e.Hit {
				hits++
			}
		case EvPageSkipAccess:
			skips++
		case EvEmit:
			emits++
		}
	}
	return
}

func (t *Trace) countKinds(kinds ...EventKind) int64 {
	if t == nil {
		return 0
	}
	b := t.base()
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	for _, e := range b.events {
		for _, k := range kinds {
			if e.Kind == k {
				n++
				break
			}
		}
	}
	return n
}

// WriteTo dumps the trace as one event per line with microsecond offsets —
// the slow-query-log format.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	if t == nil {
		return 0, nil
	}
	b := t.base()
	b.mu.Lock()
	events := make([]TraceEvent, len(b.events))
	copy(events, b.events)
	dropped := b.dropped
	limit := b.limit
	b.mu.Unlock()
	var total int64
	p := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	for _, e := range events {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%10.1fus %-18s", float64(e.At.Nanoseconds())/1e3, e.Kind)
		if e.Op != "" {
			fmt.Fprintf(&sb, " op=%s", e.Op)
		}
		if e.Page >= 0 {
			fmt.Fprintf(&sb, " page=%d", e.Page)
		}
		if e.Node >= 0 {
			fmt.Fprintf(&sb, " node=%d", e.Node)
		}
		if e.Kind == EvPagePin {
			fmt.Fprintf(&sb, " hit=%v", e.Hit)
		}
		if e.Dur > 0 {
			fmt.Fprintf(&sb, " dur=%v", e.Dur)
		}
		if e.N > 0 {
			fmt.Fprintf(&sb, " n=%d", e.N)
		}
		if err := p("%s\n", sb.String()); err != nil {
			return total, err
		}
	}
	if dropped > 0 {
		if err := p("(%d events dropped past the %d-event limit)\n", dropped, limit); err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the trace via WriteTo.
func (t *Trace) String() string {
	var sb strings.Builder
	t.WriteTo(&sb)
	return sb.String()
}

// traceKey is the context key carrying the active trace.
type traceKey struct{}

// WithTrace returns a context carrying t; the buffer pool and decode layer
// record their page events through it, so every pin performed under this
// context is attributed to the trace no matter which goroutine performs
// it.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFromContext returns the context's trace, or nil. The nil return is
// the tracing-disabled fast path: one context lookup, no allocation.
func TraceFromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
