package securexml

import (
	"io"

	"dolxml/internal/obs"
)

// QueryTrace records one query's timestamped event log: spans (parse,
// skip-mask compile, pipeline open, join open), one event per page pinned
// or skipped (with the evidence that justified it), candidate rejections,
// join probes and emitted answers. Attach it via
// QueryOptions.Trace; a single trace may be reused across queries to
// accumulate events, but is normally per-query. The per-page events
// exactly account for every buffer-pool pin the query performed:
// PageReads() equals the pool's Gets delta and PageReads()+PageSkips()
// equals PagesConsidered().
type QueryTrace struct {
	t *obs.Trace
}

// NewQueryTrace returns an empty trace starting now.
func NewQueryTrace() *QueryTrace { return &QueryTrace{t: obs.NewTrace()} }

// NewCountingQueryTrace returns a trace that keeps only atomic counters —
// page pins, pool hits, skips by cause, emits — and retains no events.
// It is what the store attaches to untraced queries for the flight
// recorder; attach one explicitly to observe a query's page accounting
// with event-log cost excluded.
func NewCountingQueryTrace() *QueryTrace { return &QueryTrace{t: obs.NewCountingTrace()} }

// inner returns the wrapped trace (nil-safe).
func (qt *QueryTrace) inner() *obs.Trace {
	if qt == nil {
		return nil
	}
	return qt.t
}

// PageReads counts page-pin events — one per buffer-pool page acquisition
// the traced query performed.
func (qt *QueryTrace) PageReads() int64 { return qt.inner().PageReads() }

// PageHits counts the page pins served from the buffer pool's resident
// set — the hit share of PageReads.
func (qt *QueryTrace) PageHits() int64 { return qt.inner().PageHits() }

// PageSkips counts pages the query skipped without I/O, both causes.
func (qt *QueryTrace) PageSkips() int64 { return qt.inner().PageSkips() }

// Emits counts answers emitted by the traced query's pipeline.
func (qt *QueryTrace) Emits() int64 { return qt.inner().Emits() }

// PagesConsidered counts every page decision: reads plus skips.
func (qt *QueryTrace) PagesConsidered() int64 { return qt.inner().PagesConsidered() }

// Dropped returns how many events were discarded past the trace's event
// limit; 0 means the trace is complete.
func (qt *QueryTrace) Dropped() int64 { return qt.inner().Dropped() }

// WriteTo dumps the trace, one event per line with microsecond offsets.
func (qt *QueryTrace) WriteTo(w io.Writer) (int64, error) { return qt.inner().WriteTo(w) }

// String renders the trace via WriteTo.
func (qt *QueryTrace) String() string { return qt.inner().String() }

// TraceEvent is one entry of a query trace.
type TraceEvent struct {
	// AtMicros is the offset from the trace's start, in microseconds.
	AtMicros int64 `json:"at_us"`
	// Kind classifies the event: parse, compile_skip_mask, open_pipeline,
	// page_pin, page_decode, page_skip_access, page_skip_struct,
	// candidate_reject, join_probe, emit, done.
	Kind string `json:"kind"`
	// Op names the plan operator the event belongs to (scan0, join1,
	// filter, dedup, limit, output); empty for query-level events.
	Op string `json:"op,omitempty"`
	// Page is the page touched or skipped (-1 when not page-related).
	Page int64 `json:"page,omitempty"`
	// Node is the data node involved (-1 when not node-related).
	Node int64 `json:"node,omitempty"`
	// Hit marks a buffer-pool hit on page_pin events.
	Hit bool `json:"hit,omitempty"`
	// DurMicros is the span duration for span events, in microseconds.
	DurMicros int64 `json:"dur_us,omitempty"`
	// N carries an event-specific count (join pairs, merged tuples).
	N int64 `json:"n,omitempty"`
}

// Events returns a copy of the recorded events in order.
func (qt *QueryTrace) Events() []TraceEvent {
	evs := qt.inner().Events()
	out := make([]TraceEvent, len(evs))
	for i, e := range evs {
		out[i] = TraceEvent{
			AtMicros:  e.At.Microseconds(),
			Kind:      string(e.Kind),
			Op:        e.Op,
			Page:      e.Page,
			Node:      e.Node,
			Hit:       e.Hit,
			DurMicros: e.Dur.Microseconds(),
			N:         e.N,
		}
	}
	return out
}
