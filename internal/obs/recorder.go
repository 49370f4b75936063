package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Recorder is the always-on query flight recorder: a bounded ring of the
// most recent per-query digests, per-fingerprint aggregates keyed by the
// normalized query fingerprint (pattern + semantics + options), and the
// top-K slowest queries with their rendered traces retained. Everything is
// fixed-size — recording is one short critical section per query and the
// memory bound is set at construction — so it stays on in production the
// same way the metrics registry does.
type Recorder struct {
	mu      sync.Mutex
	ringCap int
	ring    []QueryDigest // ring buffer, ring[next] is the oldest slot
	next    int
	total   int64
	seq     int64
	maxFP   int
	byFP    map[string]*FingerprintStats
	topK    int
	slowest []RetainedQuery // sorted slowest-first, len <= topK
	evicted int64
}

// Recorder bounds. The defaults keep a recorder under ~1 MiB even with
// every retained trace rendered.
const (
	DefaultRecorderRing         = 256
	DefaultRecorderFingerprints = 128
	DefaultRecorderTopK         = 8
)

// QueryDigest is one query's flight-recorder entry.
type QueryDigest struct {
	// Fingerprint is the normalized query identity: canonical pattern
	// render plus semantics and the options that change the plan.
	Fingerprint string `json:"fingerprint"`
	// XPath is the raw query text as submitted.
	XPath string `json:"xpath,omitempty"`
	// At is the query's completion time (unix microseconds).
	At int64 `json:"at_us"`
	// LatencyUs is the end-to-end facade latency.
	LatencyUs int64 `json:"latency_us"`
	// Pages / Hits / SkippedAccess are the query's page accounting (from
	// its trace; see Trace.Counts).
	Pages         int64 `json:"pages"`
	Hits          int64 `json:"hits"`
	SkippedAccess int64 `json:"skipped_access"`
	// Answers is the number of matches produced.
	Answers int64 `json:"answers"`
	// Err marks a failed query.
	Err bool `json:"err,omitempty"`
}

// FingerprintStats aggregates every recorded query sharing one
// fingerprint.
type FingerprintStats struct {
	Fingerprint   string `json:"fingerprint"`
	Count         int64  `json:"count"`
	Errors        int64  `json:"errors"`
	TotalUs       int64  `json:"total_us"`
	MaxUs         int64  `json:"max_us"`
	LastUs        int64  `json:"last_us"`
	Pages         int64  `json:"pages"`
	Hits          int64  `json:"hits"`
	SkippedAccess int64  `json:"skipped_access"`
	Answers       int64  `json:"answers"`
	LastAt        int64  `json:"last_at_us"`
	seq           int64
}

// RetainedQuery is one of the top-K slowest queries, with its trace dump
// retained when the query ran with an event trace.
type RetainedQuery struct {
	Digest QueryDigest `json:"digest"`
	Trace  string      `json:"trace,omitempty"`
}

// NewRecorder returns a recorder with the given bounds; zero or negative
// values take the defaults.
func NewRecorder(ring, fingerprints, topK int) *Recorder {
	if ring <= 0 {
		ring = DefaultRecorderRing
	}
	if fingerprints <= 0 {
		fingerprints = DefaultRecorderFingerprints
	}
	if topK <= 0 {
		topK = DefaultRecorderTopK
	}
	return &Recorder{
		ringCap: ring,
		maxFP:   fingerprints,
		byFP:    make(map[string]*FingerprintStats),
		topK:    topK,
	}
}

// Record folds one completed query into the recorder. tr may be nil (or a
// counting trace); when it carries events and the query qualifies for the
// top-K slowest, the rendered dump is retained. The render happens outside
// the recorder lock.
func (r *Recorder) Record(d QueryDigest, tr *Trace) {
	if r == nil {
		return
	}
	if d.At == 0 {
		d.At = time.Now().UnixMicro()
	}
	var dump string
	if tr != nil && r.qualifies(d.LatencyUs) {
		dump = tr.String()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	r.seq++
	// Ring of recent queries.
	if len(r.ring) < r.ringCap {
		r.ring = append(r.ring, d)
	} else {
		r.ring[r.next] = d
		r.next = (r.next + 1) % r.ringCap
	}
	// Per-fingerprint aggregates, evicting the least recently seen
	// fingerprint when full.
	fp := r.byFP[d.Fingerprint]
	if fp == nil {
		if len(r.byFP) >= r.maxFP {
			var victim string
			min := int64(1<<62 - 1)
			for k, v := range r.byFP {
				if v.seq < min {
					min, victim = v.seq, k
				}
			}
			delete(r.byFP, victim)
			r.evicted++
		}
		fp = &FingerprintStats{Fingerprint: d.Fingerprint}
		r.byFP[d.Fingerprint] = fp
	}
	fp.Count++
	if d.Err {
		fp.Errors++
	}
	fp.TotalUs += d.LatencyUs
	if d.LatencyUs > fp.MaxUs {
		fp.MaxUs = d.LatencyUs
	}
	fp.LastUs = d.LatencyUs
	fp.Pages += d.Pages
	fp.Hits += d.Hits
	fp.SkippedAccess += d.SkippedAccess
	fp.Answers += d.Answers
	fp.LastAt = d.At
	fp.seq = r.seq
	// Top-K slowest.
	if len(r.slowest) < r.topK || d.LatencyUs > r.slowest[len(r.slowest)-1].Digest.LatencyUs {
		r.slowest = append(r.slowest, RetainedQuery{Digest: d, Trace: dump})
		sort.SliceStable(r.slowest, func(i, j int) bool {
			return r.slowest[i].Digest.LatencyUs > r.slowest[j].Digest.LatencyUs
		})
		if len(r.slowest) > r.topK {
			r.slowest = r.slowest[:r.topK]
		}
	}
}

// qualifies reports whether a query with the given latency would enter the
// top-K slowest right now (the pre-check that decides whether Record
// renders the trace).
func (r *Recorder) qualifies(latencyUs int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.slowest) < r.topK || latencyUs > r.slowest[len(r.slowest)-1].Digest.LatencyUs
}

// RecorderSnapshot is a point-in-time copy of the recorder, ready for JSON
// encoding (the /debug/queries payload).
type RecorderSnapshot struct {
	// Total counts every query ever recorded (the ring holds only the
	// most recent).
	Total int64 `json:"total"`
	// FingerprintsEvicted counts aggregate rows dropped past the
	// fingerprint bound.
	FingerprintsEvicted int64 `json:"fingerprints_evicted,omitempty"`
	// Fingerprints is sorted by total latency, heaviest first.
	Fingerprints []FingerprintStats `json:"fingerprints"`
	// Recent is the ring's contents, oldest first.
	Recent []QueryDigest `json:"recent"`
	// Slowest is the top-K by latency, slowest first.
	Slowest []RetainedQuery `json:"slowest"`
}

// Snapshot copies the recorder's state.
func (r *Recorder) Snapshot() RecorderSnapshot {
	if r == nil {
		return RecorderSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RecorderSnapshot{
		Total:               r.total,
		FingerprintsEvicted: r.evicted,
		Fingerprints:        make([]FingerprintStats, 0, len(r.byFP)),
		Recent:              make([]QueryDigest, 0, len(r.ring)),
		Slowest:             append([]RetainedQuery(nil), r.slowest...),
	}
	for _, v := range r.byFP {
		s.Fingerprints = append(s.Fingerprints, *v)
	}
	sort.Slice(s.Fingerprints, func(i, j int) bool {
		a, b := s.Fingerprints[i], s.Fingerprints[j]
		if a.TotalUs != b.TotalUs {
			return a.TotalUs > b.TotalUs
		}
		return a.Fingerprint < b.Fingerprint
	})
	if len(r.ring) < r.ringCap {
		s.Recent = append(s.Recent, r.ring...)
	} else {
		s.Recent = append(s.Recent, r.ring[r.next:]...)
		s.Recent = append(s.Recent, r.ring[:r.next]...)
	}
	return s
}

// Total returns the number of queries recorded so far.
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Fingerprints returns the number of live fingerprint aggregates.
func (r *Recorder) Fingerprints() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.byFP))
}

// WriteJSON writes the snapshot as indented JSON — the /debug/queries
// payload.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.Snapshot())
}

// WriteText renders a compact human-readable summary: the per-fingerprint
// table (heaviest first) and the slowest retained queries — the
// `dolcli serve -recorder` dump format.
func (r *Recorder) WriteText(w io.Writer) error {
	s := r.Snapshot()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("flight recorder: %d queries, %d fingerprints\n", s.Total, int64(len(s.Fingerprints)))
	for _, f := range s.Fingerprints {
		avg := int64(0)
		if f.Count > 0 {
			avg = f.TotalUs / f.Count
		}
		p("  %-60s n=%d err=%d avg=%dus max=%dus pages=%d hits=%d skipped=%d answers=%d\n",
			f.Fingerprint, f.Count, f.Errors, avg, f.MaxUs,
			f.Pages, f.Hits, f.SkippedAccess, f.Answers)
	}
	for i, q := range s.Slowest {
		p("  slowest[%d]: %s %dus pages=%d answers=%d\n",
			i, q.Digest.Fingerprint, q.Digest.LatencyUs, q.Digest.Pages, q.Digest.Answers)
	}
	return err
}
