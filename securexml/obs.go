package securexml

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"time"

	"dolxml/internal/obs"
	"dolxml/internal/query"
	"dolxml/internal/storage"
)

// registry returns the store's metrics registry, building it at the first
// read (MetricsSnapshot, the metric writers): a tenant faulted in to answer
// a few queries never pays for it. The components' counters count from the
// start either way; the registry only names them.
func (s *Store) registry() *obs.Registry {
	s.regOnce.Do(func() { s.reg = s.newRegistry() })
	return s.reg
}

// newRegistry builds the store's metrics registry and registers every
// layer's counters under their canonical names (the table in DESIGN.md
// §11). The names are fixed, so a registration error is a programming
// error, and it panics.
func (s *Store) newRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(s.pool.RegisterMetrics(reg, "pool"))
	pager := s.pool.Pager()
	for _, g := range []struct {
		name string
		fn   obs.Gauge
	}{
		{"io_reads", func() int64 { return pager.Stats().Reads }},
		{"io_writes", func() int64 { return pager.Stats().Writes }},
		{"io_allocs", func() int64 { return pager.Stats().Allocs }},
		{"io_syncs", func() int64 { return pager.Stats().Syncs }},
	} {
		must(reg.RegisterGauge(g.name, g.fn))
	}
	if wp, ok := pager.(*storage.WALPager); ok {
		must(wp.RegisterMetrics(reg, "wal"))
	}
	must(s.ss.Store().RegisterMetrics(reg, "decode_cache"))
	must(s.ss.RegisterMetrics(reg, "view"))
	// Store-shape gauges sample the published snapshot: a lock-free,
	// immutable view, so metric exports never race an update.
	for _, g := range []struct {
		name string
		fn   func(sn *snapshot) int64
	}{
		{"store_nodes", func(sn *snapshot) int64 { return int64(sn.st.NumNodes()) }},
		{"store_pages", func(sn *snapshot) int64 { return int64(sn.st.NumPages()) }},
		{"directory_bytes", func(sn *snapshot) int64 { return int64(sn.st.DirectoryBytes()) }},
		{"codebook_bytes", func(sn *snapshot) int64 { return int64(sn.ss.Codebook().HeapBytes()) }},
		{"codebook_entries", func(sn *snapshot) int64 { return int64(sn.ss.Codebook().Len()) }},
		{"codebook_subjects", func(sn *snapshot) int64 { return int64(sn.ss.Codebook().NumSubjects()) }},
		{"plan_memo_bytes", func(sn *snapshot) int64 { return sn.idx.masks.Bytes() }},
		{"index_bytes", func(sn *snapshot) int64 { return sn.idx.bytes() }},
		{"path_summary_bytes", func(sn *snapshot) int64 { return int64(sn.st.PathSummaryBytes()) }},
		{"value_ref_bytes", func(sn *snapshot) int64 {
			if vs := sn.st.Values(); vs != nil {
				return vs.Bytes()
			}
			return 0
		}},
	} {
		fn := g.fn
		must(reg.RegisterGauge(g.name, func() int64 {
			sn := s.cur.Load()
			if sn == nil {
				return 0
			}
			return fn(sn)
		}))
	}
	for _, g := range []struct {
		name string
		fn   obs.Gauge
	}{
		// Snapshot lifecycle: how many versions are live (1 when
		// quiescent) and how far behind the oldest pinned reader is.
		{"snapshot_versions_live", func() int64 { return int64(s.vt.LiveVersions()) }},
		{"snapshot_oldest_pin_age_us", func() int64 { return s.vt.OldestPinnedAge(time.Now()).Microseconds() }},
		{"sidecar_bytes", s.sidecarBytes.Load},
		{"recorder_queries", func() int64 { return s.rec.Total() }},
		{"recorder_fingerprints", func() int64 { return int64(s.rec.Fingerprints()) }},
		{"slo_latency_objective_us", func() int64 {
			if d := s.opts.SLOLatency; d > 0 {
				return d.Microseconds()
			}
			return 0
		}},
		{"slo_burn_rate_permille", func() int64 {
			return sloBurnPermille(s.sloOver.Load(), s.sloFinished.Load())
		}},
	} {
		must(reg.RegisterGauge(g.name, g.fn))
	}
	for _, c := range []struct {
		name string
		c    *obs.Counter
	}{
		{"snapshot_pins", &s.snapPins},
		{"snapshot_unpins", &s.snapUnpins},
		{"query_total", &s.queryTotal},
		{"query_errors", &s.queryErrors},
		{"query_slow_total", &s.querySlow},
		{"query_answers_total", &s.queryAnswers},
		{"query_matches_total", &s.queryMatches},
		{"query_pages_skipped_access", &s.skipAccess},
		{"query_candidates_rejected", &s.candRejects},
		{"query_path_empty_total", &s.pathEmpties},
		{"query_path_classes_preresolved", &s.pathClasses},
		{"query_trace_dropped_total", &s.traceDropped},
		{"slo_queries_total", &s.sloFinished},
		{"slo_queries_over_objective", &s.sloOver},
		{"skipmask_compile_hits", &s.maskHits},
		{"skipmask_compile_misses", &s.maskMisses},
	} {
		must(reg.RegisterCounter(c.name, c.c))
	}
	must(reg.RegisterHistogram("snapshot_pin_us", &s.snapPinUs))
	must(reg.RegisterHistogram("query_latency_us", &s.queryLatency))
	reg.SetHelpTable(metricHelp)
	return reg
}

// metricHelp is the help text of the metrics newRegistry registers itself.
var metricHelp = map[string]string{
	"query_total":                    "Queries started.",
	"query_errors":                   "Queries that finished with an error.",
	"query_slow_total":               "Queries at or over the slow-query threshold.",
	"query_answers_total":            "Answer nodes returned across all queries.",
	"query_matches_total":            "Combined pattern-match tuples consumed.",
	"query_pages_skipped_access":     "Pages skipped because the access mask proved them dead.",
	"query_candidates_rejected":      "Candidate nodes rejected before matching.",
	"plan_memo_bytes":                "Memory held by the current snapshot's memoized plan shapes, in bytes.",
	"index_bytes":                    "Memory held by the current snapshot's class runs and built value runs, in bytes (0 until built).",
	"query_path_empty_total":         "Queries proven empty by the path summary alone.",
	"query_path_classes_preresolved": "Uniform path classes whose access verdict was preresolved.",
	"query_latency_us":               "Query latency in microseconds.",
	"query_trace_dropped_total":      "Trace events discarded past a trace's event limit.",
	"recorder_queries":               "Queries recorded by the flight recorder since open.",
	"recorder_fingerprints":          "Distinct query fingerprints the recorder currently tracks.",
	"slo_queries_total":              "Queries counted against the latency SLO.",
	"slo_queries_over_objective":     "Queries that finished over the SLO latency objective.",
	"slo_latency_objective_us":       "Configured SLO latency objective in microseconds (0 when unset).",
	"slo_burn_rate_permille":         "Error-budget burn rate in permille; 1000 burns the budget exactly at the SLO rate.",
	"skipmask_compile_hits":          "Plan-memo lookups served from the snapshot's memo.",
	"skipmask_compile_misses":        "Plan-memo lookups that had to build the plan shape.",
	"snapshot_pins":                  "Snapshot pins taken by queries and by Store.Snapshot.",
	"snapshot_unpins":                "Snapshot pins released.",
	"snapshot_pin_us":                "Snapshot pin hold time in microseconds.",
	"snapshot_versions_live":         "Live store versions (1 when quiescent).",
	"snapshot_oldest_pin_age_us":     "Age of the oldest pinned snapshot in microseconds.",
	"path_summary_bytes":             "Serialized path-summary size in bytes.",
	"value_ref_bytes":                "Memory held by the current snapshot's value refs: their packed image, plus 12 bytes a ref once a value read has unpacked them.",
	"sidecar_bytes":                  "Size of the last store.json image read at open, saved or journalled with a commit, in bytes.",
	"io_reads":                       "Physical page reads issued by the pager.",
	"io_writes":                      "Physical page writes issued by the pager.",
	"io_allocs":                      "Pages allocated by the pager.",
	"io_syncs":                       "fsyncs of the page file the pager issued; a Sync with nothing written since the last one issues none.",
	"store_nodes":                    "Nodes in the current store snapshot.",
	"store_pages":                    "Pages in the current store snapshot.",
	"directory_bytes":                "In-memory page directory size in bytes.",
	"codebook_bytes":                 "Heap bytes of the access codebook's rows: runs plus index keys.",
	"codebook_entries":               "Distinct transition codes in the codebook.",
	"codebook_subjects":              "Subjects covered by the codebook.",
}

// recordSkips folds one query's skip counters into the store-wide
// registry. dolcli's -stats output and dolbench both read the registry, so
// every reporting surface sees the same numbers.
func (s *Store) recordSkips(sk query.SkipStats) {
	s.skipAccess.Add(sk.AccessPages)
	s.candRejects.Add(sk.Candidates)
	s.pathEmpties.Add(sk.PathEmpty)
	s.pathClasses.Add(sk.PathClasses)
}

// sloTarget is the availability target the error budget is measured
// against: one query in a thousand may miss the latency objective before
// the burn rate exceeds 1000 permille.
const sloTarget = 0.999

// sloBurnPermille computes the error-budget burn rate: the observed
// over-objective fraction divided by the budget (1 - sloTarget), in
// permille. 0 before any query finishes.
func sloBurnPermille(over, finished int64) int64 {
	if finished == 0 {
		return 0
	}
	return int64(math.Round(float64(over) / float64(finished) / (1 - sloTarget) * 1000))
}

// startQuery resolves one query's effective trace — tr when the caller
// attached one; a forced full trace when the slow-query log is armed or the
// query is an ANALYZE; otherwise the always-on counting trace that feeds
// the flight recorder without retaining events — and counts the query.
func (s *Store) startQuery(tr *obs.Trace, analyze bool) *obs.Trace {
	if tr == nil {
		if s.opts.SlowQueryThreshold > 0 || analyze {
			// The slow-query log and ANALYZE both need the full event log
			// that explains the query, so they force tracing on.
			tr = obs.NewTrace()
		} else {
			tr = obs.NewCountingTrace()
		}
	}
	tr.SetDropCounter(&s.traceDropped)
	s.queryTotal.Inc()
	return tr
}

// finishQuery records the latency, error, SLO and slow-query metrics of a
// query started at start on tr, and files its digest with the recorder.
func (s *Store) finishQuery(tr *obs.Trace, start time.Time, fp, xpath string, answers int64, err error) {
	elapsed := time.Since(start)
	us := elapsed.Microseconds()
	s.queryLatency.Observe(us)
	s.sloFinished.Inc()
	if obj := s.opts.SLOLatency; obj > 0 && elapsed > obj {
		s.sloOver.Inc()
	}
	pins, hits, skips, _ := tr.Counts()
	s.rec.Record(obs.QueryDigest{
		Fingerprint:   fp,
		XPath:         xpath,
		LatencyUs:     us,
		Pages:         pins,
		Hits:          hits,
		SkippedAccess: skips,
		Answers:       answers,
		Err:           err != nil,
	}, tr)
	if err != nil {
		s.queryErrors.Inc()
		return
	}
	if slow := s.opts.SlowQueryThreshold; slow > 0 && elapsed >= slow {
		s.querySlow.Inc()
		w := s.opts.SlowQueryLog
		if w == nil {
			w = os.Stderr
		}
		// Render the whole report first and emit it in one locked write:
		// concurrent queries finish on their own goroutines.
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "securexml: slow query (%v >= %v): %s\n", elapsed.Round(time.Microsecond), slow, xpath)
		tr.WriteTo(&buf)
		s.slowMu.Lock()
		w.Write(buf.Bytes())
		s.slowMu.Unlock()
	}
}
