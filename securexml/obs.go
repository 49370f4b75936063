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

// initObs builds the store's metrics registry and registers every layer's
// counters under their canonical names (the table in DESIGN.md §11). Called
// once from Seal and Open, after the pool, secure store and pager exist.
func (s *Store) initObs() error {
	s.reg = obs.NewRegistry()
	if err := s.pool.RegisterMetrics(s.reg, "pool"); err != nil {
		return err
	}
	pager := s.pool.Pager()
	for _, g := range []struct {
		name string
		fn   obs.Gauge
	}{
		{"io_reads", func() int64 { return pager.Stats().Reads }},
		{"io_writes", func() int64 { return pager.Stats().Writes }},
		{"io_allocs", func() int64 { return pager.Stats().Allocs }},
	} {
		if err := s.reg.RegisterGauge(g.name, g.fn); err != nil {
			return err
		}
	}
	if wp, ok := pager.(*storage.WALPager); ok {
		if err := wp.RegisterMetrics(s.reg, "wal"); err != nil {
			return err
		}
	}
	if err := s.ss.Store().RegisterMetrics(s.reg, "decode_cache"); err != nil {
		return err
	}
	if err := s.ss.RegisterMetrics(s.reg, "view"); err != nil {
		return err
	}
	// Store-shape gauges sample the published snapshot: a lock-free,
	// immutable view, so metric exports never race an update.
	for _, g := range []struct {
		name string
		fn   func(sn *snapshot) int64
	}{
		{"store_nodes", func(sn *snapshot) int64 { return int64(sn.st.NumNodes()) }},
		{"store_pages", func(sn *snapshot) int64 { return int64(sn.st.NumPages()) }},
		{"directory_bytes", func(sn *snapshot) int64 { return int64(sn.st.DirectoryBytes()) }},
		{"summary_bytes", func(sn *snapshot) int64 { return int64(sn.st.SummaryBytes()) }},
		{"codebook_bytes", func(sn *snapshot) int64 { return int64(sn.ss.Codebook().Bytes()) }},
		{"codebook_entries", func(sn *snapshot) int64 { return int64(sn.ss.Codebook().Len()) }},
		{"codebook_subjects", func(sn *snapshot) int64 { return int64(sn.ss.Codebook().NumSubjects()) }},
		{"plan_memo_bytes", func(sn *snapshot) int64 { return sn.idx.masks.Bytes() }},
	} {
		fn := g.fn
		if err := s.reg.RegisterGauge(g.name, func() int64 {
			sn := s.cur.Load()
			if sn == nil {
				return 0
			}
			return fn(sn)
		}); err != nil {
			return err
		}
	}
	// Snapshot lifecycle metrics: how many versions are live (1 when
	// quiescent), how long pins are held, and how far behind the oldest
	// pinned reader is.
	if err := s.reg.RegisterGauge("snapshot_versions_live", func() int64 {
		return int64(s.vt.LiveVersions())
	}); err != nil {
		return err
	}
	if err := s.reg.RegisterGauge("snapshot_oldest_pin_age_us", func() int64 {
		return s.vt.OldestPinnedAge(time.Now()).Microseconds()
	}); err != nil {
		return err
	}
	if err := s.reg.RegisterGauge("sidecar_bytes", s.sidecarBytes.Load); err != nil {
		return err
	}
	s.snapPins = s.reg.Counter("snapshot_pins")
	s.snapUnpins = s.reg.Counter("snapshot_unpins")
	s.snapPinUs = s.reg.Histogram("snapshot_pin_us")
	s.queryTotal = s.reg.Counter("query_total")
	s.queryErrors = s.reg.Counter("query_errors")
	s.querySlow = s.reg.Counter("query_slow_total")
	s.queryAnswers = s.reg.Counter("query_answers_total")
	s.queryMatches = s.reg.Counter("query_matches_total")
	s.skipAccess = s.reg.Counter("query_pages_skipped_access")
	s.skipStruct = s.reg.Counter("query_pages_skipped_struct")
	s.candRejects = s.reg.Counter("query_candidates_rejected")
	s.pathRejects = s.reg.Counter("query_candidates_rejected_path")
	s.joinRejects = s.reg.Counter("query_candidates_rejected_join")
	s.pathEmpties = s.reg.Counter("query_path_empty_total")
	s.pathClasses = s.reg.Counter("query_path_classes_preresolved")
	s.queryLatency = s.reg.Histogram("query_latency_us")
	// The flight recorder and its spill counter: every query — traced or
	// not — leaves a digest in the bounded ring, and any event a full
	// trace had to drop past its limit is counted store-wide.
	s.rec = obs.NewRecorder(0, 0, 0)
	s.traceDropped = s.reg.Counter("query_trace_dropped_total")
	if err := s.reg.RegisterGauge("recorder_queries", func() int64 {
		return s.rec.Total()
	}); err != nil {
		return err
	}
	if err := s.reg.RegisterGauge("recorder_fingerprints", func() int64 {
		return int64(s.rec.Fingerprints())
	}); err != nil {
		return err
	}
	// Per-store SLO accounting: the objective is a latency bound; the burn
	// rate compares the observed over-objective fraction with the error
	// budget (1 - target), in permille — 1000 means burning the budget
	// exactly as fast as the SLO allows.
	s.sloFinished = s.reg.Counter("slo_queries_total")
	s.sloOver = s.reg.Counter("slo_queries_over_objective")
	if err := s.reg.RegisterGauge("slo_latency_objective_us", func() int64 {
		if d := s.opts.SLOLatency; d > 0 {
			return d.Microseconds()
		}
		return 0
	}); err != nil {
		return err
	}
	if err := s.reg.RegisterGauge("slo_burn_rate_permille", func() int64 {
		return sloBurnPermille(s.sloOver.Load(), s.sloFinished.Load(), s.opts.SLOTarget)
	}); err != nil {
		return err
	}
	for name, help := range map[string]string{
		"query_total":                    "Queries started.",
		"query_errors":                   "Queries that finished with an error.",
		"query_slow_total":               "Queries at or over the slow-query threshold.",
		"query_answers_total":            "Answer nodes returned across all queries.",
		"query_matches_total":            "Combined pattern-match tuples consumed.",
		"query_pages_skipped_access":     "Pages skipped because the access mask proved them dead.",
		"query_pages_skipped_struct":     "Pages skipped because the structure summary proved them dead.",
		"query_candidates_rejected":      "Candidate nodes rejected before matching.",
		"query_candidates_rejected_path": "Candidates rejected by path-class filtering.",
		"query_candidates_rejected_join": "Candidates the structural semi-join on the index postings removed.",
		"plan_memo_bytes":                "Memory held by the current snapshot's memoized plan shapes, in bytes.",
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
		"snapshot_pins":                  "Snapshot pins taken by queries and cursors.",
		"snapshot_unpins":                "Snapshot pins released.",
		"snapshot_pin_us":                "Snapshot pin hold time in microseconds.",
		"snapshot_versions_live":         "Live store versions (1 when quiescent).",
		"snapshot_oldest_pin_age_us":     "Age of the oldest pinned snapshot in microseconds.",
		"path_summary_bytes":             "Serialized path-summary size in bytes.",
		"sidecar_bytes":                  "Size of the last store.json image read at open, saved or journalled with a commit, in bytes.",
		"io_reads":                       "Physical page reads issued by the pager.",
		"io_writes":                      "Physical page writes issued by the pager.",
		"io_allocs":                      "Pages allocated by the pager.",
		"store_nodes":                    "Nodes in the current store snapshot.",
		"store_pages":                    "Pages in the current store snapshot.",
		"directory_bytes":                "In-memory page directory size in bytes.",
		"summary_bytes":                  "In-memory size of the per-block path-class bitsets (the page-skipping part of the path summary) in bytes.",
		"codebook_bytes":                 "In-memory access codebook size in bytes.",
		"codebook_entries":               "Distinct transition codes in the codebook.",
		"codebook_subjects":              "Subjects covered by the codebook.",
	} {
		s.reg.SetHelp(name, help)
	}
	// The mask-compilation counters predate the registry (the first
	// snapshot's MaskCache captures them in initSnapshot); register the
	// existing counters rather than minting fresh ones.
	if err := s.reg.RegisterCounter("skipmask_compile_hits", s.maskHits); err != nil {
		return err
	}
	if err := s.reg.RegisterCounter("skipmask_compile_misses", s.maskMisses); err != nil {
		return err
	}
	if err := s.reg.RegisterGauge("path_summary_bytes", func() int64 {
		sn := s.cur.Load()
		if sn == nil {
			return 0
		}
		return int64(sn.st.PathSummaryBytes())
	}); err != nil {
		return err
	}
	return nil
}

// recordSkips folds one query's skip counters into the store-wide
// registry. dolcli's -stats output and dolbench both read the registry, so
// every reporting surface sees the same numbers.
func (s *Store) recordSkips(sk query.SkipStats) {
	s.skipAccess.Add(sk.AccessPages)
	s.skipStruct.Add(sk.StructPages)
	s.candRejects.Add(sk.Candidates)
	s.pathRejects.Add(sk.PathCandidates)
	s.joinRejects.Add(sk.JoinCandidates)
	s.pathEmpties.Add(sk.PathEmpty)
	s.pathClasses.Add(sk.PathClasses)
}

// sloBurnPermille computes the error-budget burn rate: the observed
// over-objective fraction divided by the budget (1 - target), in
// permille. 0 before any query finishes or when the target leaves no
// budget to divide by.
func sloBurnPermille(over, finished int64, target float64) int64 {
	if finished == 0 {
		return 0
	}
	budget := 1 - target
	if budget <= 0 {
		return 0
	}
	return int64(math.Round(float64(over) / float64(finished) / budget * 1000))
}

// startQuery sets up one query's observability state: it resolves the
// effective trace — tr when the caller attached one; a forced full trace
// when the slow-query log is armed or the query is an ANALYZE; otherwise
// the always-on counting trace that feeds the flight recorder without
// retaining events — stamps the start time, and returns the finish hook
// that records latency, error, SLO and slow-query metrics and files the
// query's digest with the recorder.
func (s *Store) startQuery(tr *obs.Trace, analyze bool) (_ *obs.Trace, finish func(fp, xpath string, answers int64, err error)) {
	slow := s.opts.SlowQueryThreshold
	if tr == nil {
		if slow > 0 || analyze {
			// The slow-query log and ANALYZE both need the full event log
			// that explains the query, so they force tracing on.
			tr = obs.NewTrace()
		} else {
			tr = obs.NewCountingTrace()
		}
	}
	tr.SetDropCounter(s.traceDropped)
	start := time.Now()
	s.queryTotal.Inc()
	return tr, func(fp, xpath string, answers int64, err error) {
		elapsed := time.Since(start)
		us := elapsed.Microseconds()
		s.queryLatency.Observe(us)
		s.sloFinished.Inc()
		if obj := s.opts.SLOLatency; obj > 0 && elapsed > obj {
			s.sloOver.Inc()
		}
		pins, hits, skipA, skipS, _ := tr.Counts()
		d := obs.QueryDigest{
			Fingerprint:   fp,
			XPath:         xpath,
			LatencyUs:     us,
			Pages:         pins,
			Hits:          hits,
			SkippedAccess: skipA,
			SkippedStruct: skipS,
			Answers:       answers,
		}
		d.Err = err != nil
		s.rec.Record(d, tr)
		if err != nil {
			s.queryErrors.Inc()
			return
		}
		if slow > 0 && elapsed >= slow {
			s.querySlow.Inc()
			w := s.opts.SlowQueryLog
			if w == nil {
				w = os.Stderr
			}
			// Render the whole report first and emit it in one locked
			// write: concurrent queries finish on their own goroutines.
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "securexml: slow query (%v >= %v): %s\n", elapsed.Round(time.Microsecond), slow, xpath)
			tr.WriteTo(&buf)
			s.slowMu.Lock()
			w.Write(buf.Bytes())
			s.slowMu.Unlock()
		}
	}
}
