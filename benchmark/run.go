package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"dolxml/securexml"
)

var bg = context.Background()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, traced or not.
type result struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Failures says what the first few failed operations were.
	Failures []string `json:"failures,omitempty"`
	// Warnings are the self-checks that depend on how fast the box ran
	// (see warn); the run's numbers stand, read with them in mind.
	Warnings []string          `json:"warnings,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	// Extra are figures measured on this run that the contract's metric
	// lists have no slot for (see README: single-workload metrics).
	Extra      map[string]metric `json:"extra,omitempty"`
	Samples    int               `json:"samples"`
	WallS      float64           `json:"wall_s"`
	StreamHash string            `json:"stream_hash"`
	Env        env               `json:"env"`
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// extra records a figure BENCHMARK.json does not list.
func (r *result) extra(name string, v float64, unit string) { r.Extra[name] = metric{v, unit} }

// check counts one verified operation; a non-empty why is its failure.
func (r *result) check(why string) {
	r.Attempted++
	if why == "" {
		return
	}
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, why)
	}
}

// differs describes a response that is not the golden one, or "" if it is.
func differs(what string, err error, same bool) string {
	switch {
	case err != nil:
		return what + ": " + err.Error()
	case !same:
		return what + ": answer differs from the golden one"
	}
	return ""
}

// warn records a self-check that the box, not the program, can fail: too
// few samples in the window, a writer that fell behind. The sandbox slows
// by a factor of five for minutes at a time, and a run that meets such a
// spell still measured the program — its floors hold — so it reports the
// warning with its result instead of exiting non-zero.
func (r *result) warn(format string, args ...any) {
	w := fmt.Sprintf(format, args...)
	r.Warnings = append(r.Warnings, w)
	fmt.Fprintln(os.Stderr, "benchmark: warning:", w)
}

// selfCheckError marks a run whose workload did not do what it is for — a
// count that follows from the inputs and the budgets, not from the box's
// speed; the command exits non-zero instead of reporting numbers that mean
// nothing.
type selfCheckError struct{ msg string }

func (e *selfCheckError) Error() string { return "self-check failed: " + e.msg }

func selfCheckf(format string, args ...any) error {
	return &selfCheckError{fmt.Sprintf(format, args...)}
}

// checkInputs fails the run when the DOL path would not really be
// exercised: too few transitions or a trivial codebook.
func checkInputs(ts []*tenant) error {
	for _, t := range ts {
		if t.stats.Transitions*50 < t.stats.Nodes {
			return selfCheckf("%s: %d transitions on %d nodes (< 2%%)", t.id, t.stats.Transitions, t.stats.Nodes)
		}
		if t.stats.CodebookEntries < 16 {
			return selfCheckf("%s: %d codebook entries (< 16)", t.id, t.stats.CodebookEntries)
		}
	}
	return nil
}

// prepare finishes a set-up for driving: golden answers, input checks, and
// the memory-backed reference stores released.
func prepare(cfg config, ts []*tenant) error {
	for _, t := range ts {
		if err := t.computeGoldens(); err != nil {
			return err
		}
	}
	releaseAll(ts)
	if !cfg.selfCheck {
		return nil
	}
	return checkInputs(ts)
}

// storeBytesPerXMLByte is tenant directory bytes over serialized XML bytes.
func storeBytesPerXMLByte(ts []*tenant) float64 {
	var store, xml int64
	for _, t := range ts {
		store += t.storeBytes
		xml += int64(len(t.xml))
	}
	return float64(store) / float64(xml)
}

// runUntraced measures the end-to-end metrics of one workload with all
// tracing off: set-up (repeated, so setup_s is a median), warm-up, the
// measured window, verification, self-checks.
func runUntraced(cfg config, wl workload) (*result, error) {
	wall := time.Now()
	res := &result{Workload: wl.name, Metrics: map[string]metric{}, Extra: map[string]metric{}}

	var setupS, coldMs []float64
	var coldSums [][sha256.Size]byte
	var su *setUp
	defer func() {
		if su != nil {
			su.tearDown()
		}
	}()
	for rep := 0; rep < cfg.setupReps; rep++ {
		if su != nil {
			if err := su.tearDown(); err != nil {
				return nil, err
			}
		}
		var err error
		if su, err = setUpOnce(cfg, wl, workDir(cfg, wl), securexml.StoreOptions{}, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, su.took.Seconds())
		coldMs = append(coldMs, ms(su.cold))
		coldSums = append(coldSums, su.coldSum)
	}
	if err := prepare(cfg, su.tenants); err != nil {
		return nil, err
	}
	res.StreamHash = streamHash(cfg.seed, su.tenants, wl, 4096)
	first := su.tenants[0].targets[0][0][0]
	// Same seed, same store: every cold answer is held against the golden one.
	for _, sum := range coldSums {
		res.check(differs("cold "+first.url, nil, sum == first.hash))
	}

	// Single-tenant workloads sample the store's pager reads when the
	// warm-up ends, for the self-checks below.
	readsAtFrom := make(chan int64, 1)
	if wl.visit == 0 {
		time.AfterFunc(cfg.warmup(), func() { readsAtFrom <- pagerReads(su) })
	}
	run, err := drive(cfg, wl, su)
	if err != nil {
		return nil, err
	}
	readsPerQuery := -1.0
	if wl.visit == 0 {
		readsPerQuery = ratio(float64(pagerReads(su)-<-readsAtFrom), float64(len(run.samples)))
	}
	evictions := su.s.reg.MetricsSnapshot().Counters["evictions_total"]

	// Operations are grouped by what they ask — a query by shape, subject
	// and semantics, a query that faults its tenant in by the tenant, a
	// write by its kind — so that a group's latencies differ only by what
	// the box did to them. A failed or refused operation is counted, and
	// counts against the floor as one that took the whole window.
	const failedOp = "failed"
	penalty := ms(cfg.window())
	groups := map[string][]float64{}
	var lat, coldLat []float64
	for _, s := range run.samples {
		res.check(s.failure)
		k, v := fmt.Sprint("query ", s.shape, s.subject, s.pruned), s.ms
		switch {
		case s.failure != "":
			k, v = failedOp, penalty
		case s.cold:
			k = fmt.Sprint("cold ", s.tenant)
			coldLat = append(coldLat, v)
		}
		lat = append(lat, v)
		groups[k] = append(groups[k], v)
	}
	res.Samples = len(run.samples)
	ok := res.Samples - len(groups[failedOp])
	warm, cold := map[string][]float64{}, map[string][]float64{}
	for k, g := range groups {
		switch {
		case strings.HasPrefix(k, "query "):
			warm[k] = g
		case strings.HasPrefix(k, "cold "):
			cold[k] = g
		}
	}
	if wl.visit == 0 {
		// The stream opens no tenant: the first query of each set-up did.
		cold["cold 0"], coldLat = coldMs, coldMs
	}
	if wl.writer {
		// The writer's operations are part of the workload's mix.
		var failedWrites int
		groups["update"], groups["probe"], failedWrites = res.foldUpdates(run)
		for ; failedWrites > 0; failedWrites-- {
			groups[failedOp] = append(groups[failedOp], penalty)
		}
	}
	res.set("setup_s", median(setupS), "s")
	res.set("request_floor_ms", floorMean(groups), "ms")
	res.extra("warm_floor_ms", floorMean(warm), "ms")
	res.extra("cold_floor_ms", floorMean(cold), "ms")
	res.extra("qps", float64(ok)/run.elapsed.Seconds(), "1/s")
	res.extra("query_p50_ms", percentile(lat, 50), "ms")
	res.extra("query_p99_ms", percentile(lat, 99), "ms")
	res.extra("cold_query_p50_ms", median(coldLat), "ms")
	res.extra("cold_samples", float64(len(coldLat)), "count")
	res.extra("securexml.store_bytes_per_xml_byte", storeBytesPerXMLByte(su.tenants), "ratio")
	if readsPerQuery >= 0 {
		res.extra("storage.pager_reads_per_query", readsPerQuery, "count")
	}

	// Stop the server before the durability check: the reopened store must
	// see what a restart would.
	t0, w := su.tenants[0], run.w
	if err := su.stopServer(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if wl.writer {
		mismatches, err := verifyDurable(res, t0, w)
		if err != nil {
			return nil, err
		}
		res.extra("bench.pruned_join_mismatches", float64(mismatches), "count")
	}
	res.Correct = res.Failed == 0
	res.WallS = time.Since(wall).Seconds()

	if res.Samples < cfg.minSamples {
		res.warn("%s: %d query samples (< %d)", wl.name, res.Samples, cfg.minSamples)
	}
	switch {
	case !cfg.selfCheck:
		return res, nil
	case wl.name == "warm_read" && readsPerQuery != 0:
		return res, selfCheckf("warm_read: %.3f pager reads per query after warm-up, want 0", readsPerQuery)
	case wl.name == "cache_pressure" && readsPerQuery <= 0:
		return res, selfCheckf("cache_pressure: no pager reads: the budgets do not bind")
	case wl.name == "tenant_churn" && evictions == 0:
		return res, selfCheckf("tenant_churn: no registry evictions")
	}
	return res, nil
}

// foldUpdates turns the writer's plan into the mixed_rw figures: update
// latency from the due instant, the probe latency after structural
// commits, and how late the generator ran. It returns the latencies of the
// toggles and of the probes and how many writes failed, and warns when the
// writer fell behind: fewer than 95 % of the scheduled updates applied, or
// lag p99 above 1 s outside the structural windows.
func (res *result) foldUpdates(run *untraced) (toggles, probes []float64, failed int) {
	var lat, lag []float64
	scheduled, applied := 0, 0
	// A structural window runs from an insert's due instant until 2 s
	// after its delete returned: stalls there are the point, not lag.
	type window struct{ from, to time.Duration }
	var windows []window
	for _, u := range run.plan {
		if u.kind == insertMarker {
			windows = append(windows, window{from: u.due})
		}
		if u.kind == deleteMarker && len(windows) > 0 {
			windows[len(windows)-1].to = u.end + 2*time.Second
			if !u.done {
				windows[len(windows)-1].to = 1 << 62
			}
		}
	}
	structural := func(at time.Duration) bool {
		for _, w := range windows {
			if at >= w.from && at < w.to {
				return true
			}
		}
		return false
	}
	for _, u := range run.plan {
		if u.due < run.from {
			continue
		}
		scheduled++
		if !u.done { // the writer ran out of window: the self-check below judges how many
			continue
		}
		if u.err != nil {
			res.check(fmt.Sprintf("update due at %v: %v", u.due, u.err))
			failed++
			continue
		}
		res.check("")
		applied++
		lat = append(lat, ms(u.end-u.due))
		if u.kind != toggle {
			probes = append(probes, ms(u.probe))
			continue
		}
		toggles = append(toggles, ms(u.end-u.due))
		if !structural(u.due) {
			lag = append(lag, ms(u.begin-u.due))
		}
	}
	res.extra("update_floor_ms", floor(toggles), "ms")
	res.extra("update_p50_ms", percentile(lat, 50), "ms")
	res.extra("update_p99_ms", percentile(lat, 99), "ms")
	res.extra("read_after_insert_ms", median(probes), "ms")
	res.extra("bench.writer_lag_p99_ms", percentile(lag, 99), "ms")
	res.extra("updates_applied", float64(applied), "count")
	res.extra("securexml.snapshot_versions_live_max", float64(run.w.liveMax), "count")
	if applied*100 < scheduled*95 {
		res.warn("mixed_rw: %d of %d scheduled updates applied (< 95%%)", applied, scheduled)
	}
	if percentile(lag, 99) > 1000 {
		res.warn("mixed_rw: writer lag p99 %.0f ms outside the structural windows (> 1 s)", percentile(lag, 99))
	}
	return toggles, probes, failed
}

// pagerReads is the served tenant's physical page reads so far, from the
// store's own io_reads gauge.
func pagerReads(su *setUp) int64 {
	h, err := su.s.reg.Acquire(su.tenants[0].id)
	if err != nil {
		return -1
	}
	defer h.Close()
	return h.Store().MetricsSnapshot().Get("io_reads")
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
