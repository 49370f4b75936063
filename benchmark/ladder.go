package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"dolxml/internal/query"
	"dolxml/securexml"
	"dolxml/securexml/registry"
)

// counters are the program's own per-store metrics (Store.MetricsSnapshot)
// whose per-query deltas the facade rung records.
var counters = []string{
	"pool_gets", "pool_hits", "pool_misses", "pool_evictions", "io_reads",
	"decode_cache_hits", "decode_cache_misses", "decode_cache_evictions",
	"view_decisions_computed", "query_answers_total",
	"query_pages_skipped_access", "query_pages_skipped_struct", "query_candidates_rejected_path",
	"skipmask_compile_hits", "skipmask_compile_misses",
}

var updateSpan = map[updateKind]string{
	toggle: "securexml.set_access", insertMarker: "securexml.insert_xml", deleteMarker: "securexml.delete",
}

// traced is one traced run in progress.
type traced struct {
	cfg  config
	wl   workload
	tr   *tracer
	su   *setUp
	rep  *replica
	reqs []request
	w    *writer // mixed_rw only
	res  *result
	// the pruned joins, asked in turn after each write, and what they found
	joins                      []*target
	joinProbes, joinMismatches int
}

// prefix is the fixed request prefix of the traced pass: the start of the
// untraced run's stream.
func (x *traced) prefix() {
	n := x.cfg.traceReqs
	if x.wl.visit > 0 {
		// Enough visits for ≥ 100 opens at the full prefix length.
		n = (x.cfg.traceReqs/3 + 2) * x.wl.visit
	}
	st := newStream(x.cfg.seed, x.su.tenants, x.wl)
	for i := 0; i < n; i++ {
		rq, _ := st.next()
		x.reqs = append(x.reqs, rq)
	}
}

// updatesBefore returns the writes the single actor performs before
// request i on mixed_rw: a toggle every fifth request, one marker insert a
// third of the way in and its delete ten requests later.
func (x *traced) updatesBefore(i int) []*update {
	if x.w == nil {
		return nil
	}
	var us []*update
	if i%5 == 0 {
		us = append(us, &update{kind: toggle})
	}
	switch third := len(x.reqs) / 3; i {
	case third:
		us = append(us, &update{kind: insertMarker})
	case third + 10:
		us = append(us, &update{kind: deleteMarker})
	}
	return us
}

// httpPass replays the prefix over HTTP with the tracer on or off and
// returns each request's client-side latency in µs, the response bytes and
// how many writes went between the requests (mixed_rw only).
func (x *traced) httpPass(on bool) (took []float64, bytes int64, updates int) {
	x.tr.on.Store(on)
	defer x.tr.on.Store(false)
	for i, rq := range x.reqs {
		for _, u := range x.updatesBefore(i) {
			updates++
			x.update(u, len(x.reqs)+updates)
		}
		sum, n, d, err := x.tr.tracedGet(x.su.s, i+1, rq.url)
		x.res.check(differs(rq.url, err, sum == rq.hash))
		took = append(took, us(d))
		bytes += n
	}
	return took, bytes, updates
}

// update applies one write through the registry handle's store inside its
// securexml.* span and, after a structural commit, the writer's probe.
func (x *traced) update(u *update, reqID int) {
	x.tr.setRequest(reqID)
	id := x.tr.begin(updateSpan[u.kind])
	x.w.write(u)
	x.tr.end(id, 0)
	if u.err == nil && u.kind != toggle {
		sum, _, d, err := x.tr.tracedGet(x.su.s, reqID, x.w.probeURL)
		u.probe = d
		x.w.checkProbe(u, sum, err)
	}
	if u.err != nil {
		x.res.check(updateSpan[u.kind] + ": " + u.err.Error())
	} else {
		x.res.check("")
	}
	x.probePrunedJoin()
}

// probePrunedJoin asks, after a write, one of the pruned joins that no
// workload's stream sends (see prunedJoin), each in turn, with the tracer
// off; an answer that differs from the golden one is the known defect, and
// is counted as found, not as a failed operation.
func (x *traced) probePrunedJoin() {
	t0 := x.su.tenants[0]
	if x.joins == nil {
		t0.eachTarget(func(tg *target) error {
			if tg.prunedJoin() {
				x.joins = append(x.joins, tg)
			}
			return nil
		})
	}
	was := x.tr.on.Swap(false)
	defer x.tr.on.Store(was)
	tg := x.joins[x.joinProbes%len(x.joins)]
	x.joinProbes++
	ms, err := x.w.st.QueryCtx(bg, tg.user, mode, tg.xpath, tg.opts)
	if why := differs(tg.url, err, sha256.Sum256(encodeMatches(ms)) == tg.hash); why != "" {
		x.joinMismatches++
		fmt.Fprintln(os.Stderr, "benchmark: known defect (README): after a write,", why)
	}
}

// facadePass replays the prefix — the writes of mixed_rw too, so that
// cache invalidation shows in the counters — one rung lower:
// Registry.Acquire + Store.QueryCtx, recording the registry.acquire and securexml.query spans
// and the store's own counter deltas around each query. coldAcquires
// lists the requests whose Acquire opened the store.
func (x *traced) facadePass() (delta map[string]int64, counted int, coldAcquires map[int]bool, err error) {
	x.tr.on.Store(true)
	defer x.tr.on.Store(false)
	delta, coldAcquires = map[string]int64{}, map[int]bool{}
	reg := x.su.s.reg
	updates := 0
	for i, rq := range x.reqs {
		for _, u := range x.updatesBefore(i) {
			updates++
			x.update(u, len(x.reqs)+updates)
		}
		x.tr.setRequest(i + 1)
		opens := reg.MetricsSnapshot().Counters["opens_total"]
		id := x.tr.begin("registry.acquire")
		h, err := reg.Acquire(x.su.tenants[rq.tenant].id)
		x.tr.end(id, 0)
		if err != nil {
			return nil, 0, nil, err
		}
		coldAcquires[i+1] = reg.MetricsSnapshot().Counters["opens_total"] != opens
		before := h.Store().MetricsSnapshot()
		id = x.tr.begin("securexml.query")
		ms, qerr := h.Store().QueryCtx(bg, rq.user, mode, rq.xpath, rq.opts)
		x.tr.end(id, 0)
		after := h.Store().MetricsSnapshot()
		if err := h.Close(); err != nil {
			return nil, 0, nil, err
		}
		// A limited query's parallel workers run ahead of the limit by a
		// number of pages that depends on scheduling; leaving Q5lim out is
		// what makes the counts repeat exactly.
		if rq.opts.Limit == 0 {
			counted++
			for _, c := range counters {
				delta[c] += after.Get(c) - before.Get(c)
			}
		}
		x.res.check(differs("facade "+rq.url, qerr, sha256.Sum256(encodeMatches(ms)) == rq.hash))
	}
	return delta, counted, coldAcquires, nil
}

// analyzePass runs the first third of the prefix once more with a full
// event trace and QueryOptions.Analyze, for what only per-event data
// gives: distinct pages per query and structural-join probes.
func (x *traced) analyzePass() (pins, distinct, probes, n int, err error) {
	for _, rq := range x.reqs[:len(x.reqs)/3] {
		if rq.opts.Limit > 0 {
			continue // see facadePass
		}
		h, err := x.su.s.reg.Acquire(x.su.tenants[rq.tenant].id)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		opts := rq.opts
		opts.Trace, opts.Analyze = securexml.NewQueryTrace(), &securexml.QueryAnalysis{}
		_, qerr := h.Store().QueryCtx(bg, rq.user, mode, rq.xpath, opts)
		if err := h.Close(); err != nil {
			return 0, 0, 0, 0, err
		}
		if qerr != nil {
			return 0, 0, 0, 0, qerr
		}
		p, d, pr := distinctPages(opts.Trace.Events())
		if int64(p) != opts.Analyze.TotalPages() {
			return 0, 0, 0, 0, fmt.Errorf("analyze %s: %d pin events, per-operator attribution sums to %d", rq.url, p, opts.Analyze.TotalPages())
		}
		pins, distinct, probes, n = pins+p, distinct+d, probes+pr, n+1
	}
	return pins, distinct, probes, n, nil
}

// evaluatorPass replays tenant 0's requests of the prefix on the replica:
// query.Parse + Evaluator.EvaluateCtx, each in its span. It returns the
// heap allocations per evaluated query.
func (x *traced) evaluatorPass() (allocs, allocBytes float64, err error) {
	x.tr.on.Store(true)
	defer x.tr.on.Store(false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	for i, rq := range x.reqs {
		if rq.tenant != 0 {
			continue
		}
		x.tr.setRequest(i + 1)
		id := x.tr.begin("query.parse")
		pt, err := query.Parse(rq.xpath)
		x.tr.end(id, 0)
		if err != nil {
			return 0, 0, err
		}
		id = x.tr.begin("query.evaluate." + x.su.tenants[0].shapes[rq.shape].name)
		res, err := x.rep.ev.EvaluateCtx(bg, pt, x.rep.options(rq.target))
		x.tr.end(id, 0)
		if err != nil {
			return 0, 0, err
		}
		n++
		x.res.check(differs("replica "+rq.url, nil, sameNodes(res.Nodes, rq.nodes)))
	}
	runtime.ReadMemStats(&after)
	return ratio(float64(after.Mallocs-before.Mallocs), float64(n)),
		ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(n)), nil
}

// writePass is the write rung: 20 toggles, and a marker insert and delete
// each followed by the writer's probe, through the registry handle's store.
func (x *traced) writePass() []*update {
	x.tr.on.Store(true)
	defer x.tr.on.Store(false)
	var writes []*update
	for i := 0; i < 22; i++ {
		u := &update{kind: toggle}
		switch i {
		case 10:
			u.kind = insertMarker
		case 21:
			u.kind = deleteMarker
		}
		x.update(u, 2*len(x.reqs)+i)
		writes = append(writes, u)
	}
	return writes
}

// coldAcquire evicts t and times the Acquire that opens it again.
func (x *traced) coldAcquire(t *tenant, cold map[int]bool) error {
	x.tr.on.Store(true)
	defer x.tr.on.Store(false)
	if err := x.su.s.reg.Evict(t.id); err != nil {
		return err
	}
	id := 3 * len(x.reqs)
	x.tr.setRequest(id)
	cold[id] = true
	sp := x.tr.begin("registry.acquire")
	h, err := x.su.s.reg.Acquire(t.id)
	x.tr.end(sp, 0)
	if err != nil {
		return err
	}
	return h.Close()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// byRequest sums the durations of the spans whose name has the given
// prefix, per request.
func byRequest(spans []span, prefix string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			out[s.Request] += s.dur()
		}
	}
	return out
}

// durations lists the durations of the spans with exactly this name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// meanDiff is the stream-weighted mean of a[i] − Σ b[i] over the requests
// a has; a layer's self time is its span minus the rung below.
func meanDiff(a map[int]float64, below ...map[int]float64) float64 {
	var diffs []float64
	for id, v := range a {
		for _, b := range below {
			v -= b[id]
		}
		diffs = append(diffs, v)
	}
	return mean(diffs)
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// rungs is everything the traced run's passes yield, before folding.
type rungs struct {
	// spans per pass, in the order they ran
	setup, http, facade, eval, prim, write, cold, open []span
	httpCounts                                         map[string]int64 // wrapper-level operation and byte counts of the HTTP rung
	off, on                                            []float64        // client-side µs per request, wrappers inert and recording
	bytes                                              int64            // response bytes of the recording pass
	httpUpdates                                        int              // writes between its requests
	regBefore, regAfter                                map[string]int64 // registry counters around it
	cpuOn                                              float64          // process CPU seconds it took
	delta                                              map[string]int64 // store counter deltas of the counted facade queries
	counted                                            int
	coldAcq                                            map[int]bool // requests whose Acquire opened the store
	pins, distinct, probes, analyzed                   int
	allocs, allocBytes                                 float64
	prims                                              map[string]float64
	secPlain, dolUs, dolAdded                          float64
	writes                                             []*update
	prunedJoinMismatches                               int // after each write, and after the restart
	opens                                              map[string]float64
}

// runTraced is the separate traced pass: a single actor replays a fixed
// request prefix over HTTP with the benchmark's wrappers recording spans,
// then the same requests one rung lower each time — facade, evaluator on a
// replica, primitives, a write rung, and the pieces of a cold open — and
// folds the spans and the program's own counters into the per-layer metrics.
func runTraced(cfg config, wl workload) (*result, error) {
	wall := time.Now()
	x := &traced{cfg: cfg, wl: wl, tr: newTracer(),
		res: &result{Workload: wl.name, Traced: true, Metrics: map[string]metric{}, Extra: map[string]metric{}}}
	res, r := x.res, &rungs{}
	st := securexml.StoreOptions{WrapPager: x.tr.wrapPager, WrapWALFile: x.tr.wrapWALFile}
	// The tracer is on through set-up: its first query opens tenant 0 cold,
	// which gives every workload pager reads to time.
	x.tr.on.Store(true)
	var err error
	x.su, err = setUpOnce(cfg, wl, workDir(cfg, wl)+"-traced", st, x.tr.wrapHandler)
	x.tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	defer x.su.tearDown()
	r.setup, _ = x.tr.take()
	t0 := x.su.tenants[0]
	// Golden answers and the replica need the memory-backed stores.
	for _, t := range x.su.tenants {
		if err := t.computeGoldens(); err != nil {
			return nil, err
		}
	}
	frames := 0
	if wl.poolBytes > 0 {
		// The registry floors a squeezed pool at MinPoolPages = 8 frames.
		if frames = int(wl.poolBytes / pageSize); frames < 8 {
			frames = 8
		}
	}
	if x.rep, err = buildReplica(t0, frames, wl.decodeBytes); err != nil {
		return nil, err
	}
	releaseAll(x.su.tenants)
	if cfg.selfCheck {
		if err := checkInputs(x.su.tenants); err != nil {
			return nil, err
		}
	}
	x.prefix()
	res.StreamHash = streamHash(cfg.seed, x.su.tenants, wl, 4096)
	res.Samples = len(x.reqs)
	// mixed_rw writes between its reads, so its writer holds tenant 0 from
	// here on; the other workloads get theirs for the write rung only.
	var wh *registry.Handle
	openWriter := func() error {
		if wh, err = x.su.s.reg.Acquire(t0.id); err != nil {
			return err
		}
		x.w = newWriter(cfg.seed, t0, wh.Store(), x.su.s)
		return nil
	}
	defer func() {
		if wh != nil {
			wh.Close()
		}
	}()
	if wl.writer {
		if err := openWriter(); err != nil {
			return nil, err
		}
	}

	// HTTP rung: warm-up (pointless under churn, where nothing stays
	// warm), the prefix with the wrappers inert, then with them recording.
	if wl.visit == 0 {
		x.httpPass(false)
	}
	r.off, _, _ = x.httpPass(false)
	x.tr.take()
	r.regBefore = x.su.s.reg.MetricsSnapshot().Counters
	cpuBefore := cpuSeconds()
	r.on, r.bytes, r.httpUpdates = x.httpPass(true)
	r.cpuOn = cpuSeconds() - cpuBefore
	r.regAfter = x.su.s.reg.MetricsSnapshot().Counters
	r.http, r.httpCounts = x.tr.take()

	if r.delta, r.counted, r.coldAcq, err = x.facadePass(); err != nil {
		return nil, err
	}
	r.facade, _ = x.tr.take()
	if r.pins, r.distinct, r.probes, r.analyzed, err = x.analyzePass(); err != nil {
		return nil, err
	}
	if r.allocs, r.allocBytes, err = x.evaluatorPass(); err != nil {
		return nil, err
	}
	r.eval, _ = x.tr.take()

	x.tr.on.Store(true)
	if r.prims, err = x.rep.primitives(x.tr, t0.subjects[0]); err != nil {
		return nil, err
	}
	if r.secPlain, err = x.rep.securePlainRatio(t0); err != nil {
		return nil, err
	}
	if r.dolUs, r.dolAdded, err = x.rep.dolUpdates(x.tr, t0, 60); err != nil {
		return nil, err
	}
	x.tr.on.Store(false)
	r.prim, _ = x.tr.take()

	// Write rung, after every read pass so that it invalidates nothing they
	// measure, and on every workload: the acceptance contract refuses a time
	// that reads the same on every run, so the write path's times are
	// measured everywhere. Its counts per update are not taken here but from
	// the HTTP rung, where only mixed_rw writes.
	if x.w == nil {
		if err := openWriter(); err != nil {
			return nil, err
		}
	}
	r.writes = x.writePass()
	r.write, _ = x.tr.take()
	if err := wh.Close(); err != nil {
		return nil, err
	}
	wh = nil
	// Where the prefix never opens a tenant, evict tenant 0 once for a cold
	// Acquire to time (same reason).
	if wl.visit == 0 {
		if err := x.coldAcquire(t0, r.coldAcq); err != nil {
			return nil, err
		}
	}
	r.cold, _ = x.tr.take()

	// The pieces of a cold open need the directory to themselves; and the
	// acknowledged writes must have survived the shutdown.
	if err := x.su.stopServer(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if r.prunedJoinMismatches, err = verifyDurable(res, t0, x.w); err != nil {
		return nil, err
	}
	r.prunedJoinMismatches += x.joinMismatches
	x.tr.on.Store(true)
	r.opens, err = openLadder(x.tr, t0.dir, 3)
	x.tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	r.open, _ = x.tr.take()
	tracePath, err := writeTrace(cfg.out, wl.name, cfg.seed,
		[][]span{r.setup, r.http, r.facade, r.eval, r.prim, r.write, r.cold, r.open})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: trace written to %s\n", tracePath)

	x.fold(r)
	res.Correct = res.Failed == 0
	res.WallS = time.Since(wall).Seconds()

	reads, decodes := res.Metrics["storage.pager_reads_per_query"].Value, res.Metrics["nok.block_decodes_per_query"].Value
	switch {
	case !cfg.selfCheck:
		return res, nil
	case wl.name == "warm_read" && reads != 0:
		return res, selfCheckf("warm_read: %.3f pager reads per query after warm-up, want 0", reads)
	case wl.name == "cache_pressure" && (reads == 0 || decodes == 0):
		return res, selfCheckf("cache_pressure: %.3f pager reads and %.3f block decodes per query: the budgets do not bind", reads, decodes)
	case wl.name == "tenant_churn" && res.Metrics["registry.evictions"].Value == 0:
		return res, selfCheckf("tenant_churn: no registry evictions")
	case wl.writer && res.Metrics["storage.wal_fsyncs_per_update"].Value == 0:
		return res, selfCheckf("mixed_rw: no WAL fsyncs between the reads: the writer did not write")
	}
	return res, nil
}

// fold turns the rungs into the per-layer metrics. The _us figures are
// means over the prefix, so that self times add up to the round trip.
func (x *traced) fold(r *rungs) {
	res, t0 := x.res, x.su.tenants[0]
	nq, nc := float64(len(x.reqs)), float64(r.counted) // requests; those whose counters count
	roundtrip := byRequest(r.http, "http.roundtrip")
	serve := byRequest(r.http, "registry.serve_http")
	for id := range roundtrip { // probes of the writer are not stream requests
		if id > len(x.reqs) {
			delete(roundtrip, id)
			delete(serve, id)
		}
	}
	acquire := byRequest(append(r.facade, r.cold...), "registry.acquire")
	facade := byRequest(r.facade, "securexml.query")
	parse := byRequest(r.eval, "query.parse")
	eval := byRequest(r.eval, "query.evaluate.")
	var warmAcq, coldAcqMs []float64
	for id, v := range acquire {
		if r.coldAcq[id] {
			coldAcqMs = append(coldAcqMs, v/1e3)
		} else {
			warmAcq = append(warmAcq, v)
		}
	}
	// The rungs below the facade ran on tenant 0's requests only; the
	// ladder is summed over those.
	onReplica := func(m map[int]float64) map[int]float64 {
		out := map[int]float64{}
		for id := range eval {
			out[id] = m[id]
		}
		return out
	}
	facadeOnReplica := onReplica(facade)

	res.set("http.roundtrip_us", mean(values(roundtrip)), "us")
	res.set("http.transport_self_us", meanDiff(roundtrip, serve), "us")
	res.set("registry.serve_http_us", mean(values(serve)), "us")
	res.set("registry.serve_http_self_us", meanDiff(serve, acquire, facade), "us")
	res.set("registry.response_bytes_per_query", float64(r.bytes)/nq, "B")
	res.set("registry.acquire_warm_us", mean(warmAcq), "us")
	res.set("registry.acquire_cold_ms", mean(coldAcqMs), "ms")
	res.set("registry.opens", float64(r.regAfter["opens_total"]-r.regBefore["opens_total"]), "count")
	res.set("registry.evictions", float64(r.regAfter["evictions_total"]-r.regBefore["evictions_total"]), "count")
	res.set("registry.overage_admissions", float64(r.regAfter["overage_admissions_total"]-r.regBefore["overage_admissions_total"]), "count")

	res.set("securexml.query_us", mean(values(facade)), "us")
	res.set("securexml.query_self_us", meanDiff(facadeOnReplica, parse, eval), "us")
	res.set("securexml.open_ms", r.opens["securexml.open_ms"], "ms")
	res.set("securexml.close_ms", r.opens["securexml.close_ms"], "ms")
	for _, name := range updateSpan {
		res.set(name+"_us", mean(durations(r.write, name)), "us")
	}
	res.set("securexml.mask_cache_hit_ratio", ratio(float64(r.delta["skipmask_compile_hits"]),
		float64(r.delta["skipmask_compile_hits"]+r.delta["skipmask_compile_misses"])), "ratio")
	var sealMs, saveMs, parseMs []float64
	for _, t := range x.su.tenants {
		sealMs, saveMs, parseMs = append(sealMs, ms(t.times.seal)), append(saveMs, ms(t.times.save)), append(parseMs, ms(t.times.parse))
	}
	res.set("securexml.store_bytes_per_xml_byte", storeBytesPerXMLByte(x.su.tenants), "ratio")
	res.set("securexml.seal_ms", mean(sealMs), "ms")
	res.set("securexml.save_ms", mean(saveMs), "ms")
	res.set("xmltree.parse_ms", mean(parseMs), "ms")

	res.set("query.parse_us", mean(values(parse)), "us")
	for _, sh := range t0.shapes {
		res.set("query.evaluate_us."+sh.name, mean(durations(r.eval, "query.evaluate."+sh.name)), "us")
	}
	res.set("query.pool_gets_per_query", float64(r.delta["pool_gets"])/nc, "count")
	res.set("query.gets_per_distinct_page", ratio(float64(r.pins), float64(r.distinct)), "ratio")
	res.set("query.allocs_per_query", r.allocs, "count")
	res.set("query.alloc_bytes_per_query", r.allocBytes, "B")
	res.set("query.answers_per_query", float64(r.delta["query_answers_total"])/nc, "count")
	res.set("query.secure_over_plain_ratio", r.secPlain, "ratio")
	res.set("query.pages_skipped_access_per_query", float64(r.delta["query_pages_skipped_access"])/nc, "count")
	res.set("query.pages_skipped_struct_per_query", float64(r.delta["query_pages_skipped_struct"])/nc, "count")
	res.set("query.candidates_rejected_path_per_query", float64(r.delta["query_candidates_rejected_path"])/nc, "count")

	res.set("join.secure_std_us", r.prims["join.secure_std_us"], "us")
	res.set("join.probes_per_query", ratio(float64(r.probes), float64(r.analyzed)), "count")

	res.set("nok.nav_step_ns", r.prims["nok.nav_step_ns"], "ns")
	res.set("nok.decode_cache_hit_ratio", ratio(float64(r.delta["decode_cache_hits"]),
		float64(r.delta["decode_cache_hits"]+r.delta["decode_cache_misses"])), "ratio")
	res.set("nok.block_decodes_per_query", float64(r.delta["decode_cache_misses"])/nc, "count")
	res.set("nok.decode_cache_evictions_per_query", float64(r.delta["decode_cache_evictions"])/nc, "count")
	res.set("nok.open_ms", r.opens["nok.open_ms"], "ms")
	res.set("nok.check_consistency_ms", r.opens["nok.check_consistency_ms"], "ms")
	res.set("nok.extent_scan_ms", r.opens["nok.extent_scan_ms"], "ms")
	res.set("nok.structure_pages", float64(t0.stats.StructurePages), "count")
	res.set("nok.summary_bytes", float64(t0.stats.SummaryBytes), "B")

	codeLen := 1
	for e := t0.stats.CodebookEntries; e >= 128; e >>= 7 {
		codeLen++ // embedded codes are uvarints of the codebook index
	}
	res.set("dol.access_check_ns", r.prims["dol.access_check_ns"], "ns")
	res.set("dol.view_decisions_computed_per_query", float64(r.delta["view_decisions_computed"])/nc, "count")
	res.set("dol.set_node_access_us", r.dolUs, "us")
	res.set("dol.transitions_added_per_update", r.dolAdded, "count")
	res.set("dol.transitions", float64(t0.stats.Transitions), "count")
	res.set("dol.codebook_entries", float64(t0.stats.CodebookEntries), "count")
	res.set("dol.codebook_bytes", float64(t0.stats.CodebookBytes), "B")
	res.set("dol.acl_bytes_per_node", float64(t0.stats.CodebookBytes+t0.stats.Transitions*codeLen)/float64(t0.stats.Nodes), "B")

	res.set("btree.postings_us", r.prims["btree.postings_us"], "us")
	// The engine's own index rebuild cannot be timed from outside; what
	// securexml.Open takes beyond opening and checking the structure is that
	// rebuild plus opening the log and parsing store.json.
	res.set("btree.index_build_ms", r.opens["securexml.open_ms"]-r.opens["nok.open_ms"]-r.opens["nok.check_consistency_ms"], "ms")
	res.set("pathsum.bytes", float64(t0.stats.PathSummaryBytes), "B")
	res.set("pathsum.rebuild_ms", r.opens["pathsum.rebuild_ms"], "ms")

	nu := float64(r.httpUpdates) // 0 except on mixed_rw, and so are the counts
	res.set("storage.pool_get_hit_ns", r.prims["storage.pool_get_hit_ns"], "ns")
	res.set("storage.pool_hit_ratio", ratio(float64(r.delta["pool_hits"]), float64(r.delta["pool_gets"])), "ratio")
	res.set("storage.pool_misses_per_query", float64(r.delta["pool_misses"])/nc, "count")
	res.set("storage.pool_evictions_per_query", float64(r.delta["pool_evictions"])/nc, "count")
	res.set("storage.pager_reads_per_query", float64(r.httpCounts["storage.pager_read"])/nq, "count")
	res.set("storage.pager_read_us", mean(durations(append(r.setup, r.http...), "storage.pager_read")), "us")
	res.set("storage.pager_writes_per_update", ratio(float64(r.httpCounts["storage.pager_write"]), nu), "count")
	res.set("storage.pager_syncs_per_update", ratio(float64(r.httpCounts["storage.pager_sync"]), nu), "count")
	res.set("storage.wal_appends_per_update", ratio(float64(r.httpCounts["storage.wal_append"]), nu), "count")
	res.set("storage.wal_bytes_per_update", ratio(float64(r.httpCounts["storage.wal_append.bytes"]), nu), "B")
	res.set("storage.wal_fsyncs_per_update", ratio(float64(r.httpCounts["storage.wal_fsync"]), nu), "count")
	res.set("storage.wal_fsync_us", mean(durations(r.write, "storage.wal_fsync")), "us")
	res.set("storage.bytes_written_per_update",
		ratio(float64(r.httpCounts["storage.pager_write.bytes"]+r.httpCounts["storage.wal_append.bytes"]), nu), "B")

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.set("process.peak_heap_mb", float64(mem.HeapSys)/(1<<20), "MB")
	res.set("process.gc_pause_ms_total", float64(mem.PauseTotalNs)/1e6, "ms")
	res.set("process.cpu_s_per_1k_queries", r.cpuOn/nq*1000, "s")

	var probesMs []float64
	for _, u := range r.writes {
		if u.kind != toggle {
			probesMs = append(probesMs, ms(u.probe))
		}
	}
	res.set("bench.read_after_insert_ms", median(probesMs), "ms")
	res.set("bench.samples", nq, "count")
	// Request by request, so that one slow reply on a busy box moves it little.
	overhead := make([]float64, len(r.on))
	for i := range r.on {
		overhead[i] = ratio(r.on[i]-r.off[i], r.off[i])
	}
	res.set("bench.trace_overhead_pct", 100*median(overhead), "%")
	res.set("bench.error_rate", float64(res.Failed)/float64(res.Attempted), "ratio")
	res.set("bench.pruned_join_mismatches", float64(r.prunedJoinMismatches), "count")
}
