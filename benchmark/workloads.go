package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dolxml/securexml"
	"dolxml/securexml/registry"
)

// workload is one traffic mix. Every workload drives the same table1_mix
// stream; they differ in what the stream lands on.
type workload struct {
	name string
	why  string
	// tenants sizes the inputs: a single tenant is bigNodes, each of
	// several churnNodes.
	tenants int
	// poolBytes, decodeBytes and maxOpen are the registry budgets; 0
	// keeps the `dolcli serve -root` default.
	poolBytes, decodeBytes int64
	maxOpen                int
	visit                  int // requests per tenant visit; 0 = one tenant
	writer                 bool
}

const (
	updateRate = 20.0 // open-loop updates per second on mixed_rw
	markerHold = 2 * time.Second
)

// Every workload has one closed-loop HTTP client: an application thread
// that waits for its reply. The server already spreads each query over both
// cores; a second client made the same seed spread three times as wide from
// run to run (±15 % against ±5 %) without loading any other layer.

var workloads = []workload{
	{
		name: "warm_read", tenants: 1,
		why: "one tenant, default budgets, everything resident: the pure CPU path (pool hits, navigation, access checks, JSON); 0 pager reads",
	},
	{
		name: "cache_pressure", tenants: 1, poolBytes: 32 << 10, decodeBytes: 64 << 10,
		why: "warm_read with pool and decode-cache budgets below the working set: block decoding and the pool miss/evict/pager path do the work",
	},
	{
		name: "tenant_churn", tenants: 12, maxOpen: 4, visit: 8,
		why: "12 small tenants through MaxOpen=4, 8 requests per visit: every visit faults a tenant in, so registry open/evict/close and securexml.Open dominate",
	},
	{
		name: "mixed_rw", tenants: 1, writer: true,
		why: "one reader plus an open-loop writer at 20 updates/s with three structural commits: WAL fsyncs, snapshot publish, cache invalidation, index rebuild",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func (wl workload) registryOptions(root string, st securexml.StoreOptions) registry.Options {
	return registry.Options{Root: root, MaxOpen: wl.maxOpen, PoolBytes: wl.poolBytes, DecodeCacheBytes: wl.decodeBytes, Store: st}
}

// nodes is the xmark.Scaled target of each of the workload's tenants.
func (wl workload) nodes(cfg config) int {
	if wl.tenants > 1 {
		return cfg.churnNodes
	}
	return cfg.bigNodes
}

// config is everything a run is parameterized by.
type config struct {
	seed       int64
	seconds    float64
	bigNodes   int // xmark.Scaled target of the single-tenant workloads
	churnNodes int // and of each tenant_churn tenant
	setupReps  int
	minSamples int // self-check floor on query samples per workload
	// selfCheck fails a run whose workload did not load the layers it is
	// for. Only the unit-test miniature, too small to, turns it off.
	selfCheck bool
	traceReqs int    // length of the traced request prefix
	out       string // results and traces; inputs are built under out/work
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warmup is the untimed lead-in: 2 s on a full-length run (every distinct
// request has been answered several times by then), a fifth of a short one.
func (c config) warmup() time.Duration {
	if w := c.window() / 5; w < 2*time.Second {
		return w
	}
	return 2 * time.Second
}

// buildTenants generates the workload's store directories under root.
func buildTenants(cfg config, wl workload, root string) ([]*tenant, error) {
	// A killed run may have left its directory behind.
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	ts := make([]*tenant, wl.tenants)
	for i := range ts {
		t, err := buildTenant(root, fmt.Sprintf("t%02d", i), int64(i), cfg.seed*1000+int64(i), wl.nodes(cfg))
		if err != nil {
			releaseAll(ts)
			return nil, err
		}
		ts[i] = t
	}
	return ts, nil
}

func releaseAll(ts []*tenant) {
	for _, t := range ts {
		if t != nil {
			t.release()
		}
	}
}

// setUp is one full set-up: build inputs, start the server, wait for it
// to be healthy. It reports how long that took and then the latency of the
// first query, which faults tenant 0 in.
type setUp struct {
	root    string
	tenants []*tenant
	s       *served
	took    time.Duration
	cold    time.Duration
	coldSum [sha256.Size]byte
}

// setUpOnce serves the workload's freshly built tenants with st as the
// per-tenant store template; the zero template is what `dolcli serve -root`
// gives (page size from the store's meta, WAL on, DurabilitySync).
func setUpOnce(cfg config, wl workload, root string, st securexml.StoreOptions, wrap wrapHandler) (*setUp, error) {
	su := &setUp{root: root}
	start := time.Now()
	var err error
	if su.tenants, err = buildTenants(cfg, wl, root); err != nil {
		return nil, err
	}
	if su.s, err = serve(wl.registryOptions(root, st), wrap); err != nil {
		releaseAll(su.tenants)
		return nil, err
	}
	su.took = time.Since(start)
	start = time.Now()
	if su.coldSum, err = su.s.get(su.tenants[0].targets[0][0][0].url); err != nil {
		su.tearDown()
		return nil, fmt.Errorf("first query: %w", err)
	}
	su.cold = time.Since(start)
	return su, nil
}

// stopServer shuts the server down, once; the store directories stay.
func (su *setUp) stopServer() error {
	if su.s == nil {
		return nil
	}
	s := su.s
	su.s = nil
	return s.stop()
}

func (su *setUp) tearDown() error {
	releaseAll(su.tenants)
	err := su.stopServer()
	if rerr := os.RemoveAll(su.root); err == nil {
		err = rerr
	}
	return err
}

// sample is one closed-loop request of the measured window.
type sample struct {
	request
	ms      float64
	cold    bool   // first request of a tenant visit: it faults the tenant in
	failure string // empty when the response was the golden one
}

// readLoop is the closed-loop client. It returns the samples started
// inside [from, until) and when the last of them was answered.
func readLoop(s *served, st *stream, from, until time.Time) (out []sample, last time.Time) {
	for {
		req, first := st.next()
		start := time.Now()
		if !start.Before(until) {
			return out, last
		}
		sum, err := s.get(req.url)
		end := time.Now()
		if start.Before(from) {
			continue
		}
		last = end
		out = append(out, sample{request: req, ms: ms(end.Sub(start)), cold: first, failure: differs(req.url, err, sum == req.hash)})
	}
}

// untraced is what one measured window yields.
type untraced struct {
	samples []sample
	elapsed time.Duration // first measured start to last measured reply
	plan    []*update     // mixed_rw only
	from    time.Duration // measured window as offsets into the plan
	w       *writer
}

// drive runs the workload's actors against a set-up server: warm-up, then
// the measured window.
func drive(cfg config, wl workload, su *setUp) (*untraced, error) {
	start := time.Now()
	from, until := start.Add(cfg.warmup()), start.Add(cfg.warmup()+cfg.window())
	res := &untraced{from: cfg.warmup()}

	var wg sync.WaitGroup
	if wl.writer {
		h, err := su.s.reg.Acquire(su.tenants[0].id)
		if err != nil {
			return nil, err
		}
		defer h.Close()
		hold := markerHold
		if short := cfg.window() / 15; short < hold {
			hold = short
		}
		res.w = newWriter(cfg.seed, su.tenants[0], h.Store(), su.s)
		res.plan = schedule(updateRate, cfg.warmup(), cfg.warmup()+cfg.window(), hold)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.w.run(res.plan, start, cfg.warmup()+cfg.window())
		}()
	}
	var last time.Time
	res.samples, last = readLoop(su.s, newStream(cfg.seed, su.tenants, wl), from, until)
	wg.Wait()
	if last.Before(until) {
		last = until
	}
	res.elapsed = last.Sub(from)
	return res, nil
}

// verifyDurable, called once the server is stopped, reopens the written
// tenant and requires the last acknowledged toggle
// states, no marker fragment and the golden answers — acknowledged writes
// survive a restart. Each check is counted in res. The pruned joins, which
// no workload sends (see stream), are asked too; how many of them differ
// from their golden answers is returned, not counted.
func verifyDurable(res *result, t *tenant, w *writer) (prunedJoinMismatches int, err error) {
	st, err := securexml.Open(t.dir, securexml.StoreOptions{})
	if err != nil {
		return 0, fmt.Errorf("reopen %s: %w", t.id, err)
	}
	defer st.Close()
	for n, want := range w.state {
		got, err := st.Accessible(writerGroup, mode, n)
		res.check(differs(fmt.Sprintf("after restart, %s on node %d", writerGroup, n), err, got == want))
	}
	ms, err := st.QueryUnrestricted(markerProbe(t).xpath)
	res.check(differs("after restart, marker fragments", err, len(ms) == 0))
	err = t.eachTarget(func(tg *target) error {
		ms, err := st.QueryCtx(bg, tg.user, mode, tg.xpath, tg.opts)
		why := differs("after restart, "+tg.url, err, sha256.Sum256(encodeMatches(ms)) == tg.hash)
		if !tg.prunedJoin() {
			res.check(why)
		} else if why != "" {
			prunedJoinMismatches++
			fmt.Fprintln(os.Stderr, "benchmark: known defect (README):", why)
		}
		return nil
	})
	return prunedJoinMismatches, err
}

// workDir is where a run of wl builds its tenants; set-ups follow one
// another there, each removing its directory when torn down.
func workDir(cfg config, wl workload) string {
	return filepath.Join(cfg.out, "work", fmt.Sprintf("%s-seed%d", wl.name, cfg.seed))
}
