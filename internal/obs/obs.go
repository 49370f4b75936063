// Package obs is the store-wide observability substrate: atomic counters,
// function-backed gauges, power-of-two-bucket histograms, and a Registry
// that exports every registered metric under one canonical lowercase_snake
// name — as a typed snapshot, as /debug/vars-style JSON, and as Prometheus
// text. It also provides the per-query Trace (see trace.go) that explains
// why each page was read or skipped.
//
// The paper's central claims are I/O-count claims (access checks ride along
// with structure pages "with no extra I/O"; page skipping avoids reads
// outright), so every layer of the store registers its counters here and
// the ad-hoc stats structs of earlier revisions all read from this one
// source. The package is dependency-free (stdlib only) and every metric
// update is a single atomic operation, cheap enough to leave on
// permanently.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; Reset exists for benchmarks and tests that measure
// intervals on private components (registered store-level counters are
// never reset).
type Counter struct {
	v atomic.Int64
}

// NewCounter returns a fresh counter (equivalent to new(Counter)).
func NewCounter() *Counter { return &Counter{} }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the counter to stay monotonic;
// this is not enforced, interval arithmetic in benchmarks relies on it).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset zeroes the counter. For benchmark/test intervals only.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a function-backed instantaneous value, sampled at snapshot
// time. Backing a gauge with a closure keeps derived quantities (pool
// residency, cache bytes, pager totals) correct even when the underlying
// component is rebuilt, as long as the closure reads through the owner.
type Gauge func() int64

// Histogram accumulates int64 observations into power-of-two buckets:
// bucket i counts observations v with 2^(i-1) < v <= 2^i (bucket 0 counts
// v <= 1). Observation and snapshotting are lock-free; the histogram is
// safe for concurrent use. Typical uses are query latencies in
// microseconds and result sizes.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [65]atomic.Int64
}

// NewHistogram returns a fresh histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1))
}

// Observe records one value. Negative values clamp to 0.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram. Buckets maps
// the inclusive upper bound of each non-empty bucket (1, 2, 4, 8, …) to
// its count.
type HistogramSnapshot struct {
	Count   int64           `json:"count"`
	Sum     int64           `json:"sum"`
	Buckets map[int64]int64 `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: map[int64]int64{},
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets[upperBound(i)] = n
		}
	}
	return s
}

// upperBound returns the inclusive upper bound of bucket i.
func upperBound(i int) int64 {
	if i >= 63 {
		return int64(1) << 62 // clamp: the top bucket's nominal bound overflows
	}
	return int64(1) << uint(i)
}

// ValidName reports whether name is a legal metric name: lowercase_snake,
// starting with a letter (`^[a-z][a-z0-9_]*$`). One grammar everywhere
// keeps the JSON and Prometheus exports (and the paper-figure metric table
// in DESIGN.md) in one namespace.
func ValidName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// Registry holds named metrics. Registration is rare (store construction);
// lookups during export take a read lock; metric updates never touch the
// registry at all — holders update their Counter/Histogram pointers
// directly.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]Gauge
	hists    map[string]*Histogram
	help     map[string]string
	// helpTable is shared, read-only help text for names help lacks.
	helpTable map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]Gauge{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
	}
}

// SetHelp records the help text exported on the metric family's # HELP
// line. Registration sites call it right next to the metric registration;
// names without help get a generated fallback so the exposition always
// carries a HELP line per family.
func (r *Registry) SetHelp(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// SetHelpTable makes table, which the caller never modifies again, the help
// text of every name SetHelp has not set: a component that registers many
// metrics on many registries shares one table instead of copying it.
func (r *Registry) SetHelpTable(table map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.helpTable = table
}

// helpFor returns the help text for name, falling back to the help table,
// then to a generated sentence. Callers hold at least the read lock.
func (r *Registry) helpFor(name string) string {
	if h, ok := r.help[name]; ok && h != "" {
		return h
	}
	if h := r.helpTable[name]; h != "" {
		return h
	}
	return strings.ReplaceAll(name, "_", " ") + "."
}

// escapeHelp escapes backslashes and newlines per the Prometheus text
// exposition format's HELP rules.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// register validates the name and its uniqueness across all metric kinds.
func (r *Registry) register(name string) error {
	if !ValidName(name) {
		return fmt.Errorf("obs: invalid metric name %q (want lowercase_snake)", name)
	}
	if _, ok := r.counters[name]; ok {
		return fmt.Errorf("obs: duplicate metric name %q", name)
	}
	if _, ok := r.gauges[name]; ok {
		return fmt.Errorf("obs: duplicate metric name %q", name)
	}
	if _, ok := r.hists[name]; ok {
		return fmt.Errorf("obs: duplicate metric name %q", name)
	}
	return nil
}

// RegisterCounter adds an existing counter under name.
func (r *Registry) RegisterCounter(name string, c *Counter) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.register(name); err != nil {
		return err
	}
	r.counters[name] = c
	return nil
}

// Counter registers and returns a new counter under name, panicking on an
// invalid or duplicate name — registration happens at construction time,
// where a bad name is a programming error.
func (r *Registry) Counter(name string) *Counter {
	c := NewCounter()
	if err := r.RegisterCounter(name, c); err != nil {
		panic(err)
	}
	return c
}

// RegisterGauge adds a function-backed gauge under name.
func (r *Registry) RegisterGauge(name string, g Gauge) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.register(name); err != nil {
		return err
	}
	r.gauges[name] = g
	return nil
}

// Gauge registers fn as a gauge under name, panicking on an invalid or
// duplicate name.
func (r *Registry) Gauge(name string, fn Gauge) {
	if err := r.RegisterGauge(name, fn); err != nil {
		panic(err)
	}
}

// RegisterHistogram adds an existing histogram under name.
func (r *Registry) RegisterHistogram(name string, h *Histogram) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.register(name); err != nil {
		return err
	}
	r.hists[name] = h
	return nil
}

// Histogram registers and returns a new histogram under name, panicking on
// an invalid or duplicate name.
func (r *Registry) Histogram(name string) *Histogram {
	h := NewHistogram()
	if err := r.RegisterHistogram(name, h); err != nil {
		panic(err)
	}
	return h
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CounterValue returns the current value of the named counter (ok reports
// whether it exists).
func (r *Registry) CounterValue(name string) (int64, bool) {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c == nil {
		return 0, false
	}
	return c.Load(), true
}

// Snapshot is a point-in-time copy of every registered metric, ready for
// JSON encoding (the /debug/vars payload) or programmatic diffing around a
// query.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Get returns the named counter or gauge value from the snapshot (0 when
// absent) — the common access path for tests diffing two snapshots.
func (s Snapshot) Get(name string) int64 {
	if v, ok := s.Counters[name]; ok {
		return v
	}
	return s.Gauges[name]
}

// Snapshot captures every registered metric. Gauge functions run while the
// registry read lock is held; they must not call back into the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Load()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON — the /debug/vars-style
// export.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format, each name prefixed with prefix_ (pass "" for none). Counters
// become counters, gauges gauges, and histograms native Prometheus
// histograms with cumulative power-of-two le buckets. Every family gets a
// # HELP line (registered via SetHelp, generated otherwise) ahead of its
// # TYPE line, so scrapes pass promtool-style lint.
func (r *Registry) WritePrometheus(w io.Writer, prefix string) error {
	if prefix != "" {
		prefix += "_"
	}
	s := r.Snapshot()
	r.mu.RLock()
	help := make(map[string]string, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for _, m := range []map[string]int64{s.Counters, s.Gauges} {
		for n := range m {
			help[n] = r.helpFor(n)
		}
	}
	for n := range s.Histograms {
		help[n] = r.helpFor(n)
	}
	r.mu.RUnlock()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, n := range sortedKeys(s.Counters) {
		p("# HELP %s%s %s\n# TYPE %s%s counter\n%s%s %d\n",
			prefix, n, escapeHelp(help[n]), prefix, n, prefix, n, s.Counters[n])
	}
	for _, n := range sortedKeys(s.Gauges) {
		p("# HELP %s%s %s\n# TYPE %s%s gauge\n%s%s %d\n",
			prefix, n, escapeHelp(help[n]), prefix, n, prefix, n, s.Gauges[n])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Histograms[n]
		p("# HELP %s%s %s\n# TYPE %s%s histogram\n", prefix, n, escapeHelp(help[n]), prefix, n)
		bounds := make([]int64, 0, len(h.Buckets))
		for b := range h.Buckets {
			bounds = append(bounds, b)
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
		cum := int64(0)
		for _, b := range bounds {
			cum += h.Buckets[b]
			p("%s%s_bucket{le=\"%d\"} %d\n", prefix, n, b, cum)
		}
		p("%s%s_bucket{le=\"+Inf\"} %d\n", prefix, n, h.Count)
		p("%s%s_sum %d\n", prefix, n, h.Sum)
		p("%s%s_count %d\n", prefix, n, h.Count)
	}
	return err
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
