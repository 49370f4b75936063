package securexml

import (
	"io"
	"net/http"
)

// MetricsPrefix is prepended (with an underscore) to every metric name in
// the Prometheus text exposition, so dolxml stores are distinguishable on
// a shared scrape target.
const MetricsPrefix = "dolxml"

// HistogramSnapshot is the exported state of one latency histogram:
// observation count, sum, and power-of-two bucket upper bounds mapped to
// per-bucket (non-cumulative) counts.
type HistogramSnapshot struct {
	Count   int64           `json:"count"`
	Sum     int64           `json:"sum"`
	Buckets map[int64]int64 `json:"buckets,omitempty"`
}

// Metrics is a point-in-time copy of the store's whole registry. The JSON
// encoding is exactly what the /debug/vars endpoint serves, so a snapshot
// taken in-process and one scraped over HTTP are comparable field by
// field.
type Metrics struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Get returns the named counter or gauge value (0 when absent) — the
// common access path when diffing snapshots around a query.
func (m Metrics) Get(name string) int64 {
	if v, ok := m.Counters[name]; ok {
		return v
	}
	return m.Gauges[name]
}

// MetricsSnapshot copies every registered metric: buffer-pool and I/O
// traffic, WAL activity, decode-cache occupancy, access-decision cache
// work, store shape, and the query-level counters and latency histogram.
// See DESIGN.md §7 for the name table.
func (s *Store) MetricsSnapshot() Metrics {
	snap := s.registry().Snapshot()
	m := Metrics{
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: make(map[string]HistogramSnapshot, len(snap.Histograms)),
	}
	for n, h := range snap.Histograms {
		m.Histograms[n] = HistogramSnapshot{Count: h.Count, Sum: h.Sum, Buckets: h.Buckets}
	}
	return m
}

// MetricNames returns every registered metric name, sorted.
func (s *Store) MetricNames() []string { return s.registry().Names() }

// WriteMetricsJSON writes the registry as indented JSON (the /debug/vars
// payload).
func (s *Store) WriteMetricsJSON(w io.Writer) error { return s.registry().WriteJSON(w) }

// WriteMetricsPrometheus writes the registry in the Prometheus text
// exposition format under the dolxml_ prefix (the /metrics payload).
func (s *Store) WriteMetricsPrometheus(w io.Writer) error {
	return s.registry().WritePrometheus(w, MetricsPrefix)
}

// WriteMetricsPrometheusAs writes the registry in Prometheus text format
// under an explicit prefix instead of the default dolxml_. Multi-tenant
// servers use it to split one scrape target by tenant (dolxml_tenant_<id>).
func (s *Store) WriteMetricsPrometheusAs(w io.Writer, prefix string) error {
	return s.registry().WritePrometheus(w, prefix)
}

// WriteRecorderJSON writes the flight recorder's snapshot — recent query
// digests, per-fingerprint aggregates, slowest retained queries — as
// indented JSON (the /debug/queries payload).
func (s *Store) WriteRecorderJSON(w io.Writer) error { return s.rec.WriteJSON(w) }

// WriteRecorderText renders the flight recorder's snapshot as an aligned
// text report.
func (s *Store) WriteRecorderText(w io.Writer) error { return s.rec.WriteText(w) }

// DebugHandler serves the store's live metrics over HTTP:
//
//	/debug/vars     — the registry as JSON (expvar-style)
//	/metrics        — the same registry in Prometheus text format
//	/debug/queries  — the flight recorder (JSON; ?format=text for the report)
//
// Both endpoints read the same registry the in-process accessors do, so
// scraped numbers always agree with MetricsSnapshot. The handler holds no
// locks between requests and is safe to serve while queries and updates
// run; mount it wherever convenient (dolcli serve mounts it at /).
func (s *Store) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := s.WriteMetricsJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WriteMetricsPrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := s.WriteRecorderText(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := s.WriteRecorderJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}
