package securexml

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dolxml/internal/obs"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
)

// xmarkXML serializes a generated XMark document back to markup so the
// builder can ingest the same tree the bench experiments query.
func xmarkXML(d *xmltree.Document) string {
	var sb strings.Builder
	var write func(n xmltree.NodeID)
	write = func(n xmltree.NodeID) {
		sb.WriteByte('<')
		sb.WriteString(d.Tag(n))
		// The parser models attributes as leading "@name" children; emit
		// them back as attributes so the round trip preserves the tree.
		c := d.FirstChild(n)
		for ; d.Valid(c) && strings.HasPrefix(d.Tag(c), "@"); c = d.NextSibling(c) {
			sb.WriteByte(' ')
			sb.WriteString(strings.TrimPrefix(d.Tag(c), "@"))
			sb.WriteString(`="`)
			xml.EscapeText(&sb, []byte(d.Value(c)))
			sb.WriteByte('"')
		}
		sb.WriteByte('>')
		if v := d.Value(n); v != "" {
			xml.EscapeText(&sb, []byte(v))
		}
		for ; d.Valid(c); c = d.NextSibling(c) {
			write(c)
		}
		sb.WriteString("</")
		sb.WriteString(d.Tag(n))
		sb.WriteByte('>')
	}
	write(d.Root())
	return sb.String()
}

// xmarkStore builds a securexml store over a small XMark instance with one
// user denied every <description> subtree, so both skip causes and
// candidate rejection have material to work on.
func xmarkStore(t *testing.T, opts StoreOptions) *Store {
	t.Helper()
	doc := xmark.Generate(xmark.Scaled(1, 8000))
	s, err := NewBuilder().
		LoadXMLString(xmarkXML(doc)).
		AddUser("u").
		Grant("u", "read", "/site").
		Revoke("u", "read", "//description").
		Seal(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// table1 is the bench workload's query set (Table 1 of the paper).
var table1 = []struct{ name, expr string }{
	{"Q1", "/site/regions/africa/item[location][name][quantity]"},
	{"Q2", "/site/categories/category[name]/description/text/bold"},
	{"Q3", "/site/categories/category/description/text/bold"},
	{"Q4", "//parlist//parlist"},
	{"Q5", "//listitem//keyword"},
	{"Q6", "//item//emph"},
}

func countKind(evs []TraceEvent, kind string) int64 {
	var n int64
	for _, e := range evs {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestQueryTraceInvariants is the acceptance matrix: for Q1–Q6 under both
// semantics, a traced run's per-page events must exactly account for every page pinned or skipped — trace pins equal the
// pool's Gets delta (hit flags included), skip events equal the registry's
// skip-counter deltas, and considered = read + skipped.
func TestQueryTraceInvariants(t *testing.T) {
	s := xmarkStore(t, StoreOptions{PageSize: 512})
	defer s.Close()
	ctx := context.Background()

	// Warm up: first queries build the page-deny bitmaps and settle the
	// decode cache; the invariants hold regardless, but warm runs keep the
	// hit/miss split deterministic enough to diagnose on failure.
	for _, pruned := range []bool{false, true} {
		if _, err := s.QueryCtx(ctx, "u", "read", "//item", QueryOptions{Pruned: pruned}); err != nil {
			t.Fatal(err)
		}
	}

	for _, q := range table1 {
		for _, pruned := range []bool{false, true} {
			name := fmt.Sprintf("%s/pruned=%v", q.name, pruned)
			tr := NewQueryTrace()
			before := s.MetricsSnapshot()
			ms, err := s.QueryCtx(ctx, "u", "read", q.expr, QueryOptions{Pruned: pruned, Trace: tr})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			after := s.MetricsSnapshot()
			d := func(metric string) int64 { return after.Get(metric) - before.Get(metric) }
			evs := tr.Events()

			pins := countKind(evs, "page_pin")
			if pins != d("pool_gets") {
				t.Errorf("%s: trace pins %d != pool gets delta %d", name, pins, d("pool_gets"))
			}
			var hits int64
			for _, e := range evs {
				if e.Kind == "page_pin" && e.Hit {
					hits++
				}
			}
			if hits != d("pool_hits") || pins-hits != d("pool_misses") {
				t.Errorf("%s: trace hit/miss %d/%d != pool delta %d/%d",
					name, hits, pins-hits, d("pool_hits"), d("pool_misses"))
			}

			// Pages are skipped on the deny bitmap alone (§3.3).
			skipA := countKind(evs, "page_skip_access")
			if skipA != d("query_pages_skipped_access") {
				t.Errorf("%s: trace skips %d != registry delta %d", name,
					skipA, d("query_pages_skipped_access"))
			}
			if countKind(evs, "candidate_reject") != d("query_candidates_rejected") {
				t.Errorf("%s: trace rejects %d != registry delta %d", name,
					countKind(evs, "candidate_reject"), d("query_candidates_rejected"))
			}

			if tr.PageReads() != pins || tr.PageSkips() != skipA {
				t.Errorf("%s: accessors disagree with events: reads %d/%d skips %d/%d",
					name, tr.PageReads(), pins, tr.PageSkips(), skipA)
			}
			if tr.PagesConsidered() != tr.PageReads()+tr.PageSkips() {
				t.Errorf("%s: considered %d != read %d + skipped %d",
					name, tr.PagesConsidered(), tr.PageReads(), tr.PageSkips())
			}

			if emits := countKind(evs, "emit"); emits != int64(len(ms)) || emits != d("query_answers_total") {
				t.Errorf("%s: emits %d, answers %d, registry delta %d", name,
					emits, len(ms), d("query_answers_total"))
			}
			if d("query_total") != 1 {
				t.Errorf("%s: query_total delta = %d, want 1", name, d("query_total"))
			}
			hc := after.Histograms["query_latency_us"].Count - before.Histograms["query_latency_us"].Count
			if hc != 1 {
				t.Errorf("%s: latency histogram count delta = %d, want 1", name, hc)
			}
			if tr.Dropped() != 0 {
				t.Errorf("%s: trace dropped %d events", name, tr.Dropped())
			}
		}
	}
}

// TestCursorTraceAccounting checks a scan pipeline stopped early by a
// Limit: the pins of its cursors are traced, and its answer, skip and
// reject counters land in the registry as the trace counts them.
func TestCursorTraceAccounting(t *testing.T) {
	s := xmarkStore(t, StoreOptions{PageSize: 512})
	defer s.Close()
	ctx := context.Background()
	all, err := s.QueryCtx(ctx, "u", "read", "//item[//name]", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) <= 5 {
		t.Fatalf("fixture shows u only %d answers, need more than 5", len(all))
	}

	tr := NewQueryTrace()
	before := s.MetricsSnapshot()
	got, err := s.QueryCtx(ctx, "u", "read", "//item[//name]", QueryOptions{Trace: tr, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	after := s.MetricsSnapshot()
	d := func(metric string) int64 { return after.Get(metric) - before.Get(metric) }

	if pins := countKind(tr.Events(), "page_pin"); pins != d("pool_gets") {
		t.Errorf("trace pins %d != pool gets delta %d", pins, d("pool_gets"))
	}
	if len(got) != 5 || d("query_answers_total") != 5 {
		t.Errorf("%d answers, query_answers_total delta = %d, want 5", len(got), d("query_answers_total"))
	}
	if d("query_total") != 1 {
		t.Errorf("query_total delta = %d, want 1", d("query_total"))
	}
	if skips, rejects := tr.PageSkips(), countKind(tr.Events(), "candidate_reject"); d("query_pages_skipped_access") != skips || d("query_candidates_rejected") != rejects {
		t.Errorf("registry skips/rejects %d/%d != the trace's %d/%d",
			d("query_pages_skipped_access"), d("query_candidates_rejected"), skips, rejects)
	}
}

// storeMetricNames is every name a store's registry holds, memory-backed
// or file-backed; walMetricNames are the ones a file-backed store adds.
var (
	storeMetricNames = []string{
		"codebook_bytes", "codebook_entries", "codebook_subjects",
		"decode_cache_budget_bytes", "decode_cache_bytes", "decode_cache_entries",
		"decode_cache_evictions", "decode_cache_hits", "decode_cache_misses",
		"directory_bytes", "index_bytes",
		"io_allocs", "io_reads", "io_syncs", "io_writes",
		"path_summary_bytes", "plan_memo_bytes",
		"pool_buffered", "pool_capacity", "pool_evictions", "pool_flushes",
		"pool_gets", "pool_hits", "pool_misses", "pool_pin_waits_total", "pool_pinned",
		"query_answers_total", "query_candidates_rejected", "query_errors",
		"query_latency_us", "query_matches_total", "query_pages_skipped_access",
		"query_path_classes_preresolved", "query_path_empty_total",
		"query_slow_total", "query_total", "query_trace_dropped_total",
		"recode_relayouts", "recode_splices",
		"recorder_fingerprints", "recorder_queries", "sidecar_bytes",
		"skipmask_compile_hits", "skipmask_compile_misses",
		"slo_burn_rate_permille", "slo_latency_objective_us",
		"slo_queries_over_objective", "slo_queries_total",
		"snapshot_oldest_pin_age_us", "snapshot_pin_us", "snapshot_pins",
		"snapshot_unpins", "snapshot_versions_live",
		"store_nodes", "store_pages",
		"value_ref_bytes",
		"view_bitmap_builds", "view_decisions_computed",
	}
	walMetricNames = []string{
		"commit_wait_us",
		"wal_begins", "wal_commits", "wal_fsyncs", "wal_group_size",
		"wal_log_appends", "wal_log_bytes", "wal_pending_batches", "wal_rollbacks",
	}
)

// TestMetricNamesValidAndUnique is the guard test: every registered name
// is lowercase_snake and unique, and a fresh store registers exactly the
// canonical set — storeMetricNames, plus walMetricNames when file-backed —
// whether its registry is first read before any query or after one.
func TestMetricNamesValidAndUnique(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	check := func(t *testing.T, what string, s *Store, want []string) {
		names := s.MetricNames()
		seen := map[string]bool{}
		for _, n := range names {
			if !snake.MatchString(n) {
				t.Errorf("%s: metric %q is not lowercase_snake", what, n)
			}
			if !obs.ValidName(n) {
				t.Errorf("%s: obs.ValidName rejects metric %q, which the grammar's regexp takes", what, n)
			}
			if seen[n] {
				t.Errorf("%s: metric %q registered twice", what, n)
			}
			seen[n] = true
		}
		for _, w := range want {
			if !seen[w] {
				t.Errorf("%s: canonical metric %q missing", what, w)
			}
			delete(seen, w)
		}
		for n := range seen {
			t.Errorf("%s: metric %q is not in the canonical set", what, n)
		}
	}
	file := slices.Concat(storeMetricNames, walMetricNames)
	for _, tc := range []struct {
		name string
		opts func() StoreOptions
		want []string
	}{
		{"memory", func() StoreOptions { return StoreOptions{PageSize: 256} }, storeMetricNames},
		{"file", func() StoreOptions {
			return StoreOptions{PageSize: 256, Path: filepath.Join(t.TempDir(), "pages.dol")}
		}, file},
	} {
		fresh := bigStore(t, tc.opts())
		check(t, tc.name+" before any query", fresh, tc.want)
		if _, err := fresh.QueryCtx(context.Background(), "reader", "read", "//book[title]", QueryOptions{}); err != nil {
			t.Fatal(err)
		}
		check(t, tc.name+" after a query", fresh, tc.want)
		fresh.Close()

		queried := bigStore(t, tc.opts())
		if _, err := queried.QueryCtx(context.Background(), "reader", "read", "//book[title]", QueryOptions{}); err != nil {
			t.Fatal(err)
		}
		check(t, tc.name+" first read after a query", queried, tc.want)
		queried.Close()
	}
}

// The codebook_bytes gauge and Stats.CodebookBytes report the heap the
// codebook's rows hold (dol.Codebook.HeapBytes), not the paper's bit per
// subject per row (dol.Codebook.Bytes).
func TestCodebookBytesReportTheHeap(t *testing.T) {
	s := hospitalStore(t, StoreOptions{})
	defer s.Close()
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	cb := s.cur.Load().ss.Codebook()
	if gauge := s.MetricsSnapshot().Get("codebook_bytes"); gauge != int64(cb.HeapBytes()) || st.CodebookBytes != cb.HeapBytes() || cb.HeapBytes() == cb.Bytes() {
		t.Fatalf("codebook_bytes %d, Stats.CodebookBytes %d; want the heap's %d, not the paper's %d", gauge, st.CodebookBytes, cb.HeapBytes(), cb.Bytes())
	}
}

// TestDebugHandlerEndpoints asserts the acceptance criterion that the HTTP
// surfaces expose the same counters as the in-process snapshot: the JSON
// body decodes into Metrics field-for-field, and the Prometheus text
// carries the identical values under the dolxml_ prefix.
func TestDebugHandlerEndpoints(t *testing.T) {
	s := bigStore(t, StoreOptions{PageSize: 256})
	defer s.Close()
	if _, err := s.QueryCtx(context.Background(), "reader", "read", "//book[title]", QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.DebugHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/debug/vars Content-Type = %q", ct)
	}
	var got Metrics
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := s.MetricsSnapshot()
	for name, v := range want.Counters {
		if got.Counters[name] != v {
			t.Errorf("JSON counter %s = %d, want %d", name, got.Counters[name], v)
		}
	}
	if got.Histograms["query_latency_us"].Count != want.Histograms["query_latency_us"].Count {
		t.Error("JSON histogram count diverges from snapshot")
	}

	resp2, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp2.Body); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, name := range []string{"pool_gets", "query_total", "query_answers_total"} {
		line := fmt.Sprintf("dolxml_%s %d\n", name, want.Counters[name])
		if !strings.Contains(prom, line) {
			t.Errorf("Prometheus output missing %q", strings.TrimSpace(line))
		}
	}
	if !strings.Contains(prom, "# TYPE dolxml_query_latency_us histogram") {
		t.Error("Prometheus output missing the latency histogram")
	}
}

// TestSlowQueryLog checks that a threshold-armed store traces internally
// and dumps any slow query's event log to the configured writer.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	s := bigStore(t, StoreOptions{
		PageSize:           256,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       &buf,
	})
	defer s.Close()
	// A descendant predicate keeps the query on the matcher, which reads
	// its candidates' blocks: the report has page pins to show.
	if _, err := s.QueryCtx(context.Background(), "reader", "read", "//book[//title]", QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "slow query") || !strings.Contains(out, "//book[//title]") {
		t.Fatalf("slow-query log missing header: %q", out)
	}
	if !strings.Contains(out, "page_pin") {
		t.Fatalf("slow-query log missing trace events: %q", out)
	}
	if got := s.MetricsSnapshot().Get("query_slow_total"); got == 0 {
		t.Error("query_slow_total not incremented")
	}
}

// Slow-query reports from concurrently finishing queries must land in the
// (not necessarily goroutine-safe) SlowQueryLog writer whole: one Write per
// report, serialized by the store.
func TestSlowQueryLogConcurrent(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		if !bytes.HasPrefix(p, []byte("securexml: slow query")) {
			t.Errorf("partial slow-query write: %q", p[:min(len(p), 60)])
		}
		return buf.Write(p)
	})
	s := bigStore(t, StoreOptions{
		PageSize:           256,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       w,
	})
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.QueryCtx(context.Background(), "reader", "read", "//book[title]", QueryOptions{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if got := strings.Count(buf.String(), "securexml: slow query"); got != 8 {
		t.Errorf("want 8 slow-query reports, got %d", got)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// The registry is built at its first read, and builds the same names
// whenever that is: before a store's first query or after it.
func TestMetricNamesSameBeforeAndAfterFirstQuery(t *testing.T) {
	dir, _ := churnTenant(t, 2, 7, 1500, 512)
	names := func(query bool) []string {
		s, err := Open(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if query {
			if _, err := s.QueryCtx(context.Background(), "u00", "read", "//listitem//keyword", QueryOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		return s.MetricNames()
	}
	before, after := names(false), names(true)
	if !slices.Equal(before, after) {
		t.Fatalf("a store's metric names before its first query:\n%v\nafter it:\n%v", before, after)
	}
	if !slices.Contains(before, "io_syncs") {
		t.Fatalf("io_syncs missing from %v", before)
	}
}
