package securexml

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dolxml/internal/obs"
)

// qUnsat pairs two tags that both exist in XMark but never in this
// parent-child relation — only the path summary can prove the query empty.
const qUnsat = "/site/people/person/parlist"

// TestStoreExplainUnsatisfiable is the acceptance criterion for the
// compile-time short-circuit: EXPLAIN reports it without pinning a single
// store page, and an executed run under a trace confirms the same
// zero-page property.
func TestStoreExplainUnsatisfiable(t *testing.T) {
	s := xmarkStore(t, StoreOptions{PageSize: 512})
	defer s.Close()
	ctx := context.Background()

	before := s.MetricsSnapshot()
	plan, err := s.Explain(ctx, "u", "read", qUnsat, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after := s.MetricsSnapshot()
	if !plan.Unsatisfiable() {
		t.Fatalf("plan not unsatisfiable:\n%s", plan)
	}
	if plan.Operators() != 0 {
		t.Fatalf("unsatisfiable plan has %d operators", plan.Operators())
	}
	if d := after.Get("pool_gets") - before.Get("pool_gets"); d != 0 {
		t.Fatalf("EXPLAIN pinned %d store pages", d)
	}
	if !strings.Contains(plan.String(), "no embedding in the path summary") {
		t.Errorf("text plan does not name the short-circuit:\n%s", plan)
	}
	raw, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"unsatisfiable":true`) {
		t.Errorf("JSON plan missing the verdict: %s", raw)
	}

	// The executed form: a traced run of the same query records no page
	// pin at all.
	tr := NewQueryTrace()
	ms, err := s.QueryCtx(ctx, "u", "read", qUnsat, QueryOptions{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("unsatisfiable query returned %d answers", len(ms))
	}
	if tr.PageReads() != 0 {
		t.Fatalf("unsatisfiable run pinned %d pages:\n%s", tr.PageReads(), tr)
	}
}

// TestStoreAnalyzeReconciles is the facade acceptance matrix: for Q1–Q6
// plus the unsatisfiable query, under both semantics, ANALYZE's
// per-operator page attribution must sum exactly to the store pool's pin
// delta — nothing double-counted, nothing lost.
func TestStoreAnalyzeReconciles(t *testing.T) {
	s := xmarkStore(t, StoreOptions{PageSize: 512})
	defer s.Close()
	ctx := context.Background()

	queries := append(append([]struct{ name, expr string }{}, table1...),
		struct{ name, expr string }{"Qunsat", qUnsat})
	for _, q := range queries {
		for _, pruned := range []bool{false, true} {
			name := fmt.Sprintf("%s/pruned=%v", q.name, pruned)
			an := &QueryAnalysis{}
			before := s.MetricsSnapshot()
			ms, err := s.QueryCtx(ctx, "u", "read", q.expr, QueryOptions{Pruned: pruned, Analyze: an})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			after := s.MetricsSnapshot()
			d := func(metric string) int64 { return after.Get(metric) - before.Get(metric) }
			if !an.Ready() {
				t.Fatalf("%s: analysis not filled", name)
			}
			tot := an.an.Totals()
			if tot.Pins != d("pool_gets") || tot.Hits != d("pool_hits") {
				t.Errorf("%s: attributed pins/hits %d/%d != pool delta %d/%d",
					name, tot.Pins, tot.Hits, d("pool_gets"), d("pool_hits"))
			}
			if an.TotalPages() != tot.Pins {
				t.Errorf("%s: TotalPages %d != totals %d", name, an.TotalPages(), tot.Pins)
			}
			if tot.Emits != int64(len(ms)) {
				t.Errorf("%s: attributed emits %d != %d answers", name, tot.Emits, len(ms))
			}
			if an.an.Dropped != 0 {
				t.Errorf("%s: analysis trace dropped %d events", name, an.an.Dropped)
			}
			if q.name == "Qunsat" {
				if !an.Plan().Unsatisfiable() || tot.Pins != 0 {
					t.Errorf("%s: want unsatisfiable 0-page analysis, got %d pins", name, tot.Pins)
				}
			} else if p := an.Plan(); !p.EmptyAccess() && p.Operators() == 0 {
				// Q2–Q6 touch subtrees fully revoked for user u, so
				// their plans legitimately short-circuit as
				// access-empty with no operators.
				t.Errorf("%s: satisfiable plan has no operators", name)
			}
			var sb strings.Builder
			if err := an.WriteText(&sb); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !strings.Contains(sb.String(), "attribution") {
				t.Errorf("%s: report lacks attribution table:\n%s", name, sb.String())
			}
		}
	}
}

// The plan EXPLAIN shows is the plan evaluation runs: for Table 1 and the
// unsatisfiable query under both semantics, with and without a limit,
// Explain's plan — operator list, per-scan candidate and rejected-by-path
// counts, node annotations — equals
// the one ANALYZE embeds, which is rendered from the compiled value the
// pipeline was instantiated from. EXPLAIN itself pins no store page.
func TestExplainAgreesWithExecutedPlan(t *testing.T) {
	s := snapStore(t, snapFixtureXML(t, 8000), StoreOptions{PageSize: 512})
	defer s.Close()
	ctx := context.Background()

	queries := append(append([]struct{ name, expr string }{}, table1...),
		struct{ name, expr string }{"Qunsat", qUnsat})
	var routed int
	for _, q := range queries {
		for _, pruned := range []bool{false, true} {
			for _, limit := range []int{0, 10} {
				name := fmt.Sprintf("%s/pruned=%v/limit=%d", q.name, pruned, limit)
				opts := QueryOptions{Pruned: pruned, Limit: limit}
				gets := s.PoolStats().Gets
				plan, err := s.Explain(ctx, "u", "read", q.expr, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if d := s.PoolStats().Gets - gets; d != 0 {
					t.Errorf("%s: EXPLAIN pinned %d store pages", name, d)
				}
				an := &QueryAnalysis{}
				opts.Analyze = an
				if _, err := s.QueryCtx(ctx, "u", "read", q.expr, opts); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(plan.p, an.an.Plan) {
					t.Errorf("%s: EXPLAIN and the executed plan differ:\n%s\n-- executed --\n%s", name, plan, an.Plan())
				}
				for _, op := range plan.p.Operators {
					if op.RejectedByPath > 0 {
						routed++
					}
				}
			}
		}
	}
	if routed == 0 {
		t.Error("matrix compared no routed scan")
	}
}

// An unfilled analysis refuses to render, and a parse error leaves it
// unfilled.
func TestAnalyzeErrorPaths(t *testing.T) {
	s := xmarkStore(t, StoreOptions{PageSize: 512})
	defer s.Close()
	an := &QueryAnalysis{}
	if err := an.WriteText(io.Discard); err == nil {
		t.Error("unfilled analysis rendered without error")
	}
	if _, err := s.QueryCtx(context.Background(), "u", "read", "///", QueryOptions{Analyze: an}); err == nil {
		t.Error("malformed query did not error")
	}
	if an.Ready() {
		t.Error("analysis filled despite query error")
	}
}

// TestFlightRecorderAlwaysOn checks the untraced path: every query leaves
// a digest, aggregates key by normalized fingerprint, and /debug/queries
// serves the snapshot.
func TestFlightRecorderAlwaysOn(t *testing.T) {
	s := xmarkStore(t, StoreOptions{PageSize: 512})
	defer s.Close()
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := s.QueryCtx(ctx, "u", "read", table1[0].expr, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.QueryCtx(ctx, "u", "read", table1[3].expr, QueryOptions{Pruned: true}); err != nil {
		t.Fatal(err)
	}
	// Errors are recorded too (the parse failed, so the fingerprint is
	// empty but the digest still lands).
	if _, err := s.QueryCtx(ctx, "u", "read", "///", QueryOptions{}); err == nil {
		t.Fatal("malformed query did not error")
	}

	m := s.MetricsSnapshot()
	if got := m.Get("recorder_queries"); got != 5 {
		t.Errorf("recorder_queries = %d, want 5", got)
	}

	var buf bytes.Buffer
	if err := s.WriteRecorderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Total        int64 `json:"total"`
		Fingerprints []struct {
			Fingerprint string `json:"fingerprint"`
			Count       int64  `json:"count"`
			Errors      int64  `json:"errors"`
			Pages       int64  `json:"pages"`
		} `json:"fingerprints"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Total != 5 {
		t.Errorf("recorder total = %d, want 5", snap.Total)
	}
	fpQ1, err := QueryFingerprint(table1[0].expr, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fp := range snap.Fingerprints {
		if fp.Fingerprint == fpQ1 {
			found = true
			if fp.Count != 3 {
				t.Errorf("fingerprint %q count = %d, want 3", fpQ1, fp.Count)
			}
			if fp.Pages == 0 {
				t.Errorf("fingerprint %q recorded no pages (counting trace not attached?)", fpQ1)
			}
		}
	}
	if !found {
		t.Fatalf("fingerprint %q not aggregated: %s", fpQ1, buf.String())
	}

	// The same snapshot over HTTP, JSON and text.
	srv := httptest.NewServer(s.DebugHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), fpQ1) {
		t.Errorf("/debug/queries: %d, body missing fingerprint", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/debug/queries?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "flight recorder") {
		t.Errorf("text report wrong: %s", body)
	}
}

// Pruned and bindings semantics must not share a fingerprint, and the
// fingerprint normalizes the pattern render rather than the raw text.
func TestQueryFingerprintNormalization(t *testing.T) {
	fp1, err := QueryFingerprint("//item[location]", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := QueryFingerprint("//item[location]", QueryOptions{Pruned: true})
	if err != nil {
		t.Fatal(err)
	}
	fp3, err := QueryFingerprint("//item[location]", QueryOptions{Unrestricted: true})
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp2 || fp1 == fp3 || fp2 == fp3 {
		t.Errorf("semantics share a fingerprint: %q %q %q", fp1, fp2, fp3)
	}
	if !strings.HasSuffix(fp1, "|bindings") || !strings.HasSuffix(fp2, "|pruned") || !strings.HasSuffix(fp3, "|unrestricted") {
		t.Errorf("fingerprints missing semantics tag: %q %q %q", fp1, fp2, fp3)
	}
	if fpL, _ := QueryFingerprint("//item[location]", QueryOptions{Limit: 5}); fpL == fp1 || !strings.Contains(fpL, "|limit=5") {
		t.Errorf("limit not fingerprinted: %q", fpL)
	}
}

// TestSLOBurnRate pins the burn-rate math at both extremes: an objective
// every query misses burns at 1/(1-target), one no query misses burns 0.
func TestSLOBurnRate(t *testing.T) {
	s := xmarkStore(t, StoreOptions{PageSize: 512, SLOLatency: time.Nanosecond})
	defer s.Close()
	const n = 4
	for i := 0; i < n; i++ {
		if _, err := s.Query("u", "read", "//parlist//parlist"); err != nil {
			t.Fatal(err)
		}
	}
	m := s.MetricsSnapshot()
	if got := m.Get("slo_queries_total"); got != n {
		t.Errorf("slo_queries_total = %d, want %d", got, n)
	}
	if got := m.Get("slo_queries_over_objective"); got != n {
		t.Errorf("slo_queries_over_objective = %d, want %d", got, n)
	}
	// Every query over, target 0.999: burn = 1/0.001 * 1000 permille.
	if got := m.Get("slo_burn_rate_permille"); got != 1_000_000 {
		t.Errorf("slo_burn_rate_permille = %d, want 1000000", got)
	}

	relaxed := xmarkStore(t, StoreOptions{PageSize: 512, SLOLatency: time.Hour})
	defer relaxed.Close()
	if _, err := relaxed.Query("u", "read", "//parlist//parlist"); err != nil {
		t.Fatal(err)
	}
	m = relaxed.MetricsSnapshot()
	if got := m.Get("slo_queries_over_objective"); got != 0 {
		t.Errorf("relaxed slo_queries_over_objective = %d, want 0", got)
	}
	if got := m.Get("slo_burn_rate_permille"); got != 0 {
		t.Errorf("relaxed slo_burn_rate_permille = %d, want 0", got)
	}
	if got := m.Get("slo_latency_objective_us"); got != time.Hour.Microseconds() {
		t.Errorf("slo_latency_objective_us = %d, want %d", got, time.Hour.Microseconds())
	}
}

// TestMetricsExpositionLints scrapes the single-store /metrics endpoint
// and validates the whole exposition with the strict parser: HELP before
// TYPE on every family, histogram buckets cumulative and capped by +Inf,
// no duplicate or interleaved families.
func TestMetricsExpositionLints(t *testing.T) {
	s := xmarkStore(t, StoreOptions{PageSize: 512, SLOLatency: 250 * time.Millisecond})
	defer s.Close()
	if _, err := s.Query("u", "read", "//item//emph"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.DebugHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exposition := string(body)
	if errs := obs.LintPrometheus(strings.NewReader(exposition)); len(errs) > 0 {
		t.Fatalf("/metrics fails lint: %v", errs)
	}
	for _, want := range []string{
		"# HELP dolxml_query_total Queries started.",
		"# HELP dolxml_slo_burn_rate_permille ",
		"# HELP dolxml_query_trace_dropped_total ",
		"# HELP dolxml_pool_gets ",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTraceDroppedCounter checks the spill path end to end: a tiny trace
// limit drops events and the store-wide counter advances at drop time.
func TestTraceDroppedCounter(t *testing.T) {
	s := xmarkStore(t, StoreOptions{PageSize: 512})
	defer s.Close()
	tr := &QueryTrace{t: obs.NewTraceWithLimit(4)}
	if _, err := s.QueryCtx(context.Background(), "u", "read", "//item//emph", QueryOptions{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() == 0 {
		t.Fatal("tiny trace dropped nothing")
	}
	if got := s.MetricsSnapshot().Get("query_trace_dropped_total"); got != tr.Dropped() {
		t.Errorf("query_trace_dropped_total = %d, want %d", got, tr.Dropped())
	}
}
