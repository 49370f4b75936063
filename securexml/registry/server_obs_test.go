package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dolxml/internal/obs"
	"dolxml/securexml"
)

// syncBuffer makes reads of the access-log buffer safe while handler
// goroutines may still be writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestServerExplain(t *testing.T) {
	s, ids, ts := newTestServer(t, 1, ServerOptions{})
	defer s.Shutdown(context.Background())
	base := ts.URL + "/explain?tenant=" + ids[0] + "&user=alice&xpath=//public"

	// Default JSON plan: compiled only, never executed.
	code, body := get(t, base, nil)
	if code != http.StatusOK {
		t.Fatalf("/explain: %d %s", code, body)
	}
	var plan struct {
		Query     string `json:"query"`
		Operators []any  `json:"operators"`
	}
	if err := json.Unmarshal([]byte(body), &plan); err != nil {
		t.Fatalf("plan not JSON: %v\n%s", err, body)
	}
	if plan.Query == "" || len(plan.Operators) == 0 {
		t.Fatalf("plan incomplete: %s", body)
	}

	// Text form renders the tree.
	code, body = get(t, base+"&format=text", nil)
	if code != http.StatusOK || !strings.Contains(body, "pattern:") {
		t.Fatalf("/explain text: %d %s", code, body)
	}

	// ANALYZE executes and attributes.
	code, body = get(t, base+"&analyze=1&format=text", nil)
	if code != http.StatusOK || !strings.Contains(body, "attribution") {
		t.Fatalf("/explain analyze: %d %s", code, body)
	}

	// A malformed query reports 400, not 500.
	if code, _ = get(t, ts.URL+"/explain?tenant="+ids[0]+"&user=alice&xpath=///", nil); code != http.StatusBadRequest {
		t.Fatalf("bad xpath: %d", code)
	}
}

func TestServerAccessLog(t *testing.T) {
	var logBuf syncBuffer
	s, ids, ts := newTestServer(t, 1, ServerOptions{AccessLog: &logBuf})
	defer s.Shutdown(context.Background())

	if code, _ := get(t, ts.URL+"/query?tenant="+ids[0]+"&user=alice&xpath=//public", nil); code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}
	if code, _ := get(t, ts.URL+"/query?tenant="+ids[0]+"&user=alice&xpath=///", nil); code != http.StatusBadRequest {
		t.Fatalf("bad query: %d", code)
	}
	if code, _ := get(t, ts.URL+"/explain?tenant="+ids[0]+"&user=alice&xpath=//public", nil); code != http.StatusOK {
		t.Fatalf("explain: %d", code)
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("access log has %d lines, want 3:\n%s", len(lines), logBuf.String())
	}
	type entry struct {
		At          string `json:"at"`
		Endpoint    string `json:"endpoint"`
		Tenant      string `json:"tenant"`
		Subject     string `json:"subject"`
		XPath       string `json:"xpath"`
		Status      int    `json:"status"`
		LatencyUs   int64  `json:"latency_us"`
		Pages       int64  `json:"pages"`
		Answers     int    `json:"answers"`
		Fingerprint string `json:"fingerprint"`
	}
	var es []entry
	for i, ln := range lines {
		var e entry
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, ln)
		}
		es = append(es, e)
	}
	fp, err := securexml.QueryFingerprint("//public", securexml.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ok := es[0]
	if ok.Endpoint != "/query" || ok.Tenant != ids[0] || ok.Subject != "alice" ||
		ok.Status != http.StatusOK || ok.Answers == 0 || ok.Fingerprint != fp || ok.At == "" {
		t.Errorf("query line wrong: %+v", ok)
	}
	if ok.Pages == 0 {
		t.Errorf("query line recorded no pages: %+v", ok)
	}
	if es[1].Status != http.StatusBadRequest || es[1].XPath != "///" {
		t.Errorf("error line wrong: %+v", es[1])
	}
	if es[2].Endpoint != "/explain" || es[2].Status != http.StatusOK {
		t.Errorf("explain line wrong: %+v", es[2])
	}
}

// TestServerMetricsLint validates the multi-tenant exposition — every
// tenant's families prefixed and re-HELPed — with the strict parser, and
// checks the per-tenant SLO burn gauges are present (the registry arms a
// default objective).
func TestServerMetricsLint(t *testing.T) {
	s, ids, ts := newTestServer(t, 2, ServerOptions{})
	defer s.Shutdown(context.Background())
	for _, id := range ids {
		if code, _ := get(t, ts.URL+"/query?tenant="+id+"&user=alice&xpath=//public", nil); code != http.StatusOK {
			t.Fatalf("query %s failed", id)
		}
	}
	code, body := get(t, ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if errs := obs.LintPrometheus(strings.NewReader(body)); len(errs) > 0 {
		t.Fatalf("/metrics fails lint: %v", errs)
	}
	for _, want := range []string{
		"dolxml_" + MetricsSlug(ids[0]) + "_slo_burn_rate_permille",
		"dolxml_" + MetricsSlug(ids[1]) + "_slo_burn_rate_permille",
		"dolxml_" + MetricsSlug(ids[0]) + "_recorder_queries",
		"# HELP dolxml_" + MetricsSlug(ids[0]) + "_query_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestPerTenantSLO checks that each tenant's burn gauge exports under its
// own prefix: under an objective every query misses, the tenant that was
// queried burns and the one that was only opened does not.
func TestPerTenantSLO(t *testing.T) {
	root, ids := buildTenants(t, 2)
	r, err := New(Options{Root: root, MaxOpen: 4, Store: securexml.StoreOptions{SLOLatency: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRegistry(t, r)
	for i, id := range ids {
		h, err := r.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if _, err := h.Store().QueryCtx(context.Background(), "alice", "read", "//public", securexml.QueryOptions{}); err != nil {
				h.Close()
				t.Fatal(err)
			}
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := r.WriteMetricsPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	queried := "dolxml_" + MetricsSlug(ids[0]) + "_slo_burn_rate_permille 1000000"
	idle := "dolxml_" + MetricsSlug(ids[1]) + "_slo_burn_rate_permille 0"
	if !strings.Contains(exposition, queried) {
		t.Errorf("queried tenant not burning: want %q in exposition", queried)
	}
	if !strings.Contains(exposition, idle) {
		t.Errorf("idle tenant burning: want %q in exposition", idle)
	}
}
