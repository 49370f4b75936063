package registry

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, tenants int, opts ServerOptions) (*Server, []string, *httptest.Server) {
	t.Helper()
	root, ids := buildTenants(t, tenants)
	r, err := New(Options{Root: root, MaxOpen: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r, opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ids, ts
}

func get(t *testing.T, url string, hdr map[string]string) (int, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestServerAuth(t *testing.T) {
	tokens := map[string]Token{
		"alice-key": {Tenant: "tenant-00", Subject: "alice"},
		"bob-key":   {Tenant: "tenant-01", Subject: "bob"},
		"admin-key": {Tenant: "tenant-00", Subject: "alice", Admin: true},
	}
	s, _, ts := newTestServer(t, 2, ServerOptions{Tokens: tokens})
	defer s.Shutdown(context.Background())

	// No token → 401.
	if code, _ := get(t, ts.URL+"/query?xpath=//public", nil); code != http.StatusUnauthorized {
		t.Fatalf("no token: %d", code)
	}
	// Unknown token → 401.
	if code, _ := get(t, ts.URL+"/query?xpath=//public&token=nope", nil); code != http.StatusUnauthorized {
		t.Fatalf("bad token: %d", code)
	}
	// Valid token via Authorization header: subject comes from the token.
	code, body := get(t, ts.URL+"/query?xpath=//public", map[string]string{"Authorization": "Bearer alice-key"})
	if code != http.StatusOK {
		t.Fatalf("alice query: %d %s", code, body)
	}
	if !strings.Contains(body, "t0-p0") {
		t.Fatalf("alice answer missing tenant-00 content: %s", body)
	}
	// alice cannot read secrets — the view is subject-bound.
	_, body = get(t, ts.URL+"/query?xpath=//secret", map[string]string{"Authorization": "Bearer alice-key"})
	if strings.Contains(body, "t0-s0") {
		t.Fatalf("alice saw a secret: %s", body)
	}
	// Token pinned to another tenant cannot name this one.
	if code, _ = get(t, ts.URL+"/query?xpath=//public&tenant=tenant-00&token=bob-key", nil); code != http.StatusForbidden {
		t.Fatalf("cross-tenant: %d", code)
	}
	// Non-admin token cannot switch subject or run unrestricted.
	if code, _ = get(t, ts.URL+"/query?xpath=//secret&user=bob&token=alice-key", nil); code != http.StatusForbidden {
		t.Fatalf("subject switch: %d", code)
	}
	if code, _ = get(t, ts.URL+"/query?xpath=//secret&admin=1&token=alice-key", nil); code != http.StatusForbidden {
		t.Fatalf("non-admin unrestricted: %d", code)
	}
	// Admin token may do both.
	code, body = get(t, ts.URL+"/query?xpath=//secret&admin=1&token=admin-key", nil)
	if code != http.StatusOK || !strings.Contains(body, "t0-s0") {
		t.Fatalf("admin unrestricted: %d %s", code, body)
	}
	if code, _ = get(t, ts.URL+"/query?xpath=//public&user=bob&token=admin-key", nil); code != http.StatusOK {
		t.Fatalf("admin subject switch: %d", code)
	}
	// Unknown tenant on an open-mode server 404s rather than creating dirs.
	if code, _ = get(t, ts.URL+"/tenants", nil); code != http.StatusOK {
		t.Fatalf("/tenants: %d", code)
	}
}

// A malformed or negative limit is a 400 on /query and /explain, never a
// silently unbounded query; an empty value keeps meaning "no limit".
func TestServerLimitParam(t *testing.T) {
	s, ids, ts := newTestServer(t, 1, ServerOptions{})
	defer s.Shutdown(context.Background())
	for _, tc := range []struct {
		limit string
		want  int
	}{
		{"10", http.StatusOK},
		{"", http.StatusOK},
		{"abc", http.StatusBadRequest},
		{"-1", http.StatusBadRequest},
		{"1e3", http.StatusBadRequest},
	} {
		for _, ep := range []string{"/query", "/explain"} {
			code, body := get(t, ts.URL+ep+"?tenant="+ids[0]+"&user=alice&xpath=//public&limit="+tc.limit, nil)
			if code != tc.want {
				t.Errorf("%s limit=%q: status %d, want %d (%s)", ep, tc.limit, code, tc.want, body)
			}
			if tc.want == http.StatusBadRequest && !strings.Contains(body, "limit") {
				t.Errorf("%s limit=%q: message %q does not name the parameter", ep, tc.limit, body)
			}
		}
	}
}

func TestServerOpenMode(t *testing.T) {
	s, ids, ts := newTestServer(t, 1, ServerOptions{})
	defer s.Shutdown(context.Background())
	code, body := get(t, ts.URL+"/query?tenant="+ids[0]+"&user=alice&xpath=//public", nil)
	if code != http.StatusOK || !strings.Contains(body, "t0-p0") {
		t.Fatalf("open mode query: %d %s", code, body)
	}
	// Traversal attempts die in TenantPath, not on the filesystem.
	if code, _ := get(t, ts.URL+"/query?tenant=../etc&user=alice&xpath=//public", nil); code != http.StatusNotFound {
		t.Fatalf("traversal tenant: %d", code)
	}
	if code, _ := get(t, ts.URL+"/query?user=alice&xpath=//public", nil); code != http.StatusBadRequest {
		t.Fatalf("missing tenant: %d", code)
	}
	// Metrics split by tenant after traffic.
	code, body = get(t, ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.Contains(body, "dolxml_registry_opens_total") {
		t.Fatalf("missing registry metrics: %s", body[:200])
	}
	if !strings.Contains(body, "dolxml_tenant_tenant_00_query_total") &&
		!strings.Contains(body, "dolxml_tenant_tenant_00_") {
		t.Fatalf("missing per-tenant metrics section:\n%s", body)
	}
}

func TestServerRateLimit(t *testing.T) {
	tokens := map[string]Token{"k1": {Tenant: "tenant-00", Subject: "alice"}}
	s, _, ts := newTestServer(t, 1, ServerOptions{Tokens: tokens, RatePerSec: 0.001, Burst: 2})
	defer s.Shutdown(context.Background())
	codes := []int{}
	for i := 0; i < 4; i++ {
		code, _ := get(t, ts.URL+"/query?xpath=//public&token=k1", nil)
		codes = append(codes, code)
	}
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("burst requests rejected: %v", codes)
	}
	if codes[2] != http.StatusTooManyRequests || codes[3] != http.StatusTooManyRequests {
		t.Fatalf("over-burst requests admitted: %v", codes)
	}
}

// TestServerShutdownDrain drives concurrent queries while Shutdown runs:
// every response must be a clean 200 or a 503 refusal — never an error from
// a store closed mid-query — and after Shutdown the registry is closed and
// new requests are refused.
func TestServerShutdownDrain(t *testing.T) {
	s, ids, ts := newTestServer(t, 3, ServerOptions{DrainTimeout: 5 * time.Second})

	var wg sync.WaitGroup
	errc := make(chan error, 32)
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				url := fmt.Sprintf("%s/query?tenant=%s&user=alice&xpath=//public", ts.URL, ids[(w+i)%len(ids)])
				resp, err := http.Get(url)
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					select {
					case errc <- fmt.Errorf("status %d: %s", resp.StatusCode, body):
					default:
					}
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(5 * time.Millisecond) // let some queries get in flight
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// Post-shutdown: requests are refused, registry is closed.
	resp, err := http.Get(ts.URL + "/query?tenant=" + ids[0] + "&user=alice&xpath=//public")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status %d", resp.StatusCode)
	}
	if _, err := s.reg.Acquire(ids[0]); err == nil {
		t.Fatal("registry still open after server shutdown")
	}
}
