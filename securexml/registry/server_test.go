package registry

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dolxml/internal/storage"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
	"dolxml/securexml"
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

// TestServerStatusCodes is the status oracle of the served read path, both
// endpoints: the client's mistakes (a malformed or negative limit, an XPath
// that does not parse, an unknown user or mode) are 400 — never a silently
// unbounded query; a cancelled request is 503 + Retry-After; a store that
// cannot read its pages is 500; and the access log records the status sent.
// An empty limit keeps meaning "no limit".
func TestServerStatusCodes(t *testing.T) {
	root, ids := buildTenants(t, 1)
	var fp *storage.FaultPager
	r, err := New(Options{Root: root, Store: securexml.StoreOptions{
		WrapPager: func(p storage.Pager) storage.Pager {
			fp = storage.NewFaultPager(p)
			return fp
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf syncBuffer
	s := NewServer(r, ServerOptions{AccessLog: &logBuf})
	// The injected fault outlives the table, so the final flush fails too.
	defer s.Shutdown(context.Background())

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// killPager makes every later physical read fail and leaves the pool
	// one frame, so a query cannot be served from resident pages.
	killPager := func() {
		h, err := r.Acquire(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		fp.Arm(storage.Fault{Op: storage.FaultSync, N: 1})
		if err := fp.Sync(); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("arming sync = %v, want the injected fault", err)
		}
		if err := h.Store().SetPoolCapacity(1); err != nil {
			t.Fatal(err)
		}
	}
	const ok = "user=alice&xpath=//public&analyze=1"
	for _, tc := range []struct {
		name, params string
		ctx          context.Context
		before       func()
		want         int
		logged       bool   // the request reaches the store, so it is logged
		inBody       string // the message names what was wrong
	}{
		{name: "ok", params: ok, want: http.StatusOK, logged: true},
		{name: "limit 10", params: ok + "&limit=10", want: http.StatusOK, logged: true},
		{name: "empty limit", params: ok + "&limit=", want: http.StatusOK, logged: true},
		{name: "limit abc", params: ok + "&limit=abc", want: http.StatusBadRequest, inBody: "limit"},
		{name: "limit -1", params: ok + "&limit=-1", want: http.StatusBadRequest, inBody: "limit"},
		{name: "limit 1e3", params: ok + "&limit=1e3", want: http.StatusBadRequest, inBody: "limit"},
		{name: "bad xpath", params: "user=alice&xpath=///", want: http.StatusBadRequest, logged: true},
		{name: "unknown user", params: "user=nobody&xpath=//public", want: http.StatusBadRequest, logged: true, inBody: "nobody"},
		{name: "unknown mode", params: "user=alice&mode=fly&xpath=//public", want: http.StatusBadRequest, logged: true, inBody: "fly"},
		{name: "cancelled", params: ok, ctx: cancelled, want: http.StatusServiceUnavailable, logged: true},
		{name: "pager fault", params: ok, before: killPager, want: http.StatusInternalServerError, logged: true},
	} {
		if tc.before != nil {
			tc.before()
		}
		for _, ep := range []string{"/query", "/explain"} {
			logged := strings.Count(logBuf.String(), "\n")
			req := httptest.NewRequest("GET", ep+"?tenant="+ids[0]+"&"+tc.params, nil)
			if tc.ctx != nil {
				req = req.WithContext(tc.ctx)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			body := rec.Body.String()
			if rec.Code != tc.want {
				t.Errorf("%s %s: status %d, want %d (%s)", tc.name, ep, rec.Code, tc.want, body)
			}
			if !strings.Contains(body, tc.inBody) {
				t.Errorf("%s %s: message %q does not name %q", tc.name, ep, body, tc.inBody)
			}
			if (rec.Header().Get("Retry-After") != "") != (tc.want == http.StatusServiceUnavailable) {
				t.Errorf("%s %s: Retry-After = %q with status %d", tc.name, ep, rec.Header().Get("Retry-After"), rec.Code)
			}
			lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")[logged:]
			if !tc.logged {
				if len(lines) != 0 {
					t.Errorf("%s %s: logged %q, want nothing", tc.name, ep, lines)
				}
				continue
			}
			var e struct {
				Endpoint string `json:"endpoint"`
				Status   int    `json:"status"`
			}
			if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &e) != nil || e.Endpoint != ep || e.Status != rec.Code {
				t.Errorf("%s %s: access log %q, want one %s line with status %d", tc.name, ep, lines, ep, rec.Code)
			}
		}
	}
}

// TestServerAcquireStatusCodes is the status oracle of a request whose
// tenant cannot be pinned, on every endpoint that pins one: a tenant that
// does not exist (no directory, an ID outside the grammar) is 404, one whose
// page file is cut short is 500 — the store is there and broken — and a
// closed registry is 503 + Retry-After; each is logged under the status sent.
func TestServerAcquireStatusCodes(t *testing.T) {
	root, ids := buildTenants(t, 2)
	if err := os.Truncate(filepath.Join(root, ids[1], "pages.db"), 0); err != nil {
		t.Fatal(err)
	}
	r, err := New(Options{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf syncBuffer
	s := NewServer(r, ServerOptions{AccessLog: &logBuf})
	defer s.Shutdown(context.Background())
	for _, tc := range []struct {
		name, tenant string
		before       func()
		want         int
	}{
		{name: "ok", tenant: ids[0], want: http.StatusOK},
		{name: "absent", tenant: "tenant-99", want: http.StatusNotFound},
		{name: "bad id", tenant: "../" + ids[0], want: http.StatusNotFound},
		{name: "truncated page file", tenant: ids[1], want: http.StatusInternalServerError},
		{name: "closed registry", tenant: ids[0], before: func() { closeRegistry(t, r) }, want: http.StatusServiceUnavailable},
	} {
		if tc.before != nil {
			tc.before()
		}
		for _, ep := range []string{"/query", "/explain", "/debug/vars"} {
			logged := strings.Count(logBuf.String(), "\n")
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", ep+"?tenant="+url.QueryEscape(tc.tenant)+"&user=alice&xpath=//public", nil))
			if rec.Code != tc.want {
				t.Errorf("%s %s: status %d, want %d (%s)", tc.name, ep, rec.Code, tc.want, rec.Body)
			}
			if (rec.Header().Get("Retry-After") != "") != (tc.want == http.StatusServiceUnavailable) {
				t.Errorf("%s %s: Retry-After = %q with status %d", tc.name, ep, rec.Header().Get("Retry-After"), rec.Code)
			}
			if ep == "/debug/vars" && tc.want == http.StatusOK {
				continue // the store's own handler answers; it logs nothing
			}
			var e struct {
				Endpoint, Tenant string
				Status           int
			}
			lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")[logged:]
			if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &e) != nil || e.Endpoint != ep || e.Tenant != tc.tenant || e.Status != rec.Code {
				t.Errorf("%s %s: access log %q, want one %s line for %s with status %d", tc.name, ep, lines, ep, tc.tenant, rec.Code)
			}
		}
	}
}

// TestWildcardReturningTags: a "*" returning step is the one case a plan
// cannot name its answers' tags, so the facade reads them from the answers'
// blocks. Every answer's Tag — through Query, a drained QueryCursor and the
// /query body — is the document's, for a user who sees everything and one
// who has lost the //mailbox subtrees, under both semantics.
func TestWildcardReturningTags(t *testing.T) {
	doc := xmark.Generate(xmark.Scaled(3, 4000))
	var xb strings.Builder
	if err := doc.WriteXML(&xb); err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	st, err := securexml.NewBuilder().LoadXMLString(xb.String()).
		AddUser("all").Grant("all", "read", "/site").
		AddUser("some").Grant("some", "read", "/site").Revoke("some", "read", "//mailbox").
		Seal(securexml.StoreOptions{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Save(filepath.Join(root, "xm")); err != nil {
		t.Fatal(err)
	}
	r, err := New(Options{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r, ServerOptions{})
	defer s.Shutdown(context.Background())
	h, err := r.Acquire("xm")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ctx := context.Background()
	for _, xpath := range []string{"/site/regions/*", "//item/*", "//*[location]", "//open_auction/*/*"} {
		for _, user := range []string{"all", "some"} {
			for _, pruned := range []bool{false, true} {
				name := fmt.Sprintf("%s as %s, pruned=%v", xpath, user, pruned)
				opts := securexml.QueryOptions{Pruned: pruned}
				ms, err := h.Store().QueryCtx(ctx, user, "read", xpath, opts)
				if err != nil || len(ms) == 0 {
					t.Fatalf("%s: %d answers, %v", name, len(ms), err)
				}
				for _, m := range ms {
					if want := doc.Tag(xmltree.NodeID(m.Node)); m.Tag != want {
						t.Fatalf("%s: answer %d tagged %q, the document says %q", name, m.Node, m.Tag, want)
					}
				}
				cur, err := h.Store().QueryCursor(ctx, user, "read", xpath, opts)
				if err != nil {
					t.Fatal(err)
				}
				var streamed []securexml.Match
				for {
					m, ok, err := cur.Next(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					streamed = append(streamed, m)
				}
				if err := cur.Close(); err != nil {
					t.Fatal(err)
				}
				slices.SortFunc(streamed, func(a, b securexml.Match) int { return cmp.Compare(a.Node, b.Node) })
				if !slices.Equal(streamed, ms) {
					t.Errorf("%s: the cursor's %d answers are not Query's %d", name, len(streamed), len(ms))
				}
				q := url.Values{"tenant": {"xm"}, "user": {user}, "xpath": {xpath}}
				if pruned {
					q.Set("pruned", "1")
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", "/query?"+q.Encode(), nil))
				if want := appendMatchesJSON(nil, ms); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("%s: /query answered %d with %d bytes, want the %d of Query's answers", name, rec.Code, rec.Body.Len(), len(want))
				}
			}
		}
	}
}

// readGate holds a pager's physical reads back while shut.
type readGate struct {
	storage.Pager
	mu   sync.Mutex
	shut chan struct{} // nil while open
}

func (g *readGate) ReadPage(id storage.PageID, buf []byte) error {
	g.mu.Lock()
	shut := g.shut
	g.mu.Unlock()
	if shut != nil {
		<-shut
	}
	return g.Pager.ReadPage(id, buf)
}

func (g *readGate) set(shut bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if shut {
		g.shut = make(chan struct{})
	} else {
		close(g.shut)
		g.shut = nil
	}
}

// Sixteen concurrent requests on a tenant squeezed to the MinPoolPages floor
// of 8 frames, with every physical read held back so their pins pile up:
// the requests that find all 8 frames pinned wait for one instead of
// failing, and every answer is the one an idle server gives.
//
// The contention is built, not hoped for. Each request asks for the nodes of
// its own section, and a section spans several structure pages, so the first
// page a request reads — the one holding its section's first node — is no
// other request's. A last idle request over a section of its own, kept apart
// by padding, leaves the 8 frames holding that section's pages. With the
// reads then shut, request k pins a frame for its first page and stops in the
// pager: eight requests take the eight frames, the ninth has to wait.
func TestServerSqueezedTenantWaits(t *testing.T) {
	const requests = 16
	root := t.TempDir()
	dir := filepath.Join(root, "wide")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	section := func(name string) {
		fmt.Fprintf(&sb, "<s%s>", name)
		for i := 0; i < 300; i++ {
			fmt.Fprintf(&sb, "<t%s>value-%s-%d</t%s>", name, name, i, name)
		}
		fmt.Fprintf(&sb, "</s%s>", name)
	}
	sb.WriteString("<doc>")
	for k := 0; k < requests; k++ {
		section(fmt.Sprint(k))
	}
	section("pad")
	section("last")
	sb.WriteString("</doc>")
	st, err := securexml.NewBuilder().LoadXMLString(sb.String()).AddUser("alice").Grant("alice", "read", "/doc").
		Seal(securexml.StoreOptions{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	// The premise: the first nodes of the sixteen sections sit on sixteen
	// different structure pages.
	firstPages := map[int64]bool{}
	for k := 0; k < requests; k++ {
		tr := securexml.NewQueryTrace()
		if _, err := st.QueryCtx(context.Background(), "alice", "read", fmt.Sprintf("//t%d", k), securexml.QueryOptions{Trace: tr, Limit: 1}); err != nil {
			t.Fatal(err)
		}
		for _, e := range tr.Events() {
			if e.Kind == "page_pin" {
				firstPages[e.Page] = true
				break
			}
		}
	}
	if len(firstPages) != requests {
		t.Fatalf("the %d requests start on %d distinct pages", requests, len(firstPages))
	}
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	gate := &readGate{}
	r, err := New(Options{Root: root, PoolBytes: 1, MinPoolPages: 8, Store: securexml.StoreOptions{
		WrapPager: func(p storage.Pager) storage.Pager {
			gate.Pager = p
			return gate
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r, ServerOptions{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Shutdown(context.Background())

	url := func(name string) string {
		return fmt.Sprintf("%s/query?tenant=wide&user=alice&xpath=//t%s", ts.URL, name)
	}
	want := make([]string, requests)
	for k := range want {
		code, body := get(t, url(fmt.Sprint(k)), nil)
		if code != http.StatusOK || !strings.Contains(body, fmt.Sprintf("value-%d-299", k)) {
			t.Fatalf("idle request %d: %d %s", k, code, body)
		}
		want[k] = body
	}
	if code, body := get(t, url("last"), nil); code != http.StatusOK {
		t.Fatalf("idle request over the last section: %d %s", code, body)
	}
	h, err := r.Acquire("wide")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got := h.Store().MetricsSnapshot().Get("pool_capacity"); got != 8 {
		t.Fatalf("pool capacity = %d, want the floor of 8", got)
	}
	waits := func() int64 { return h.Store().MetricsSnapshot().Get("pool_pin_waits_total") }
	before := waits()

	gate.set(true)
	type reply struct {
		code int
		body string
	}
	replies := make([]reply, requests)
	var wg sync.WaitGroup
	for k := range replies {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resp, err := http.Get(url(fmt.Sprint(k)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			replies[k] = reply{resp.StatusCode, string(body)}
		}(k)
	}
	// Nothing can finish while the reads are shut, so the ninth request to
	// arrive waits however the sixteen are scheduled; the deadline is for a
	// broken pool, not a slow box.
	for deadline := time.Now().Add(time.Minute); waits() == before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	gate.set(false)
	wg.Wait()
	if waits() == before {
		t.Error("pool_pin_waits_total did not move: no request waited for a frame")
	}
	for k, got := range replies {
		if got.code != http.StatusOK || got.body != want[k] {
			t.Errorf("request %d under pressure: %d %q, want 200 %q", k, got.code, got.body, want[k])
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
