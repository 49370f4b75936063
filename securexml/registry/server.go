package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"dolxml/securexml"
)

// Token is one auth credential: it names the tenant and subject a bearer
// may query as, and whether it may run unrestricted (admin) queries. The
// serve path is multi-subject by construction — the token, not a query
// parameter, decides whose view a query evaluates under.
type Token struct {
	Tenant  string `json:"tenant"`
	Subject string `json:"subject"`
	Admin   bool   `json:"admin,omitempty"`
}

// ServerOptions configures a Server.
type ServerOptions struct {
	// Tokens maps bearer-token strings to identities. A nil map runs the
	// server in open trusted mode (single-operator use, like the classic
	// one-store serve): any tenant/user may be named in the query string.
	Tokens map[string]Token
	// RatePerSec is the sustained per-principal query rate (token bucket;
	// 0 disables rate limiting). The principal is the bearer token, or the
	// client IP in open mode.
	RatePerSec float64
	// Burst is the bucket depth (default max(1, round(RatePerSec))).
	Burst int
	// DrainTimeout bounds how long Shutdown waits for in-flight requests
	// (default 10s).
	DrainTimeout time.Duration
	// AccessLog, when set, receives one JSON line per /query and /explain
	// request: timestamp, tenant, subject, HTTP status, latency, pages
	// pinned, answers and the normalized query fingerprint. Lines are
	// single Writes serialized by the server, so the writer need not be
	// goroutine-safe.
	AccessLog io.Writer
	// Tenant, when set, pins the server to that one tenant of the registry:
	// requests need not name it, and a request or token naming any other is
	// refused. It is how a single store directory is served (dolcli serve
	// -store DIR = a registry over DIR's parent pinned to DIR's base name).
	Tenant string
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.Burst < 1 {
		o.Burst = int(o.RatePerSec + 0.5)
		if o.Burst < 1 {
			o.Burst = 1
		}
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	return o
}

// bucket is one principal's token bucket.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func (b *bucket) allow(rate float64, burst int, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += rate * now.Sub(b.last).Seconds()
	b.last = now
	if max := float64(burst); b.tokens > max {
		b.tokens = max
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Server fronts a Registry over HTTP:
//
//	/query       — evaluate an XPath under a subject's view (auth-scoped)
//	/explain     — the query's compiled plan; analyze=1 executes once and
//	               adds per-operator attribution (same auth as /query)
//	/metrics     — registry metrics + per-tenant store metrics (Prometheus)
//	/debug/vars  — registry metrics as JSON; with tenant=, that store's
//	/debug/queries — one tenant's flight recorder (JSON; format=text)
//	/tenants     — open/draining tenant list as JSON
//	/healthz     — liveness
//
// Every request pins its tenant's store through a registry Handle, so LRU
// eviction never closes a store a request is reading. Shutdown refuses new
// requests, drains in-flight ones bounded by DrainTimeout, then closes the
// registry so every store's WAL checkpoint lands.
type Server struct {
	reg  *Registry
	opts ServerOptions
	mux  *http.ServeMux

	// admit orders admission against Shutdown: a request joins inflight
	// under the read lock, Shutdown sets closing under the write lock, so no
	// request joins once Shutdown has begun to wait.
	admit    sync.RWMutex
	closing  bool
	inflight sync.WaitGroup

	bmu     sync.Mutex
	buckets map[string]*bucket

	logMu sync.Mutex
}

// NewServer wraps reg in the multi-tenant HTTP front end.
func NewServer(reg *Registry, opts ServerOptions) *Server {
	s := &Server{
		reg:     reg,
		opts:    opts.withDefaults(),
		mux:     http.NewServeMux(),
		buckets: map[string]*bucket{},
	}
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.reg.WriteMetricsPrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	s.mux.HandleFunc("/debug/queries", s.handleStoreDebug)
	s.mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("tenant") != "" {
			s.handleStoreDebug(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := s.reg.WriteMetricsJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	s.mux.HandleFunc("/tenants", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(s.reg.Tenants())
	})
	return s
}

// ServeHTTP implements http.Handler. Requests arriving after Shutdown has
// begun get 503 without touching the registry.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.admit.RLock()
	if s.closing {
		s.admit.RUnlock()
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	s.inflight.Add(1)
	s.admit.RUnlock()
	defer s.inflight.Done()
	s.mux.ServeHTTP(w, r)
}

// identity resolves the request's auth token into (tenant, subject, admin).
// In open mode (no token table) the query string is trusted.
func (s *Server) identity(r *http.Request, q url.Values) (Token, string, error) {
	raw := ""
	if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
		raw = strings.TrimPrefix(h, "Bearer ")
	} else {
		raw = q.Get("token")
	}
	if s.opts.Tokens == nil {
		key := raw
		if key == "" {
			host, _, err := net.SplitHostPort(r.RemoteAddr)
			if err != nil {
				host = r.RemoteAddr
			}
			key = "anon:" + host
		}
		tenant := q.Get("tenant")
		if tenant == "" {
			tenant = s.opts.Tenant
		}
		return Token{Tenant: tenant, Subject: q.Get("user"), Admin: true}, key, nil
	}
	tok, ok := s.opts.Tokens[raw]
	if !ok {
		return Token{}, "", fmt.Errorf("missing or unknown token")
	}
	return tok, raw, nil
}

// allow applies the per-principal token bucket.
func (s *Server) allow(key string) bool {
	if s.opts.RatePerSec <= 0 {
		return true
	}
	s.bmu.Lock()
	b, ok := s.buckets[key]
	if !ok {
		b = &bucket{tokens: float64(s.opts.Burst), last: time.Now()}
		s.buckets[key] = b
	}
	s.bmu.Unlock()
	return b.allow(s.opts.RatePerSec, s.opts.Burst, time.Now())
}

// queryRequest is one authenticated, parsed /query or /explain request.
type queryRequest struct {
	tok   Token
	user  string
	mode  string
	xpath string
	opts  securexml.QueryOptions
}

// authenticate resolves the request's identity, applies the rate limit and
// settles which tenant the request addresses; q is the request's parsed
// query string. On failure it writes the error response and returns
// ok == false.
func (s *Server) authenticate(w http.ResponseWriter, r *http.Request, q url.Values) (tok Token, ok bool) {
	tok, key, err := s.identity(r, q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnauthorized)
		return tok, false
	}
	if !s.allow(key) {
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return tok, false
	}
	// The token binds the identity: explicit parameters may restate it but
	// not change it. (Open mode issues a fully trusted token above.)
	if t := q.Get("tenant"); t != "" && t != tok.Tenant {
		http.Error(w, "token is not valid for this tenant", http.StatusForbidden)
		return tok, false
	}
	if s.opts.Tenant != "" && tok.Tenant != s.opts.Tenant {
		http.Error(w, "this server serves tenant "+s.opts.Tenant+" only", http.StatusForbidden)
		return tok, false
	}
	if tok.Tenant == "" {
		http.Error(w, "no tenant specified", http.StatusBadRequest)
		return tok, false
	}
	return tok, true
}

// parseQuery authenticates and parses the request's query parameters. On
// failure it writes the error response and returns ok == false.
func (s *Server) parseQuery(w http.ResponseWriter, r *http.Request) (req queryRequest, ok bool) {
	q := r.URL.Query()
	tok, ok := s.authenticate(w, r, q)
	if !ok {
		return req, false
	}
	user := tok.Subject
	if u := q.Get("user"); u != "" {
		if u != tok.Subject && !tok.Admin {
			http.Error(w, "token is not valid for this subject", http.StatusForbidden)
			return req, false
		}
		user = u
	}
	opts := securexml.QueryOptions{
		Pruned:             q.Get("pruned") != "",
		DisablePathSummary: q.Get("nopathsummary") != "",
	}
	if q.Get("admin") != "" {
		if !tok.Admin {
			http.Error(w, "token may not run unrestricted queries", http.StatusForbidden)
			return req, false
		}
		opts.Unrestricted = true
	}
	if lim := q.Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("limit must be a non-negative integer, got %q", lim), http.StatusBadRequest)
			return req, false
		}
		opts.Limit = n
	}
	mode := q.Get("mode")
	if mode == "" {
		mode = "read"
	}
	return queryRequest{tok: tok, user: user, mode: mode, xpath: q.Get("xpath"), opts: opts}, true
}

// handleStoreDebug serves one tenant's own debug endpoints (/debug/queries,
// /debug/vars?tenant=) from its store's DebugHandler. The flight recorder
// shows every subject's queries, so under a token table it takes an admin
// token of that tenant.
func (s *Server) handleStoreDebug(w http.ResponseWriter, r *http.Request) {
	tok, ok := s.authenticate(w, r, r.URL.Query())
	if !ok {
		return
	}
	if !tok.Admin {
		http.Error(w, "token may not read this tenant's debug endpoints", http.StatusForbidden)
		return
	}
	start := time.Now()
	h, err := s.reg.Acquire(tok.Tenant)
	if err != nil {
		s.failRequest(w, queryRequest{tok: tok}, r.URL.Path, start, nil, err)
		return
	}
	defer h.Close()
	h.Store().DebugHandler().ServeHTTP(w, r)
}

// logAccess emits one access-log line (a single serialized Write).
func (s *Server) logAccess(req queryRequest, endpoint string, status int, elapsed time.Duration, qt *securexml.QueryTrace, answers int) {
	w := s.opts.AccessLog
	if w == nil {
		return
	}
	fp, _ := securexml.QueryFingerprint(req.xpath, req.opts)
	line := struct {
		At          string `json:"at"`
		Endpoint    string `json:"endpoint"`
		Tenant      string `json:"tenant"`
		Subject     string `json:"subject"`
		XPath       string `json:"xpath"`
		Status      int    `json:"status"`
		LatencyUs   int64  `json:"latency_us"`
		Pages       int64  `json:"pages"`
		Answers     int    `json:"answers"`
		Fingerprint string `json:"fingerprint,omitempty"`
	}{
		At:          time.Now().UTC().Format(time.RFC3339Nano),
		Endpoint:    endpoint,
		Tenant:      req.tok.Tenant,
		Subject:     req.user,
		XPath:       req.xpath,
		Status:      status,
		LatencyUs:   elapsed.Microseconds(),
		Pages:       qt.PageReads(),
		Answers:     answers,
		Fingerprint: fp,
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	s.logMu.Lock()
	w.Write(buf)
	s.logMu.Unlock()
}

// failRequest answers a request whose tenant could not be acquired or whose
// query failed, and logs it under the same status: 400 when the request
// itself was wrong, 404 when it names no tenant, 503 + Retry-After when it
// was cancelled, timed out or met a registry already closed, 500 for anything
// a store could not do — its own that would not open or read, or another's
// that would not close to make room.
func (s *Server) failRequest(w http.ResponseWriter, req queryRequest, endpoint string, start time.Time, qt *securexml.QueryTrace, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, securexml.ErrBadQuery):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNoTenant):
		status = http.StatusNotFound
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	s.logAccess(req, endpoint, status, time.Since(start), qt, 0)
	http.Error(w, err.Error(), status)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := s.parseQuery(w, r)
	if !ok {
		return
	}
	start := time.Now()
	h, err := s.reg.Acquire(req.tok.Tenant)
	if err != nil {
		s.failRequest(w, req, "/query", start, nil, err)
		return
	}
	defer h.Close()
	var qt *securexml.QueryTrace
	if s.opts.AccessLog != nil {
		// The log line reports pages pinned; the counting trace provides
		// them without retaining an event log.
		qt = securexml.NewCountingQueryTrace()
		req.opts.Trace = qt
	}
	ms, err := h.Store().QueryCtx(r.Context(), req.user, req.mode, req.xpath, req.opts)
	if err != nil {
		s.failRequest(w, req, "/query", start, qt, err)
		return
	}
	s.logAccess(req, "/query", http.StatusOK, time.Since(start), qt, len(ms))
	body := appendMatchesJSON(nil, ms)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// handleExplain serves the compiled query plan without executing the
// query; with analyze=1 it executes once and returns the plan annotated
// with per-operator attribution. format=text renders either as a report.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, ok := s.parseQuery(w, r)
	if !ok {
		return
	}
	start := time.Now()
	h, err := s.reg.Acquire(req.tok.Tenant)
	if err != nil {
		s.failRequest(w, req, "/explain", start, nil, err)
		return
	}
	defer h.Close()
	q := r.URL.Query()
	var text, js func(io.Writer) error
	if q.Get("analyze") != "" {
		an := &securexml.QueryAnalysis{}
		req.opts.Analyze = an
		_, err = h.Store().QueryCtx(r.Context(), req.user, req.mode, req.xpath, req.opts)
		text, js = an.WriteText, an.WriteJSON
	} else {
		var plan *securexml.Plan
		plan, err = h.Store().Explain(r.Context(), req.user, req.mode, req.xpath, req.opts)
		text, js = plan.WriteText, plan.WriteJSON
	}
	if err != nil {
		s.failRequest(w, req, "/explain", start, nil, err)
		return
	}
	s.logAccess(req, "/explain", http.StatusOK, time.Since(start), nil, 0)
	writeExplain(w, q.Get("format") == "text", text, js)
}

func writeExplain(w http.ResponseWriter, asText bool, text, js func(io.Writer) error) {
	if asText {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := text(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := js(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Shutdown stops admitting requests, waits for in-flight ones (bounded by
// DrainTimeout), then closes the registry so every open store flushes and
// its WAL checkpoint lands. Stragglers past the deadline are reported but
// their stores still close when their last handle does (drain semantics).
func (s *Server) Shutdown(ctx context.Context) error {
	s.admit.Lock()
	s.closing = true
	s.admit.Unlock()
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	deadline := time.NewTimer(s.opts.DrainTimeout)
	defer deadline.Stop()
	var drainErr error
	select {
	case <-drained:
	case <-deadline.C:
		drainErr = fmt.Errorf("registry: shutdown drain deadline exceeded")
	case <-ctx.Done():
		drainErr = ctx.Err()
	}
	if err := s.reg.Close(ctx); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}
