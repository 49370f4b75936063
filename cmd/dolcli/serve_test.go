package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dolxml/internal/obs"
	"dolxml/securexml"
)

// buildServeStore seals a small store into dir for serve tests.
func buildServeStore(t *testing.T, dir string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := securexml.NewBuilder().
		LoadXMLString(`<doc><item><public>hello</public><secret>shh</secret></item></doc>`).
		AddUser("alice").
		Grant("alice", "read", "/doc").
		Revoke("alice", "read", "//secret").
		Seal(securexml.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// freePort reserves and releases a TCP port. The small reuse race is
// acceptable in tests; serve has no way to report a :0-chosen port.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("server never became healthy")
}

// startServe runs the serve command in-process on a free port and returns
// its base URL plus a stop function: stop sends SIGTERM to the test process
// — serve's NotifyContext catches it and begins the drain; the test
// survives because the handler is installed — and verifies serve returns
// cleanly and the port closes.
func startServe(t *testing.T, args ...string) (base string, stop func()) {
	t.Helper()
	addr := freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- serve(append(args, "-addr", addr, "-drain", "5s"))
	}()
	base = "http://" + addr
	waitHealthy(t, base)
	return base, func() {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("serve did not shut down after SIGTERM")
		}
		if _, err := http.Get(base + "/healthz"); err == nil {
			t.Fatal("server still answering after shutdown")
		}
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// reopens checks the stores closed cleanly (their WAL checkpoints landed at
// close): reopening must succeed and answer.
func reopens(t *testing.T, dirs ...string) {
	t.Helper()
	for _, dir := range dirs {
		s, err := securexml.Open(dir, securexml.StoreOptions{})
		if err != nil {
			t.Fatalf("reopen %s: %v", dir, err)
		}
		ms, err := s.Query("alice", "read", "//public")
		if err != nil || len(ms) != 1 {
			t.Fatalf("reopened %s: %v (%d matches)", dir, err, len(ms))
		}
		s.Close()
	}
}

// TestServeGracefulShutdown runs the multi-tenant serve command in-process,
// queries it, sends SIGTERM, and verifies serve returns cleanly, the port
// closes, and the stores reopen.
func TestServeGracefulShutdown(t *testing.T) {
	root := t.TempDir()
	for _, id := range []string{"t0", "t1"} {
		buildServeStore(t, filepath.Join(root, id))
	}
	base, stop := startServe(t, "-root", root)
	if code, body := httpGet(t, base+"/query?tenant=t0&user=alice&xpath=//public"); code != http.StatusOK || !strings.Contains(body, "hello") {
		t.Fatalf("query: %d %s", code, body)
	}
	stop()
	reopens(t, filepath.Join(root, "t0"), filepath.Join(root, "t1"))
}

// TestServeSingleStoreIsOneTenantRoot serves the same store by -store DIR
// and by -root over DIR's parent with tenant=, through the same signal path:
// one server, so the answers, the plans and the refusals are the same bytes,
// and -store refuses to open DIR's siblings.
func TestServeSingleStoreIsOneTenantRoot(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "store")
	buildServeStore(t, dir)
	buildServeStore(t, filepath.Join(parent, "sibling"))

	requests := []struct {
		path   string
		status int
		same   bool // the body is a function of store and request alone
		has    string
	}{
		{"/query?user=alice&xpath=//public", http.StatusOK, true, "hello"},
		{"/query?user=alice&xpath=//secret", http.StatusOK, true, ""},
		{"/explain?user=alice&xpath=//public", http.StatusOK, true, "operators"},
		{"/explain?user=alice&xpath=//public&format=text", http.StatusOK, true, "pattern:"},
		{"/query?user=alice&xpath=//public&limit=-1", http.StatusBadRequest, true, "limit"},
		{"/explain?user=alice&xpath=//public&limit=-1", http.StatusBadRequest, true, "limit"},
		{"/query?user=nobody&xpath=//public", http.StatusBadRequest, true, "nobody"},
		{"/debug/queries?format=text", http.StatusOK, false, "//public"},
		{"/metrics?", http.StatusOK, false, "dolxml_tenant_store_query_total 3"},
		{"/metrics?", http.StatusOK, false, "dolxml_registry_open_ns_count 1"},
		{"/metrics?", http.StatusOK, false, "dolxml_tenant_store_sidecar_bytes "},
		{"/metrics?", http.StatusOK, false, "dolxml_tenant_store_query_candidates_rejected_join "},
		{"/metrics?", http.StatusOK, false, "dolxml_tenant_store_plan_memo_bytes "},
	}
	bodies := map[string][]string{}
	for _, mode := range []struct {
		args   []string
		tenant string
	}{
		{[]string{"-store", dir}, ""},
		{[]string{"-root", parent}, "&tenant=store"},
	} {
		base, stop := startServe(t, mode.args...)
		for _, rq := range requests {
			code, body := httpGet(t, base+rq.path+mode.tenant)
			if code != rq.status || !strings.Contains(body, rq.has) {
				t.Errorf("serve %v: %s = %d %q, want %d with %q", mode.args, rq.path, code, body, rq.status, rq.has)
			}
			if rq.same {
				bodies[rq.path] = append(bodies[rq.path], body)
			}
			if strings.HasPrefix(rq.path, "/metrics") {
				if errs := obs.LintPrometheus(strings.NewReader(body)); len(errs) > 0 {
					t.Errorf("serve %v: /metrics fails lint: %v", mode.args, errs)
				}
			}
		}
		if mode.tenant == "" {
			// Pinned: the registry under it spans the parent directory, but
			// only DIR is served; /debug/vars is the registry's unless a
			// tenant is named.
			if code, body := httpGet(t, base+"/query?tenant=sibling&user=alice&xpath=//public"); code != http.StatusForbidden {
				t.Errorf("-store served a sibling directory: %d %s", code, body)
			}
			if code, body := httpGet(t, base+"/debug/vars"); code != http.StatusOK || !strings.Contains(body, "opens_total") || !strings.Contains(body, "open_ns") {
				t.Errorf("/debug/vars = %d %s, want the registry's metrics", code, body)
			}
			if code, body := httpGet(t, base+"/debug/vars?tenant=store"); code != http.StatusOK || !strings.Contains(body, "query_total") || !strings.Contains(body, "sidecar_bytes") {
				t.Errorf("/debug/vars?tenant=store = %d %s, want the store's metrics", code, body)
			}
		}
		stop()
		reopens(t, dir)
	}
	for path, b := range bodies {
		if len(b) != 2 || b[0] != b[1] {
			t.Errorf("%s differs between -store and -root:\n%q", path, b)
		}
	}

	if err := serve([]string{"-store", filepath.Join(parent, "Not.A.Tenant")}); err == nil || !strings.Contains(err.Error(), "tenant id") {
		t.Errorf("serve -store with a base name outside the tenant-id grammar = %v, want a start-up error", err)
	}
}
