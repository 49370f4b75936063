package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"dolxml/securexml/registry"
)

// served is the real serve path, in-process: registry.New +
// registry.NewServer behind http.Server on a loopback TCP listener, the
// wiring of `dolcli serve -root`. In-process because HTTP has no write
// endpoint: the mixed_rw writer reaches the same registry through reg.
type served struct {
	reg    *registry.Registry
	srv    *registry.Server
	http   *http.Server
	base   string
	client *http.Client
	done   chan error
}

// serve starts the server over root. wrap, when set, wraps the handler
// (the traced run's registry.serve_http span).
func serve(opts registry.Options, wrap wrapHandler) (*served, error) {
	reg, err := registry.New(opts)
	if err != nil {
		return nil, err
	}
	srv := registry.NewServer(reg, registry.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close(context.Background())
		return nil, err
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	s := &served{
		reg:  reg,
		srv:  srv,
		http: &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 16, MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute,
		}},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	if _, err := s.get("/healthz"); err != nil {
		s.stop()
		return nil, fmt.Errorf("server not healthy: %w", err)
	}
	return s, nil
}

// get issues one request and returns the status and the SHA-256 of the
// body; anything but a 200 is an error.
func (s *served) get(pathAndQuery string) (sum [sha256.Size]byte, err error) {
	req, err := http.NewRequest(http.MethodGet, s.base+pathAndQuery, nil)
	if err != nil {
		return sum, err
	}
	sum, _, err = s.do(req)
	return sum, err
}

// do sends req and returns the SHA-256 and length of the response body.
func (s *served) do(req *http.Request) (sum [sha256.Size]byte, n int64, err error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return sum, 0, err
	}
	defer resp.Body.Close()
	h := sha256.New()
	if n, err = io.Copy(h, resp.Body); err != nil {
		return sum, n, err
	}
	h.Sum(sum[:0])
	if resp.StatusCode != http.StatusOK {
		return sum, n, fmt.Errorf("status %d", resp.StatusCode)
	}
	return sum, n, nil
}

// stop drains the HTTP server, then shuts the registry server down so
// every store's WAL checkpoint lands — dolcli's shutdown order.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.done
	s.client.CloseIdleConnections()
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}
