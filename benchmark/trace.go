package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dolxml/internal/storage"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Request; Parent is the span that caused this one (0 for a root).
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Request int     `json:"request"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// N is the number of operations a primitive's span covers (0 = one).
	N int `json:"n,omitempty"`
}

func (s span) dur() float64 { return s.EndUs - s.StartUs }

// tracer records spans from the benchmark's own files, around public
// calls; nothing inside the program is instrumented. The traced pass has a
// single actor, so the spans that are open at any moment form a stack: the
// client opens http.roundtrip, the handler wrapper opens
// registry.serve_http beneath it, and the pager and WAL wrappers hang leaf
// spans (which parallel match workers may record concurrently) off
// whatever is innermost. Spans live in memory until write.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	stack   []int64
	request int
	counts  map[string]int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), counts: map[string]int64{}} }

func (t *tracer) now() float64 { return us(time.Since(t.epoch)) }

// begin opens a span beneath the innermost open one and returns its ID.
func (t *tracer) begin(name string) int64 {
	if !t.on.Load() {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: t.top(), Request: t.request, Name: name, StartUs: start})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; n is the operation count it covers.
func (t *tracer) end(id int64, n int) {
	if id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUs, t.spans[id-1].N = end, n
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == id {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
}

func (t *tracer) top() int64 {
	if len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1]
}

// leaf records a finished span beneath the innermost open one and counts
// it (and bytes, when given) under its name.
func (t *tracer) leaf(name string, start time.Time, bytes int) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: t.top(), Request: t.request,
		Name: name, StartUs: us(start.Sub(t.epoch)), EndUs: end})
	t.counts[name]++
	t.counts[name+".bytes"] += int64(bytes)
}

// setRequest names the request the following spans belong to.
func (t *tracer) setRequest(id int) {
	t.mu.Lock()
	t.request = id
	t.mu.Unlock()
}

// take returns the spans and counts recorded so far and starts afresh, so
// each pass is folded on its own.
func (t *tracer) take() ([]span, map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans, counts := t.spans, t.counts
	t.spans, t.counts, t.stack = nil, map[string]int64{}, nil
	return spans, counts
}

// writeTrace renumbers the passes' spans into one ID space and writes
// them to <dir>/trace-<workload>.json.
func writeTrace(dir, wl string, seed int64, passes [][]span) (string, error) {
	var all []span
	for _, p := range passes {
		base := int64(len(all))
		for _, s := range p {
			s.ID += base
			if s.Parent != 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+wl+".json")
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{wl, seed, all})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}

const requestHeader = "X-Bench-Request"

type wrapHandler func(http.Handler) http.Handler

// wrapHandler records registry.serve_http around the real handler.
func (t *tracer) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.Header.Get(requestHeader) == "" {
			next.ServeHTTP(w, r)
			return
		}
		id := t.begin("registry.serve_http")
		next.ServeHTTP(w, r)
		t.end(id, 0)
	})
}

// tracedPager sits where registry.Options.Store.WrapPager puts it: beneath
// the WAL, on the physical page file.
type tracedPager struct {
	storage.Pager
	t *tracer
}

func (t *tracer) wrapPager(p storage.Pager) storage.Pager { return &tracedPager{p, t} }

func (p *tracedPager) ReadPage(id storage.PageID, buf []byte) error {
	if !p.t.on.Load() {
		return p.Pager.ReadPage(id, buf)
	}
	start := time.Now()
	err := p.Pager.ReadPage(id, buf)
	p.t.leaf("storage.pager_read", start, len(buf))
	return err
}

func (p *tracedPager) WritePage(id storage.PageID, buf []byte) error {
	if !p.t.on.Load() {
		return p.Pager.WritePage(id, buf)
	}
	start := time.Now()
	err := p.Pager.WritePage(id, buf)
	p.t.leaf("storage.pager_write", start, len(buf))
	return err
}

func (p *tracedPager) Sync() error {
	if !p.t.on.Load() {
		return p.Pager.Sync()
	}
	start := time.Now()
	err := p.Pager.Sync()
	p.t.leaf("storage.pager_sync", start, 0)
	return err
}

// tracedFile sits where WrapWALFile puts it: on the write-ahead log.
type tracedFile struct {
	storage.File
	t *tracer
}

func (t *tracer) wrapWALFile(f storage.File) storage.File { return &tracedFile{f, t} }

func (f *tracedFile) Append(p []byte) (int, error) {
	if !f.t.on.Load() {
		return f.File.Append(p)
	}
	start := time.Now()
	n, err := f.File.Append(p)
	f.t.leaf("storage.wal_append", start, n)
	return n, err
}

func (f *tracedFile) Sync() error {
	if !f.t.on.Load() {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	f.t.leaf("storage.wal_fsync", start, 0)
	return err
}

// tracedGet is served.get with the request tagged and, when the tracer is
// on, the http.roundtrip span around it.
func (t *tracer) tracedGet(s *served, id int, pathAndQuery string) (sum [32]byte, bytes int64, took time.Duration, err error) {
	t.setRequest(id)
	req, err := http.NewRequest(http.MethodGet, s.base+pathAndQuery, nil)
	if err != nil {
		return sum, 0, 0, err
	}
	req.Header.Set(requestHeader, strconv.Itoa(id))
	sp := t.begin("http.roundtrip")
	start := time.Now()
	sum, bytes, err = s.do(req)
	took = time.Since(start)
	t.end(sp, 0)
	return sum, bytes, took, err
}
