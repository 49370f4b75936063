package obs

import (
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
	c.Reset()
	if got := c.Load(); got != 0 {
		t.Fatalf("after Reset, Load = %d", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int64 // expected inclusive upper bound
	}{
		{-5, 1}, {0, 1}, {1, 1},
		{2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16},
		{1024, 1024}, {1025, 2048},
	}
	for _, tc := range cases {
		h := NewHistogram()
		h.Observe(tc.v)
		s := h.Snapshot()
		if s.Count != 1 {
			t.Fatalf("Observe(%d): Count = %d", tc.v, s.Count)
		}
		if len(s.Buckets) != 1 {
			t.Fatalf("Observe(%d): buckets = %v", tc.v, s.Buckets)
		}
		if n := s.Buckets[tc.bucket]; n != 1 {
			t.Errorf("Observe(%d): want bucket %d, got %v", tc.v, tc.bucket, s.Buckets)
		}
	}
}

func TestHistogramSum(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{1, 10, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 3 || s.Sum != 111 {
		t.Fatalf("Count=%d Sum=%d, want 3/111", s.Count, s.Sum)
	}
}

// ValidName is the byte-loop form of the grammar's regexp, which stays here
// as its reference: the two agree on every string of up to three bytes over
// letters of both cases, digits and four punctuation marks.
func TestValidName(t *testing.T) {
	ref := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_ .-"
	var walk func(name string)
	walk = func(name string) {
		if ValidName(name) != ref.MatchString(name) {
			t.Errorf("ValidName(%q) = %v, the regexp says %v", name, ValidName(name), ref.MatchString(name))
		}
		if len(name) < 3 {
			for i := range len(alphabet) {
				walk(name + alphabet[i:i+1])
			}
		}
	}
	walk("")
	good := []string{"a", "pool_gets", "query_latency_us", "x1_y2"}
	bad := []string{"", "Pool_gets", "1pool", "pool-gets", "pool gets", "pool.gets", "_pool"}
	for _, n := range good {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	for _, n := range bad {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
}

func TestRegistryRejectsBadAndDuplicateNames(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterCounter("Bad-Name", NewCounter()); err == nil {
		t.Fatal("invalid name accepted")
	}
	if err := r.RegisterCounter("dup", NewCounter()); err != nil {
		t.Fatal(err)
	}
	// Duplicates are rejected across metric kinds, not just within one.
	if err := r.RegisterCounter("dup", NewCounter()); err == nil {
		t.Fatal("duplicate counter accepted")
	}
	if err := r.RegisterGauge("dup", func() int64 { return 0 }); err == nil {
		t.Fatal("gauge shadowing a counter accepted")
	}
	if err := r.RegisterHistogram("dup", NewHistogram()); err == nil {
		t.Fatal("histogram shadowing a counter accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Counter() on duplicate name did not panic")
		}
	}()
	r.Counter("dup")
}

func TestRegistrySnapshotAndNames(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reads")
	c.Add(7)
	r.Gauge("resident", func() int64 { return 3 })
	h := r.Histogram("lat_us")
	h.Observe(5)

	names := r.Names()
	want := []string{"lat_us", "reads", "resident"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}

	s := r.Snapshot()
	if s.Get("reads") != 7 || s.Get("resident") != 3 {
		t.Fatalf("snapshot values: %+v", s)
	}
	if s.Histograms["lat_us"].Count != 1 {
		t.Fatalf("histogram missing from snapshot: %+v", s.Histograms)
	}
	if v, ok := r.CounterValue("reads"); !ok || v != 7 {
		t.Fatalf("CounterValue = %d,%v", v, ok)
	}
	if _, ok := r.CounterValue("absent"); ok {
		t.Fatal("CounterValue found absent metric")
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("reads").Add(9)
	r.Histogram("sz").Observe(100)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &s); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if s.Counters["reads"] != 9 {
		t.Fatalf("round-trip lost counter: %+v", s)
	}
	if s.Histograms["sz"].Count != 1 {
		t.Fatalf("round-trip lost histogram: %+v", s)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("reads").Add(9)
	r.Gauge("resident", func() int64 { return 3 })
	h := r.Histogram("lat")
	h.Observe(1)
	h.Observe(3)
	h.Observe(3)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb, "dolxml"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE dolxml_reads counter\ndolxml_reads 9\n",
		"# TYPE dolxml_resident gauge\ndolxml_resident 3\n",
		"# TYPE dolxml_lat histogram\n",
		"dolxml_lat_bucket{le=\"1\"} 1\n",
		"dolxml_lat_bucket{le=\"4\"} 3\n", // cumulative
		"dolxml_lat_bucket{le=\"+Inf\"} 3\n",
		"dolxml_lat_sum 7\n",
		"dolxml_lat_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentCountersAndHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	h := r.Histogram("v")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", s.Count)
	}
}

func TestTraceCountsAndContext(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFromContext(ctx); got != tr {
		t.Fatal("trace not carried by context")
	}
	if got := TraceFromContext(context.Background()); got != nil {
		t.Fatal("trace conjured from empty context")
	}

	tr.Mark(EvParse)
	done := tr.Span(EvCompile)
	done()
	tr.PagePin(3, true)
	tr.PagePin(4, false)
	tr.PageSkip(5)
	tr.PageSkip(6)
	tr.CandidateReject(42, 6)
	tr.Emit(42)

	if got := tr.PageReads(); got != 2 {
		t.Errorf("PageReads = %d, want 2", got)
	}
	if got := tr.PageSkips(); got != 2 {
		t.Errorf("PageSkips = %d, want 2", got)
	}
	if got := tr.PagesConsidered(); got != 4 {
		t.Errorf("PagesConsidered = %d, want 4", got)
	}
	if tr.PageReads()+tr.PageSkips() != tr.PagesConsidered() {
		t.Error("reads + skips != considered")
	}
	if got := len(tr.Events()); got != 8 {
		t.Errorf("Events len = %d, want 8", got)
	}
	if tr.Dropped() != 0 {
		t.Errorf("Dropped = %d", tr.Dropped())
	}
	out := tr.String()
	for _, want := range []string{"page_pin", "page=3", "hit=true", "page_skip_access", "page=6", "candidate_reject", "emit"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace dump missing %q:\n%s", want, out)
		}
	}
}

func TestTraceNilIsSafe(t *testing.T) {
	var tr *Trace
	tr.Mark(EvParse)
	tr.Span(EvCompile)()
	tr.PagePin(1, true)
	tr.PageSkip(2)
	if tr.PageReads() != 0 || tr.PagesConsidered() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil trace recorded something")
	}
	if tr.Events() != nil {
		t.Fatal("nil trace returned events")
	}
	if s := tr.String(); s != "" {
		t.Fatalf("nil trace dump = %q", s)
	}
	if ctx := WithTrace(context.Background(), nil); TraceFromContext(ctx) != nil {
		t.Fatal("WithTrace(nil) attached a trace")
	}
}

func TestTraceLimitDropsAndCounts(t *testing.T) {
	tr := NewTrace()
	tr.limit = 4
	for i := 0; i < 10; i++ {
		tr.PagePin(int64(i), true)
	}
	if got := len(tr.Events()); got != 4 {
		t.Fatalf("events = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	if !strings.Contains(tr.String(), "6 events dropped") {
		t.Fatalf("dump does not note drops:\n%s", tr.String())
	}
}

func TestTraceConcurrentAppend(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.PagePin(int64(i), i%2 == 0)
				tr.PageSkip(int64(i))
			}
		}(g)
	}
	wg.Wait()
	if got := tr.PageReads(); got != 4000 {
		t.Fatalf("PageReads = %d, want 4000", got)
	}
	if got := tr.PageSkips(); got != 4000 {
		t.Fatalf("PageSkips = %d, want 4000", got)
	}
}
