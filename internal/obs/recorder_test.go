package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWritePrometheusHelpLines(t *testing.T) {
	r := NewRegistry()
	mustCounter(r, "reads").Add(2)
	r.SetHelp("reads", "Pages read.")
	mustGauge(r, "resident", func() int64 { return 1 })
	r.Histogram("lat").Observe(1)
	r.SetHelp("lat", "Latency with a\nnewline and \\ backslash.")
	mustCounter(r, "writes")
	r.SetHelpTable(map[string]string{"writes": "Pages written.", "reads": "Overridden by SetHelp."})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb, "dolxml"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP dolxml_reads Pages read.\n# TYPE dolxml_reads counter\n",
		"# HELP dolxml_writes Pages written.\n# TYPE dolxml_writes counter\n",
		// No SetHelp: fallback derives readable text from the name.
		"# HELP dolxml_resident resident.\n# TYPE dolxml_resident gauge\n",
		`# HELP dolxml_lat Latency with a\nnewline and \\ backslash.` + "\n# TYPE dolxml_lat histogram\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if errs := LintPrometheus(strings.NewReader(out)); len(errs) > 0 {
		t.Fatalf("own exposition fails lint: %v", errs)
	}
}

func TestLintPrometheusCatchesViolations(t *testing.T) {
	for name, exposition := range map[string]string{
		"type without help":   "# TYPE x counter\nx 1\n",
		"empty family":        "# HELP x x.\n# TYPE x counter\n# HELP y y.\n# TYPE y counter\ny 1\n",
		"duplicate family":    "# HELP x x.\n# TYPE x counter\nx 1\n# HELP x x.\n# TYPE x counter\nx 2\n",
		"bad name":            "# HELP Bad bad.\n# TYPE Bad counter\nBad 1\n",
		"bad type":            "# HELP x x.\n# TYPE x zounter\nx 1\n",
		"negative counter":    "# HELP x x.\n# TYPE x counter\nx -4\n",
		"labels on gauge":     "# HELP x x.\n# TYPE x gauge\nx{a=\"b\"} 1\n",
		"sample outside":      "# HELP x x.\n# TYPE x counter\ny 1\n",
		"le not increasing":   "# HELP h h.\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"bucket not monotone": "# HELP h h.\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"no inf bucket":       "# HELP h h.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"inf != count":        "# HELP h h.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
	} {
		if errs := LintPrometheus(strings.NewReader(exposition)); len(errs) == 0 {
			t.Errorf("%s: lint accepted invalid exposition:\n%s", name, exposition)
		}
	}
	valid := "# HELP h h.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n"
	if errs := LintPrometheus(strings.NewReader(valid)); len(errs) > 0 {
		t.Errorf("lint rejected valid exposition: %v", errs)
	}
}

func TestTraceForOpStampsEvents(t *testing.T) {
	tr := NewTrace()
	scan := tr.ForOp("scan0")
	join := tr.ForOp("join1")
	tr.PagePin(1, false)
	scan.PagePin(2, true)
	join.JoinProbe(7, 3)
	scan.PageSkip(3)

	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	wantOps := []string{"", "scan0", "join1", "scan0"}
	for i, e := range evs {
		if e.Op != wantOps[i] {
			t.Errorf("event %d op = %q, want %q", i, e.Op, wantOps[i])
		}
	}
	// Accessors see the shared log from any handle.
	if scan.PageReads() != 2 || tr.PageReads() != 2 {
		t.Errorf("PageReads: handle %d, root %d, want 2", scan.PageReads(), tr.PageReads())
	}
	if !strings.Contains(tr.String(), "op=scan0") {
		t.Errorf("dump lacks op labels:\n%s", tr.String())
	}
	// Nil-safety: ForOp on nil stays nil and records nothing.
	var nilTr *Trace
	nilTr.ForOp("x").PagePin(1, false)
}

func TestCountingTrace(t *testing.T) {
	tr := NewCountingTrace()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := tr.ForOp("scan0")
			for i := 0; i < 100; i++ {
				h.PagePin(int64(i), i%2 == 0)
				h.PageSkip(int64(i))
				h.Emit(int64(i))
			}
		}()
	}
	wg.Wait()
	pins, hits, skips, emits := tr.Counts()
	if pins != 400 || hits != 200 || skips != 400 || emits != 400 {
		t.Fatalf("counts = %d/%d/%d/%d", pins, hits, skips, emits)
	}
	if len(tr.Events()) != 0 {
		t.Fatalf("counting trace retained %d events", len(tr.Events()))
	}
	if tr.PageReads() != 400 || tr.PageHits() != 200 || tr.Emits() != 400 {
		t.Fatalf("accessors disagree: %d/%d/%d", tr.PageReads(), tr.PageHits(), tr.Emits())
	}
}

func TestTraceDropCounter(t *testing.T) {
	var c Counter
	tr := &Trace{start: time.Now(), limit: 3}
	tr.SetDropCounter(&c)
	for i := 0; i < 10; i++ {
		tr.PagePin(int64(i), false)
	}
	if tr.Dropped() != 7 || c.Load() != 7 {
		t.Fatalf("dropped %d, counter %d, want 7/7", tr.Dropped(), c.Load())
	}
}

func TestRecorderBoundsAndAggregates(t *testing.T) {
	rec := NewRecorder(4, 3, 2)
	for i := 0; i < 10; i++ {
		rec.Record(QueryDigest{
			Fingerprint: fmt.Sprintf("q%d", i%5),
			At:          int64(i + 1),
			LatencyUs:   int64(100 * (i + 1)),
			Pages:       int64(i),
			Answers:     1,
		}, nil)
	}
	s := rec.Snapshot()
	if s.Total != 10 {
		t.Fatalf("total = %d, want 10", s.Total)
	}
	if len(s.Recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(s.Recent))
	}
	// Ring is oldest-first and holds the last four records.
	if s.Recent[0].At != 7 || s.Recent[3].At != 10 {
		t.Fatalf("ring order wrong: %+v", s.Recent)
	}
	if len(s.Fingerprints) != 3 {
		t.Fatalf("fingerprints = %d, want 3 (bound)", len(s.Fingerprints))
	}
	if s.FingerprintsEvicted == 0 {
		t.Fatal("no evictions recorded despite exceeding the fingerprint bound")
	}
	if len(s.Slowest) != 2 {
		t.Fatalf("slowest = %d, want 2", len(s.Slowest))
	}
	if s.Slowest[0].Digest.LatencyUs != 1000 || s.Slowest[1].Digest.LatencyUs != 900 {
		t.Fatalf("top-K not slowest-first: %+v", s.Slowest)
	}
	// Fingerprint aggregates sorted by total time, heaviest first.
	for i := 1; i < len(s.Fingerprints); i++ {
		if s.Fingerprints[i-1].TotalUs < s.Fingerprints[i].TotalUs {
			t.Fatalf("fingerprints not sorted by total: %+v", s.Fingerprints)
		}
	}
	var sb strings.Builder
	if err := rec.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := rec.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "flight recorder: 10 queries") {
		t.Fatalf("text dump wrong:\n%s", sb.String())
	}
}

func TestRecorderRetainsSlowTraces(t *testing.T) {
	rec := NewRecorder(8, 8, 1)
	fast := NewTrace()
	fast.PagePin(1, false)
	rec.Record(QueryDigest{Fingerprint: "fast", LatencyUs: 10}, fast)
	slow := NewTrace()
	slow.PagePin(2, false)
	rec.Record(QueryDigest{Fingerprint: "slow", LatencyUs: 1000}, slow)
	s := rec.Snapshot()
	if len(s.Slowest) != 1 || s.Slowest[0].Digest.Fingerprint != "slow" {
		t.Fatalf("wrong retained query: %+v", s.Slowest)
	}
	if !strings.Contains(s.Slowest[0].Trace, "page_pin") {
		t.Fatalf("retained query lost its trace: %q", s.Slowest[0].Trace)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(16, 8, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec.Record(QueryDigest{
					Fingerprint: fmt.Sprintf("q%d", i%13),
					LatencyUs:   int64(i),
				}, nil)
				if i%50 == 0 {
					rec.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if rec.Total() != 1600 {
		t.Fatalf("total = %d, want 1600", rec.Total())
	}
	if rec.Fingerprints() > 8 {
		t.Fatalf("fingerprints = %d, bound 8", rec.Fingerprints())
	}
}
