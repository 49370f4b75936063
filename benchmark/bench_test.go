package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// miniature is the benchmark at toy scale: 1.5k-node tenants, sub-second
// windows, a 20-request traced prefix. No timing is asserted anywhere.
func miniature(t *testing.T) config {
	return config{seed: 1, seconds: 0.3, bigNodes: 2000, churnNodes: 1200, setupReps: 1, traceReqs: 20, out: t.TempDir()}
}

// shrink keeps a workload's shape at a size a unit test can build: a third
// of the tenants of tenant_churn, still twice what may be open.
func shrink(wl workload) workload {
	if wl.visit > 0 {
		wl.tenants, wl.maxOpen = 4, 2
	}
	return wl
}

func checkMetrics(t *testing.T, spec *benchSpec, res *result) {
	t.Helper()
	if err := spec.check(res); err != nil {
		t.Errorf("%s traced=%v: %v", res.Workload, res.Traced, err)
	}
	for name, m := range res.Metrics {
		if !nameRe.MatchString(name) {
			t.Errorf("%s: metric name %q", res.Workload, name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", res.Workload, name, m.Value)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", res.Workload, res.Traced, res.Correct, res.Attempted, res.Failed, res.Failures)
	}
}

// The miniature runs the two workloads with a path of their own — the
// tenant faults of tenant_churn, the writer and the restart check of
// mixed_rw; warm_read and cache_pressure are mixed_rw's reader under other
// budgets.
func TestUntracedEmitsEveryEndToEndMetric(t *testing.T) {
	spec, cfg := loadTestSpec(t), miniature(t)
	for _, name := range []string{"tenant_churn", "mixed_rw"} {
		wl, _ := findWorkload(name)
		res, err := runUntraced(cfg, shrink(wl))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMetrics(t, spec, res)
		for _, m := range spec.EndToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, m.Name, res.Metrics[m.Name].Value)
			}
		}
	}
}

func TestTracedEmitsEveryPerLayerMetric(t *testing.T) {
	spec, cfg := loadTestSpec(t), miniature(t)
	const name = "mixed_rw" // the one workload whose prefix also writes
	wl, _ := findWorkload(name)
	res, err := runTraced(cfg, wl)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkMetrics(t, spec, res)

	raw, err := os.ReadFile(cfg.out + "/trace-" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if file.Workload != name || len(file.Spans) == 0 {
		t.Fatalf("trace file names %q and holds %d spans", file.Workload, len(file.Spans))
	}
	ids := map[int64]bool{}
	for _, s := range file.Spans {
		if ids[s.ID] {
			t.Fatalf("span id %d used twice", s.ID)
		}
		ids[s.ID] = true
	}
	for _, s := range file.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d (%s): parent %d does not exist", s.ID, s.Name, s.Parent)
		}
		if s.EndUs < s.StartUs {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
}

func TestFloorMean(t *testing.T) {
	got := floorMean(map[string][]float64{"a": {3, 1, 2}, "b": {10}})
	if want := (1.0*3 + 10.0*1) / 4; got != want {
		t.Errorf("floorMean = %v, want %v", got, want)
	}
	if floorMean(map[string][]float64{}) != 0 {
		t.Error("floorMean of nothing is not 0")
	}
}

func TestStreamFollowsSeed(t *testing.T) {
	hash := func(seed int64) string {
		tn, err := buildTenant(t.TempDir(), "t00", 0, seed, 1500)
		if err != nil {
			t.Fatal(err)
		}
		defer tn.release()
		return streamHash(seed, []*tenant{tn}, workloads[0], 512)
	}
	a, b, c := hash(1), hash(1), hash(2)
	if a != b {
		t.Errorf("seed 1 gave stream %s, then %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave the same stream %s", a)
	}
}

// TestSpecAgreesWithCode holds BENCHMARK.json to the code and to the
// limits of the acceptance contract.
func TestSpecAgreesWithCode(t *testing.T) {
	spec := loadTestSpec(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if got := spec.Workloads[i]; got.Name != wl.name || got.Why != wl.why || len(wl.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %s: %s", i, got, wl.name, wl.why)
		}
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRe.MatchString(m.Name) || !unitRe.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (%q): bad or repeated name or unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better=%q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in s, lower is better")
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}
