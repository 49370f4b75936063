// Command benchmark is the repo's one benchmark: it generates inputs from
// a seed, starts the real serve path in-process (registry.New +
// registry.NewServer behind http.Server on a loopback listener), drives
// four workloads against it, verifies every answer, and prints every
// metric by name and unit. See README.md beside this file.
//
//	go run ./benchmark -seed 1                       # all workloads, untraced then traced
//	go run ./benchmark -workload warm_read -trace 0  # one run, end-to-end metrics
//	go run ./benchmark -workload warm_read -trace 1  # one run, per-layer metrics
//	go run ./benchmark -repeat 3                     # calibration: spreads against the bounds
//
// BENCHMARK.json runs it through run.sh, which builds inside the checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

const (
	// defaultSeconds is run_seconds of BENCHMARK.json; bench_test.go holds
	// the two together.
	defaultSeconds = 15
	// bigNodes and churnNodes are xmark.Scaled targets. They are sized so
	// that every workload collects at least minSamples query samples in
	// defaultSeconds on a 2-core box.
	bigNodes   = 20000
	churnNodes = 3600
	minSamples = 1000
	setupReps  = 3
	traceReqs  = 300
	outDir     = "benchmark/out"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload: warm_read, cache_pressure, tenant_churn or mixed_rw (default: all four)")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the measured window of an untraced run")
		trace   = flag.String("trace", "", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
		repeat  = flag.Int("repeat", 0, "calibration: run N full untraced sets on one seed and report each metric's spread against its bound")
		vary    = flag.Bool("vary-seed", false, "with -repeat: set i runs on seed+i, as the acceptance driver does")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *repeat, *vary); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace string, repeat int, varySeed bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if trace != "" && trace != "0" && trace != "1" {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	cfg := config{seed: seed, seconds: seconds, bigNodes: bigNodes, churnNodes: churnNodes,
		setupReps: setupReps, minSamples: minSamples, selfCheck: true, traceReqs: traceReqs, out: outDir}
	if seconds < defaultSeconds {
		// A shortened window cannot reach the sample floor; scale it.
		cfg.minSamples = int(float64(minSamples) * seconds / defaultSeconds)
	}
	todo := workloads
	if name != "" {
		wl, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = []workload{wl}
	}
	if repeat > 0 {
		return calibrate(cfg, spec, todo, repeat, varySeed)
	}

	var last *result
	for _, traced := range []bool{false, true} {
		if (traced && trace == "0") || (!traced && trace == "1") {
			continue
		}
		for _, wl := range todo {
			res, err := runOne(cfg, wl, traced)
			if res != nil {
				res.Env = captureEnv(cfg, wl)
				report(os.Stdout, res)
				if werr := writeResult(cfg.out, res); werr != nil && err == nil {
					err = werr
				}
			}
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			if err := spec.check(res); err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			last = res
		}
	}
	if name != "" && trace != "" {
		return printResultLine(last)
	}
	return nil
}

func runOne(cfg config, wl workload, traced bool) (*result, error) {
	if traced {
		return runTraced(cfg, wl)
	}
	return runUntraced(cfg, wl)
}

// printResultLine writes the acceptance driver's last line: exactly
// correct, attempted, failed and metrics.
func printResultLine(res *result) error {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func writeResult(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "untraced"
	if res.Traced {
		kind = "traced"
	}
	buf, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-%s-%s.json", res.Workload, kind)), append(buf, '\n'), 0o644)
}

// benchSpec is BENCHMARK.json: the metric lists every run is held to.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the root of the repository: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// check requires the run to have produced exactly the metrics
// BENCHMARK.json lists for its kind, with the listed units.
func (s *benchSpec) check(res *result) error {
	want := s.EndToEnd
	if res.Traced {
		want = s.PerLayer
	}
	var errs []error
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			errs = append(errs, fmt.Errorf("metric %s of BENCHMARK.json not measured", m.Name))
		} else if got.Unit != m.Unit {
			errs = append(errs, fmt.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit))
		}
	}
	if len(res.Metrics) > len(want) {
		listed := map[string]bool{}
		for _, m := range want {
			listed[m.Name] = true
		}
		for _, n := range sortedNames(res.Metrics) {
			if !listed[n] {
				errs = append(errs, fmt.Errorf("metric %s measured but not in BENCHMARK.json", n))
			}
		}
	}
	return errors.Join(errs...)
}
