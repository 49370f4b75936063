package main

import (
	"fmt"
	"os"
	"sort"
)

// calibrate runs n untraced sets, workload order alternated, and prints per
// workload and metric the median, the quartiles, their distance as a share
// of the median (what the acceptance driver holds against the bound) and
// the full range. Every set runs on cfg.seed, which isolates what the box
// does to a run; with varySeed set i runs on seed+i, the driver's own
// procedure, which adds what the seed does to the inputs. It fails if a
// spread exceeds the metric's bound; the bounds in BENCHMARK.json come from
// this output. The figures BENCHMARK.json does not bound are listed after,
// with their spread and no verdict.
func calibrate(cfg config, spec *benchSpec, todo []workload, n int, varySeed bool) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 sets to have quartiles")
	}
	bounded := map[string]map[string][]float64{} // workload → metric → one value per set
	unbounded := map[string]map[string][]float64{}
	for _, wl := range todo {
		bounded[wl.name], unbounded[wl.name] = map[string][]float64{}, map[string][]float64{}
	}
	for set := 0; set < n; set++ {
		order := append([]workload(nil), todo...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		c := cfg
		if varySeed {
			c.seed += int64(set)
		}
		for _, wl := range order {
			res, err := runUntraced(c, wl)
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", set, wl.name, err)
			}
			fmt.Fprintf(os.Stderr, "benchmark: set %d seed %d %s done in %.1fs, %d samples, %d failed\n",
				set, c.seed, wl.name, res.WallS, res.Samples, res.Failed)
			for name, m := range res.Metrics {
				bounded[wl.name][name] = append(bounded[wl.name][name], m.Value)
			}
			for name, m := range res.Extra {
				if m.Unit != "count" {
					unbounded[wl.name][name] = append(unbounded[wl.name][name], m.Value)
				}
			}
		}
	}
	over := 0
	row := func(wl, name string, v []float64, bound float64) {
		sort.Float64s(v)
		q1, q3 := quartiles(v)
		med := median(v)
		spread, full := ratio(q3-q1, med), ratio(v[len(v)-1]-v[0], med)
		verdict := "       -"
		if bound > 0 {
			verdict = fmt.Sprintf("%7.1f%%", 100*bound)
			if spread > bound {
				verdict += "  OVER"
				over++
			}
		}
		fmt.Printf("%-15s %-36s %12.4f %12.4f %12.4f %8.2f%% %8.2f%% %s\n", wl, name, med, q1, q3, 100*spread, 100*full, verdict)
	}
	fmt.Printf("%-15s %-36s %12s %12s %12s %9s %9s %8s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound")
	for _, wl := range todo {
		for _, m := range spec.EndToEnd {
			row(wl.name, m.Name, bounded[wl.name][m.Name], m.Bound)
		}
	}
	fmt.Println("not bounded:")
	for _, wl := range todo {
		names := make([]string, 0, len(unbounded[wl.name]))
		for name := range unbounded[wl.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if v := unbounded[wl.name][name]; len(v) == n {
				row(wl.name, name, v, 0)
			}
		}
	}
	if over > 0 {
		return fmt.Errorf("%d spreads exceed their bounds", over)
	}
	return nil
}
