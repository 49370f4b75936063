// Command dolbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dolbench [-exp name] [-scale quick|default|paper] [-seed N] [-json path] [-strict]
//
// With no -exp flag every experiment runs. Experiment names: fig4a fig4b
// fig5 fig6 storage fig7 joins updates worstcase ablation modes streaming
// pageskip pathsummary wal writeload obs codebook multitenant explain.
//
// With -strict, any table note starting with "VIOLATION" (an experiment's
// self-check failing, e.g. page skipping reading more pages than its
// baseline) makes the run exit non-zero — the CI guard mode.
//
// With -json, every table produced by the run is additionally written to
// the given file as indented JSON, so tooling can diff results across
// commits, e.g.:
//
//	dolbench -exp streaming -json BENCH_streaming.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dolxml/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(bench.Experiments, ", ")+" or all)")
	scale := flag.String("scale", "default", "dataset scale: quick, default or paper")
	seed := flag.Int64("seed", 1, "generator seed")
	jsonPath := flag.String("json", "", "also write the run's tables as JSON to this file")
	strict := flag.Bool("strict", false, "exit non-zero if any table notes a VIOLATION")
	flag.Parse()

	var cfg bench.Config
	switch *scale {
	case "quick":
		cfg = bench.QuickConfig()
	case "default":
		cfg = bench.DefaultConfig()
	case "paper":
		cfg = bench.PaperConfig()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	cfg.Seed = *seed
	cfg.LiveLink.Seed = *seed
	cfg.UnixFS.Seed = *seed

	names := bench.Experiments
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	var all []*bench.Table
	for _, name := range names {
		start := time.Now()
		tables, err := bench.Run(strings.TrimSpace(name), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		all = append(all, tables...)
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if *jsonPath != "" {
		if err := bench.WriteTablesJSON(*jsonPath, all); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d tables to %s\n", len(all), *jsonPath)
	}
	if *strict {
		violations := 0
		for _, t := range all {
			for _, n := range t.Notes {
				if strings.HasPrefix(n, "VIOLATION") {
					fmt.Fprintf(os.Stderr, "%s: %s\n", t.ID, n)
					violations++
				}
			}
		}
		if violations > 0 {
			fmt.Fprintf(os.Stderr, "%d violation(s)\n", violations)
			os.Exit(1)
		}
	}
}
