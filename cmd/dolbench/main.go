// Command dolbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dolbench [-exp name[,name...]] [-scale quick|default|paper] [-seed N]
//
// With no -exp flag every experiment runs. Experiment names: fig4a fig4b
// fig5 fig6 storage fig7 joins updates worstcase ablation modes codebook.
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
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
