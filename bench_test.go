// Package dolxml's root benchmark suite: one testing.B entry point per
// table/figure of the paper, delegating to the experiment harness in
// internal/bench at its test scale. Run the full paper-shaped sweep with
// cmd/dolbench; these benchmarks exist so `go test -bench=.` regenerates
// every experiment and reports its cost.
package dolxml

import (
	"fmt"
	"testing"

	"dolxml/internal/bench"
	"dolxml/internal/btree"
	"dolxml/internal/storage"
	"dolxml/internal/xmark"
)

// runExperiment executes one named experiment per benchmark iteration.
func runExperiment(b *testing.B, name string) {
	cfg := bench.QuickConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := bench.Run(name, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no data", name)
		}
	}
}

// BenchmarkFig4a regenerates Figure 4(a): single-subject CAM vs DOL size
// across accessibility and propagation ratios.
func BenchmarkFig4a(b *testing.B) { runExperiment(b, "fig4a") }

// BenchmarkFig4b regenerates Figure 4(b): per-user CAM vs DOL across the
// LiveLink-like system's action modes.
func BenchmarkFig4b(b *testing.B) { runExperiment(b, "fig4b") }

// BenchmarkFig5 regenerates Figures 5(a)/5(b): codebook entries vs subject
// count on both multi-user datasets.
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figures 6(a)/6(b): transition nodes vs subject
// count on both multi-user datasets.
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkStorage regenerates the §5.1.1 DOL vs CAM storage comparison.
func BenchmarkStorage(b *testing.B) { runExperiment(b, "storage") }

// BenchmarkFig7 regenerates Figure 7(a-c): ε-NoK vs NoK time and answer
// ratios for Q1-Q3 across accessibility ratios.
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkJoins regenerates the §4.2 structural-join experiments for
// Q4-Q6 under both secure semantics.
func BenchmarkJoins(b *testing.B) { runExperiment(b, "joins") }

// BenchmarkUpdates regenerates the §3.4 update-cost and Proposition 1
// experiment.
func BenchmarkUpdates(b *testing.B) { runExperiment(b, "updates") }

// BenchmarkWorstCase regenerates the §2.1 uncorrelated-subjects worst-case
// analysis.
func BenchmarkWorstCase(b *testing.B) { runExperiment(b, "worstcase") }

// BenchmarkAblation regenerates the §3.3 page-skipping ablation.
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation") }

// BenchmarkModes regenerates the footnote-2 mode-correlation comparison.
func BenchmarkModes(b *testing.B) { runExperiment(b, "modes") }

// BenchmarkIndexBuild builds the tag and the value index of one XMark
// document, what securexml derives for every snapshot at Seal, at Open and
// after a structural commit, at the sizes of the repository benchmark's
// tenants (xmark.Scaled targets 3600 and 20000).
func BenchmarkIndexBuild(b *testing.B) {
	for _, target := range []int{3600, 20000} {
		doc := xmark.Generate(xmark.Scaled(0, target))
		b.Run(fmt.Sprintf("nodes=%d", doc.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pool := storage.NewBufferPool(storage.NewMemPager(4096), 1<<30/4096)
				if _, err := btree.BuildFromDocument(pool, doc); err != nil {
					b.Fatal(err)
				}
				if _, err := btree.BuildValueIndex(pool, doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
