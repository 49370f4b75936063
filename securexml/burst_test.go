package securexml

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// burstTenants are the two tenant sizes of the benchmark's ACL bursts:
// tenant_churn's (about 2,700 nodes, 300 revokes) and the 15k-node tenant
// of warm_read, cache_pressure and mixed_rw (600 revokes).
var burstTenants = []struct {
	name  string
	nodes int
}{{"churn", 3600}, {"15k", 20000}}

// TestAccessBurstLayoutPinned pins what an accessibility update leaves
// behind: after churnTenant's seeded burst on both tenant sizes, the saved
// pages.db and store.json must hash to the goldens in
// testdata/access_burst.sha256, once before Vacuum and once after. Vacuum
// re-packs every block, so the image before it is the one that shows a
// change in how SetAccess lays out blocks, codes or the summary; the image
// after it is what a tenant serves. The bursts of seeds 7 and 8 never
// overflow a block; those of BenchmarkSetAccessBurst's seed 5000 do, and
// must split each overflowing block evenly: they relay out at least once
// and end, before Vacuum, with at most maxBlocks blocks.
func TestAccessBurstLayoutPinned(t *testing.T) {
	want := readBurstGoldens(t)
	var got []string
	for _, tc := range []struct {
		name      string
		nodes     int
		seed      int64
		maxBlocks int // 0: the burst need not relay out
	}{
		{"churn", burstTenants[0].nodes, 7, 0},
		{"15k", burstTenants[1].nodes, 8, 0},
		{"churn@5000", burstTenants[0].nodes, 5000, 4},
		{"15k@5000", burstTenants[1].nodes, 5000, 11},
	} {
		st, doc, rng := churnSeal(t, 0, tc.seed, tc.nodes, 4096)
		churnBurst(t, st, doc, rng)
		relayouts, blocks := st.MetricsSnapshot().Get("recode_relayouts"), st.cur.Load().st.NumPages()
		t.Logf("%s: %d relayouts, %d blocks after the burst", tc.name, relayouts, blocks)
		if tc.maxBlocks > 0 && (relayouts == 0 || blocks > tc.maxBlocks) {
			t.Errorf("%s: %d relayouts left %d blocks, want at least one relayout and at most %d blocks", tc.name, relayouts, blocks, tc.maxBlocks)
		}
		for _, stage := range []string{"before-vacuum", "after-vacuum"} {
			if stage == "after-vacuum" {
				if err := st.Vacuum(); err != nil {
					t.Fatal(err)
				}
			}
			dir := t.TempDir()
			if err := st.Save(dir); err != nil {
				t.Fatal(err)
			}
			for _, f := range []string{pageFile, metaFile} {
				data, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				got = append(got, fmt.Sprintf("%s/%s %s %s", tc.name, stage, f, hex.EncodeToString(sum[:])))
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("saved images moved:\ngot\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func readBurstGoldens(t *testing.T) []string {
	f, err := os.Open(filepath.Join("testdata", "access_burst.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// BenchmarkSetAccessBurst times churnTenant's burst of subtree revokes
// through Store.SetAccess — and nothing else: each iteration seals a fresh
// tenant with the clock stopped, then runs the burst. It reports the best
// and the median µs per revoke over the iterations, the bytes and
// allocations per revoke, the share of revokes spliced into their block
// rather than laid out again, and the structure blocks the burst leaves
// (blocks-after, before any Vacuum). Run with -benchtime 10x or more for the
// medians.
func BenchmarkSetAccessBurst(b *testing.B) {
	for _, tc := range burstTenants {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			perRevoke := make([]float64, 0, b.N)
			var bytes, allocs uint64
			var splices, relayouts, blocks int64
			calls := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, doc, rng := churnSeal(b, 0, 5000, tc.nodes, 4096)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.StartTimer()
				start := time.Now()
				n := churnBurst(b, st, doc, rng)
				elapsed := time.Since(start)
				b.StopTimer()
				runtime.ReadMemStats(&after)
				perRevoke = append(perRevoke, float64(elapsed.Nanoseconds())/1e3/float64(n))
				bytes += after.TotalAlloc - before.TotalAlloc
				allocs += after.Mallocs - before.Mallocs
				calls += n
				m := st.MetricsSnapshot()
				splices += m.Get("recode_splices")
				relayouts += m.Get("recode_relayouts")
				blocks += int64(st.cur.Load().st.NumPages())
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			slices.Sort(perRevoke)
			b.ReportMetric(perRevoke[0], "best-us/revoke")
			b.ReportMetric(perRevoke[len(perRevoke)/2], "median-us/revoke")
			b.ReportMetric(float64(bytes)/float64(calls), "B/revoke")
			b.ReportMetric(float64(allocs)/float64(calls), "allocs/revoke")
			b.ReportMetric(float64(splices)/float64(splices+relayouts), "splice-share")
			b.ReportMetric(float64(blocks)/float64(b.N), "blocks-after")
		})
	}
}
