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
// after it is what a tenant serves.
func TestAccessBurstLayoutPinned(t *testing.T) {
	want := readBurstGoldens(t)
	var got []string
	for i, tc := range burstTenants {
		st, doc, rng := churnSeal(t, 0, int64(7+i), tc.nodes, 4096)
		churnBurst(t, st, doc, rng)
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
// allocations per revoke, and the share of revokes spliced into their block
// rather than laid out again. Run with -benchtime 10x or more for the
// medians.
func BenchmarkSetAccessBurst(b *testing.B) {
	for _, tc := range burstTenants {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			perRevoke := make([]float64, 0, b.N)
			var bytes, allocs uint64
			var splices, relayouts int64
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
		})
	}
}
