package nok

import (
	"testing"
	"time"

	"dolxml/internal/storage"
	"dolxml/internal/xmark"
)

// BenchmarkDecodeBlock decodes every structure page of the benchmark's
// single-tenant document (xmark.Scaled to 20,000, ≈ 15k nodes on 4 KiB pages
// filled to 90 %) from bytes held in memory, so an iteration is decodeBlock
// and nothing else. A code changes every 40 nodes, about the share of
// transition entries the harness's revoke burst leaves. ns/entry is the
// figure to compare between commits; B/op and allocs/op are per iteration,
// one slot slice per page.
func BenchmarkDecodeBlock(b *testing.B) {
	doc := xmark.Generate(xmark.Scaled(1, 20000))
	codes := make(arrayCodes, doc.Len())
	for n := range codes {
		codes[n] = uint32(n / 40 % 5)
	}
	pool := storage.NewBufferPool(storage.NewMemPager(4096), 256)
	s, err := Build(pool, doc, BuildOptions{Codes: codes, FillPercent: 90})
	if err != nil {
		b.Fatal(err)
	}
	pages := make([][]byte, s.NumPages())
	for i, pi := range s.dir {
		f, err := pool.Get(pi.Page)
		if err != nil {
			b.Fatal(err)
		}
		pages[i] = append([]byte(nil), f.Data...)
		if err := pool.Unpin(pi.Page, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for k, data := range pages {
			if _, err := decodeBlock(s.dir[k], data); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*s.NumNodes()), "ns/entry")
}
