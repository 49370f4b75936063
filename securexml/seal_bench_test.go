package securexml

import (
	"math/rand"
	"testing"
)

// BenchmarkSeal times Builder.Seal alone on the benchmark's two tenant
// documents — warm_read's xmark.Scaled(0, 20000) and tenant_churn's
// Scaled(0, 3600) — with churnTenant's subjects (8 groups granted read on
// /site, 24 users) and the facade's two modes. Loading the document into
// the builder and closing the store run with the clock stopped. Run with
// -benchtime 5x -benchmem.
func BenchmarkSeal(b *testing.B) {
	for _, tc := range []struct {
		name  string
		nodes int
	}{{"warm_read", 20000}, {"tenant_churn", 3600}} {
		b.Run(tc.name, func(b *testing.B) {
			xml := churnXML(b, 0, tc.nodes)
			b.ReportAllocs()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				bl := churnBuilder(xml, rand.New(rand.NewSource(int64(i))))
				b.StartTimer()
				st, err := bl.Seal(StoreOptions{PageSize: 4096})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
