package dol

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"dolxml/internal/acl"
	"dolxml/internal/nok"
	"dolxml/internal/storage"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// BenchmarkDeepSubtreeRevoke times subtree revokes on a recursive document,
// xmlmodel.Doc(seed 1, 100,000 nodes, Deep) — some 83,000 path classes in
// 50 blocks — where every node starts readable by all four subjects. Each
// iteration draws a node whose subtree lies inside one block and revokes,
// then grants back, one subject on it twice. The first revoke moves the
// verdict of the classes it touches (their occurrences had one code); the
// second meets classes already mixed and moves none. It reports the median
// µs of each.
func BenchmarkDeepSubtreeRevoke(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	doc := xmlmodel.Doc(rng, 100000, xmlmodel.Deep)
	m := acl.NewMatrix(doc.Len(), 4)
	for n := range doc.Len() {
		for s := range 4 {
			m.Set(xmltree.NodeID(n), acl.SubjectID(s), true)
		}
	}
	ss, err := BuildSecureStore(storage.NewBufferPool(storage.NewMemPager(storage.DefaultPageSize), 4096), doc, m, nok.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	st := ss.Store()
	var first, again []float64
	b.ResetTimer()
	for range b.N {
		var n xmltree.NodeID
		for {
			n = xmltree.NodeID(rng.Intn(doc.Len()))
			if end, err := st.SubtreeEnd(n); err != nil {
				b.Fatal(err)
			} else if st.PageIndexOf(n) == st.PageIndexOf(end) {
				break
			}
		}
		s := acl.SubjectID(rng.Intn(4))
		for _, times := range []*[]float64{&first, &again} {
			start := time.Now()
			if err := ss.SetSubtreeAccess(n, s, false); err != nil {
				b.Fatal(err)
			}
			*times = append(*times, float64(time.Since(start).Nanoseconds())/1e3)
			if err := ss.SetSubtreeAccess(n, s, true); err != nil {
				b.Fatal(err)
			}
		}
	}
	slices.Sort(first)
	slices.Sort(again)
	b.ReportMetric(first[len(first)/2], "median-us/revoke")
	b.ReportMetric(again[len(again)/2], "median-us/repeat")
}
