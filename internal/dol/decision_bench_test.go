package dol

import (
	"math/rand"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/nok"
	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// benchStore builds a store with a wide random doc and many subjects (long
// codebook bitsets), so access decisions cost real bitset intersections.
// With coarse set, rights are granted on whole subtrees (the paper's
// correlated-ACL setting: few transitions, uniform pages); otherwise every
// node draws independently (many codes, mixed pages).
func benchStore(b *testing.B, nodes, subjects int, coarse bool) (*SecureStore, *bitset.Bitset) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	bld := xmltree.NewBuilder()
	bld.Begin("r")
	open := 1
	for i := 1; i < nodes; i++ {
		for open > 1 && rng.Intn(3) == 0 {
			bld.End()
			open--
		}
		bld.Begin([]string{"x", "y", "z", "w"}[rng.Intn(4)])
		open++
	}
	for ; open > 0; open-- {
		bld.End()
	}
	doc := bld.MustFinish()
	m := acl.NewMatrix(doc.Len(), subjects)
	if coarse {
		for k := 0; k < 40; k++ {
			root := xmltree.NodeID(rng.Intn(doc.Len()))
			s := acl.SubjectID(rng.Intn(subjects))
			for n := root; n <= doc.End(root); n++ {
				m.Set(n, s, true)
			}
		}
	} else {
		for n := 0; n < doc.Len(); n++ {
			for s := 0; s < subjects; s++ {
				if rng.Intn(5) > 0 {
					m.Set(xmltree.NodeID(n), acl.SubjectID(s), true)
				}
			}
		}
	}
	pool := storage.NewBufferPool(storage.NewMemPager(512), 4096)
	ss, err := BuildSecureStore(pool, doc, m, nok.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return ss, bitset.FromIndices(subjects, 0, subjects/2, subjects-1)
}

// BenchmarkAccessibleAny makes access decisions as a view does: one row
// lookup and one search of its runs for the view's subjects per decision.
// The node→code resolution is excluded, so the benchmark isolates the
// decision itself.
func BenchmarkAccessibleAny(b *testing.B) {
	ss, eff := benchStore(b, 4000, 2048, false)
	cb, subjects := ss.Codebook(), ss.View(eff).subjects
	codes := liveCodes(cb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skipSink = cb.AccessibleAny(codes[i%len(codes)], subjects)
	}
}

// liveCodes lists the codebook's live codes.
func liveCodes(cb *Codebook) []Code {
	var out []Code
	for c := range cb.entries {
		if cb.refs[c] > 0 {
			out = append(out, Code(c))
		}
	}
	return out
}

// BenchmarkSkipPageDirectory evaluates §3.3 page skipping through the
// directory and the codebook on every probe: a decision per probe of a
// page whose change bit is clear.
func BenchmarkSkipPageDirectory(b *testing.B) {
	ss, eff := benchStore(b, 4000, 2048, true)
	st, cb, subjects := ss.Store(), ss.Codebook(), ss.View(eff).subjects
	pages := st.NumPages()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pi := st.PageInfoAt(i % pages)
		skipSink = !pi.ChangeBit && !cb.AccessibleAny(pi.AccessCode, subjects)
	}
}

// BenchmarkSkipPageBitmap probes the view's page-deny bitmap, built once
// as a query's compile step builds it.
func BenchmarkSkipPageBitmap(b *testing.B) {
	ss, eff := benchStore(b, 4000, 2048, true)
	pages := ss.Store().NumPages()
	bits := ss.View(eff).PageDenyBits() // built outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % pages
		skipSink = bits[p/64]&(1<<uint(p%64)) != 0
	}
}

// skipSink keeps the probes' results live.
var skipSink bool
