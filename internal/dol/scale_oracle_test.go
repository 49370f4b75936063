package dol

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/nok"
	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

// scaleDoc builds a ~300-node three-level document: sections of entries,
// each entry a small subtree — enough structure for subtree updates to
// cross block boundaries at small page sizes.
func scaleDoc(t testing.TB) *xmltree.Document {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<site>")
	for s := 0; s < 8; s++ {
		fmt.Fprintf(&sb, "<section id=\"s%d\">", s)
		for e := 0; e < 8; e++ {
			fmt.Fprintf(&sb, "<entry><name>e%d-%d</name><body>text</body></entry>", s, e)
		}
		sb.WriteString("</section>")
	}
	sb.WriteString("</site>")
	return xmltree.MustParseString(sb.String())
}

// TestScaleOracle is the population-scale property test: a store labeled
// for 100 000 subjects (2 000 under -short) under a group-correlated
// initial policy takes hundreds of random subtree grant/revoke updates,
// and after every one:
//
//   - Proposition 1 holds: the update adds at most 2 transitions to the
//     document-order label sequence;
//   - sampled access decisions agree with a brute-force ACL matrix oracle,
//     through the raw store, through a fresh SubjectView (cold cache), and
//     through a long-lived reused SubjectView (warm cache, regenerating on
//     codebook mutation).
//
// A full matrix comparison at checkpoints confirms the store and oracle
// never diverge anywhere, not just at sampled points.
func TestScaleOracle(t *testing.T) {
	subjects := 100000
	updates := 300
	if testing.Short() {
		subjects = 2000
		updates = 80
	}
	doc := scaleDoc(t)
	n := doc.Len()
	rng := rand.New(rand.NewSource(7))

	// Group-correlated start: ~sqrt(subjects)-sized contiguous subject
	// ranges, each granted one section's subtree.
	groupSize := 1
	for groupSize*groupSize < subjects {
		groupSize++
	}
	m := acl.NewMatrix(n, subjects)
	sections := doc.NodesWithTag("section")
	for gi := 0; gi*groupSize < subjects; gi++ {
		lo := gi * groupSize
		hi := lo + groupSize
		if hi > subjects {
			hi = subjects
		}
		sec := sections[gi%len(sections)]
		for i := sec; i <= doc.End(sec); i++ {
			or := m.Row(i).Clone()
			or.SetRange(lo, hi)
			m.SetRow(i, or)
		}
	}

	pool := storage.NewBufferPool(storage.NewMemPager(256), 1024)
	ss, err := BuildSecureStore(pool, doc, m, nok.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := m.Clone()

	reused := make(map[acl.SubjectID]*SubjectView)
	viewFor := func(s acl.SubjectID) *SubjectView {
		v, ok := reused[s]
		if !ok {
			v = ss.ViewSubject(s)
			reused[s] = v
		}
		return v
	}
	checkSample := func(step int) {
		for k := 0; k < 8; k++ {
			node := xmltree.NodeID(rng.Intn(n))
			s := acl.SubjectID(rng.Intn(subjects))
			want := oracle.Accessible(node, s)
			if got, err := ss.Accessible(node, s); err != nil || got != want {
				t.Fatalf("step %d: Accessible(%d,%d) = %v,%v want %v", step, node, s, got, err, want)
			}
			if got, err := ss.ViewSubject(s).Accessible(node); err != nil || got != want {
				t.Fatalf("step %d: fresh view (%d,%d) = %v,%v want %v", step, node, s, got, err, want)
			}
			if got, err := viewFor(s).Accessible(node); err != nil || got != want {
				t.Fatalf("step %d: reused view (%d,%d) = %v,%v want %v", step, node, s, got, err, want)
			}
		}
	}

	trans, err := ss.TransitionCount()
	if err != nil {
		t.Fatal(err)
	}
	checkSample(-1)
	for step := 0; step < updates; step++ {
		root := xmltree.NodeID(rng.Intn(n))
		s := acl.SubjectID(rng.Intn(subjects))
		allowed := rng.Intn(2) == 0
		if err := ss.SetSubtreeAccess(root, s, allowed); err != nil {
			t.Fatalf("step %d: SetSubtreeAccess(%d,%d,%v): %v", step, root, s, allowed, err)
		}
		for i := root; i <= doc.End(root); i++ {
			oracle.Set(i, s, allowed)
		}

		next, err := ss.TransitionCount()
		if err != nil {
			t.Fatal(err)
		}
		if next > trans+2 {
			t.Fatalf("step %d: transitions %d -> %d; Proposition 1 allows at most +2", step, trans, next)
		}
		trans = next
		checkSample(step)

		if step%100 == 99 {
			got, err := ss.Matrix()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(oracle) {
				t.Fatalf("step %d: full matrix diverged from oracle", step)
			}
		}
	}

	got, err := ss.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(oracle) {
		t.Fatal("final matrix diverged from oracle")
	}
	// The codebook must stay bounded by the rule vocabulary, not the
	// update count: every update interns at most a handful of new rows and
	// releases the ones it replaced.
	if live := ss.Codebook().Len(); live > 4*n {
		t.Fatalf("codebook holds %d live entries for a %d-node document", live, n)
	}
	checkStoreRefs(t, ss)
}
