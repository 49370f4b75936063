package synthacl

import (
	"reflect"
	"sort"
	"testing"

	"dolxml/internal/bitset"
)

// TestStreamSparseMatchesDenseOracle replays one grant stream into both the
// run-length codebook and dense per-folder bitsets and requires the same
// dictionary: as many entries as there are distinct dense ACLs and, folder
// by folder, equal ACLs.
func TestStreamSparseMatchesDenseOracle(t *testing.T) {
	cfg := DefaultStream(42, 3000)
	cfg.Nodes = 5000
	res := StreamCodebook(cfg)
	cfg = cfg.normalized()
	folders := cfg.Folders()
	dense := make([]*bitset.Bitset, len(folders))
	starts := make([]int, len(folders))
	for i, f := range folders {
		dense[i] = bitset.New(cfg.Subjects)
		starts[i] = f.Lo
	}
	StreamGrants(cfg, func(lo, _, subject int) { dense[sort.SearchInts(starts, lo)].Set(subject) })
	distinct := map[string]bool{}
	for _, a := range dense {
		distinct[a.String()] = true
	}
	if res.Codebook.Len() != len(distinct) {
		t.Fatalf("sparse has %d entries, dense oracle %d", res.Codebook.Len(), len(distinct))
	}
	if len(res.Codes) != len(dense) {
		t.Fatalf("folder counts differ: %d vs %d", len(res.Codes), len(dense))
	}
	// Interning a folder's dense ACL finds its code: the sparse codebook
	// holds the same ACLs under the same codes.
	for i := range res.Codes {
		if c := res.Codebook.Intern(dense[i].Runs()); c != res.Codes[i] {
			t.Fatalf("folder %d: the dense ACL interns as code %d, the stream gave %d", i, c, res.Codes[i])
		}
	}
	if res.Codebook.Len() != len(distinct) {
		t.Fatalf("interning the dense ACLs added entries: %d, want %d", res.Codebook.Len(), len(distinct))
	}
}

// TestStreamDeterministic pins that the generator is a pure function of its
// configuration — the multitenant and codebook gates depend on replays
// agreeing byte for byte.
func TestStreamDeterministic(t *testing.T) {
	cfg := DefaultStream(7, 2000)
	a := StreamCodebook(cfg)
	b := StreamCodebook(cfg)
	a.Stats.BuildTime, b.Stats.BuildTime = 0, 0
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("stats diverged across replays: %+v vs %+v", a.Stats, b.Stats)
	}
	if !reflect.DeepEqual(a.Codes, b.Codes) {
		t.Fatal("folder codes diverged across replays")
	}
}

// TestStreamSublinearGrowth checks the shape the full sweep gates on: a 10×
// subject increase must grow codebook entries by well under 10×.
func TestStreamSublinearGrowth(t *testing.T) {
	sizes := []int{1000, 10000}
	if !testing.Short() {
		sizes = append(sizes, 100000)
	}
	prev := 0
	for i, n := range sizes {
		res := StreamCodebook(DefaultStream(1, n))
		st := res.Stats
		if st.Entries < st.Groups/2 {
			t.Fatalf("%d subjects: implausibly few entries (%d) for %d groups", n, st.Entries, st.Groups)
		}
		if i > 0 {
			factor := float64(st.Entries) / float64(prev)
			if factor > 5 {
				t.Fatalf("entries grew %.1f× on a 10× subject step (%d -> %d)", factor, prev, st.Entries)
			}
		}
		// Sparse rows must beat dense rows decisively once rows are wide.
		if n >= 10000 && st.SparseBytes*10 > st.DenseBytes {
			t.Fatalf("%d subjects: sparse %d B not under 10%% of dense %d B", n, st.SparseBytes, st.DenseBytes)
		}
		prev = st.Entries
	}
}
