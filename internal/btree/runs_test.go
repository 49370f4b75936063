package btree

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dolxml/internal/xmltree"
)

// randomRunsInput is a document's worth of index input: the tag entries of
// nodes 0..n-1 and the text value of each ("" for none). The values repeat,
// share their first eight bytes and more, and hold bytes above 0x7f; the
// tags from valued on have no values at all. lookups are the values drawn
// from and some that no node has.
func randomRunsInput(rng *rand.Rand, n, numTags, valued int) (entries []Entry, values, lookups []string) {
	pool := []string{"a", "ab", "abcdefgh", "abcdefgh1", "abcdefgh2", "abcdefgh\xff", "abcdefg", "\xff", "\xfe\xff", "zz", "é", "\x80abc"}
	for i := 0; i < 20; i++ {
		pool = append(pool, fmt.Sprintf("sharedprefix-%03d", rng.Intn(40)))
	}
	entries, values = make([]Entry, n), make([]string, n)
	for i := range entries {
		entries[i] = Entry{int32(rng.Intn(numTags)), posting(i)}
		if int(entries[i].Tag) < valued && rng.Intn(4) > 0 {
			values[i] = pool[rng.Intn(len(pool))]
		}
	}
	return entries, values, append(pool, "", "abcdefgh0", "never stored")
}

func loaderOf(values []string, calls *atomic.Int64) func([]xmltree.NodeID) ([]string, error) {
	return func(nodes []xmltree.NodeID) ([]string, error) {
		calls.Add(1)
		out := make([]string, len(nodes))
		for i, n := range nodes {
			if i > 0 && n <= nodes[i-1] {
				return nil, fmt.Errorf("nodes %d, %d do not ascend", nodes[i-1], n)
			}
			out[i] = values[n]
		}
		return out, nil
	}
}

// The flat runs answer every tag and every (tag, value) as the loaded
// B+-trees do: the same postings in the same order.
func TestValueRunsMatchValueTree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 30; round++ {
		n, numTags := 1+rng.Intn(600), 1+rng.Intn(12)
		valued := rng.Intn(numTags + 1)
		entries, values, lookups := randomRunsInput(rng, n, numTags, valued)
		var ventries []ValueEntry
		for i, e := range entries {
			if values[i] != "" {
				ventries = append(ventries, ValueEntry{e.Tag, values[i], e.Posting})
			}
		}
		tree, err := Load(memPool(256), append([]Entry(nil), entries...))
		if err != nil {
			t.Fatal(err)
		}
		vtree, err := LoadValues(memPool(256), ventries)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := NewRuns(entries, numTags)
		if err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		vruns := NewValueRuns(runs, loaderOf(values, &calls))
		for tag := int32(-1); tag <= int32(numTags); tag++ {
			want, _ := tree.Postings(tag)
			got, err := runs.Postings(tag)
			if err != nil || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("round %d: Postings(%d) = %v, %v; want %v", round, tag, got, err, want)
			}
			for _, v := range lookups {
				want, _ := vtree.ValuePostings(tag, v)
				got, err := vruns.ValuePostings(tag, v)
				if err != nil || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("round %d: ValuePostings(%d, %q) = %v, %v; want %v", round, tag, v, got, err, want)
				}
			}
		}
		if calls.Load() != int64(numTags) {
			t.Fatalf("round %d: %d loads for %d tags", round, calls.Load(), numTags)
		}
	}
}

// Sixteen first lookups of one tag share one build (run under -race), and a
// failed build is every later lookup's answer for that tag alone.
func TestValueRunsBuildOncePerTag(t *testing.T) {
	entries, values, _ := randomRunsInput(rand.New(rand.NewSource(22)), 2000, 4, 4)
	runs, err := NewRuns(entries, 4)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	load := loaderOf(values, &calls)
	broken := errors.New("value page fault")
	vruns := NewValueRuns(runs, func(nodes []xmltree.NodeID) ([]string, error) {
		if nodes[0] == entries[0].Node { // the tag of node 0
			calls.Add(1)
			return nil, broken
		}
		return load(nodes)
	})
	okTag := (entries[0].Tag + 1) % 4
	var wg sync.WaitGroup
	got := make([][]Posting, 16)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[g], err = vruns.ValuePostings(okTag, "abcdefgh"); err != nil {
				t.Error(err)
			}
			if _, err = vruns.ValuePostings(entries[0].Tag, "a"); !errors.Is(err, broken) {
				t.Errorf("the failed tag answered %v", err)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if len(got[g]) == 0 || !reflect.DeepEqual(got[g], got[0]) {
			t.Fatalf("goroutine %d got %v, goroutine 0 %v", g, got[g], got[0])
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("%d loads for two tags", calls.Load())
	}
}

func TestNewRunsRejectsMisplacedEntries(t *testing.T) {
	for _, entries := range [][]Entry{
		{{0, posting(0)}, {0, posting(2)}},
		{{0, posting(0)}, {0, posting(0)}},
		{{0, posting(0)}, {2, posting(1)}},
		{{-1, posting(0)}},
	} {
		if _, err := NewRuns(entries, 2); err == nil {
			t.Errorf("NewRuns(%v) succeeded", entries)
		}
	}
}
