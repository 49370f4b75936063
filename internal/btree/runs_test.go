package btree

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// randomClasses puts each node in one of spread path classes of its tag:
// tag t's classes are numTags·k + t, for k < spread, so a class has one tag
// and some classes have no node.
func randomClasses(rng *rand.Rand, entries []Entry, numTags, spread int) Classes {
	of := make([]int32, len(entries))
	for i, e := range entries {
		of[i] = int32(numTags*rng.Intn(spread)) + e.Tag
	}
	tag := make([]int32, numTags*spread)
	for c := range tag {
		tag[c] = int32(c % numTags)
	}
	return Classes{Of: of, Tag: tag, Numbering: rng.Uint64()}
}

// postingsOf returns the entries' postings, in a slice of their own.
func postingsOf(entries []Entry) []Posting {
	ps := make([]Posting, len(entries))
	for i, e := range entries {
		ps[i] = e.Posting
	}
	return ps
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
		runs, err := NewClassRuns(postingsOf(entries), numTags, randomClasses(rng, entries, numTags, 1+rng.Intn(6)))
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
	rng := rand.New(rand.NewSource(22))
	entries, values, _ := randomRunsInput(rng, 2000, 4, 4)
	runs, err := NewClassRuns(postingsOf(entries), 4, randomClasses(rng, entries, 4, 3))
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

// The class runs hold each node once, under its class, each run in
// document order; a tag's postings, and any classes' merged, are those of
// every node with the tag, or in the classes, in document order — for a
// tag with no node and for tags spread over up to twenty classes.
func TestClassRunsGroupByClass(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	spread := 0
	for round := 0; round < 40; round++ {
		n, numTags := rng.Intn(900), 1+rng.Intn(10)
		// The last tag has no node.
		entries, _, _ := randomRunsInput(rng, n, max(numTags-1, 1), 0)
		cl := randomClasses(rng, entries, numTags, 1+rng.Intn(20))
		in := cl
		in.Of = slices.Clone(cl.Of)
		runs, err := NewClassRuns(postingsOf(entries), numTags, in)
		if err != nil {
			t.Fatal(err)
		}
		if num, k := runs.ClassNumbering(); num != cl.Numbering || k != len(cl.Tag) {
			t.Fatalf("round %d: ClassNumbering() = %d, %d; want %d, %d", round, num, k, cl.Numbering, len(cl.Tag))
		}
		if b := runs.Bytes(); b < int64(n)*12 || b > int64(n)*12+int64(numTags+2*len(cl.Tag)+2)*4 {
			t.Fatalf("round %d: %d bytes for %d postings, %d tags and %d classes", round, b, n, numTags, len(cl.Tag))
		}
		held := 0
		for class := int32(-1); class <= int32(len(cl.Tag)); class++ {
			run := runs.ClassPostings(class)
			for k, p := range run {
				if int(p.Node) >= n || cl.Of[p.Node] != class || p != entries[p.Node].Posting || k > 0 && p.Node <= run[k-1].Node {
					t.Fatalf("round %d: class %d holds %v at %d", round, class, p, k)
				}
			}
			held += len(run)
		}
		if held != n {
			t.Fatalf("round %d: the class runs hold %d postings for %d nodes", round, held, n)
		}
		filter := func(keep func(i int) bool) []Posting {
			var want []Posting
			for i, e := range entries {
				if keep(i) {
					want = append(want, e.Posting)
				}
			}
			return want
		}
		for tag := int32(-1); tag <= int32(numTags); tag++ {
			want := filter(func(i int) bool { return entries[i].Tag == tag })
			if got, err := runs.Postings(tag); err != nil || !slices.Equal(got, want) {
				t.Fatalf("round %d: Postings(%d) = %v, %v; want %v", round, tag, got, err, want)
			}
			classes := map[int32]bool{}
			for i := range want {
				classes[cl.Of[want[i].Node]] = true
			}
			spread = max(spread, len(classes))
		}
		some := map[int32]bool{}
		var pick []int32
		for class := int32(0); class < int32(len(cl.Tag)); class++ {
			if rng.Intn(3) == 0 {
				some[class] = true
				pick = append(pick, class)
			}
		}
		rng.Shuffle(len(pick), func(i, j int) { pick[i], pick[j] = pick[j], pick[i] })
		var got []Posting
		lists := make([][]Posting, len(pick))
		for k, c := range pick {
			lists[k] = runs.ClassPostings(c)
		}
		Merge(lists, func(run []Posting, k int) {
			for _, p := range run {
				if pick[k] != cl.Of[p.Node] {
					t.Fatalf("round %d: the merge hands out node %d under class %d", round, p.Node, pick[k])
				}
			}
			got = append(got, run...)
		})
		if want := filter(func(i int) bool { return some[cl.Of[i]] }); !slices.Equal(got, want) {
			t.Fatalf("round %d: the merge of classes %v is %v, want %v", round, pick, got, want)
		}
	}
	if spread < 15 {
		t.Fatalf("no tag spread over more than %d classes", spread)
	}
}

// NewClassRuns refuses postings out of place, classes out of range, a
// class list of another length and a class with nodes whose tag is out of
// range — and leaves its input as it was.
func TestNewRunsRejectsMisplacedEntries(t *testing.T) {
	one := func(postings []Posting, tags []int32, of ...int32) error {
		in := slices.Clone(postings)
		_, err := NewClassRuns(in, 2, Classes{Of: of, Tag: tags})
		if err != nil && !slices.Equal(in, postings) {
			t.Errorf("a refused call reordered its postings %v into %v", postings, in)
		}
		return err
	}
	tags := []int32{0, 1, 0, 1}
	for _, ps := range [][]Posting{
		{posting(0), posting(2)},
		{posting(0), posting(0)},
		{posting(1), posting(0)},
	} {
		if one(ps, tags, 0, 2) == nil {
			t.Errorf("the misplaced postings %v were accepted", ps)
		}
	}
	ps := []Posting{posting(0), posting(1)}
	for _, of := range [][]int32{{0, 4}, {-1, 1}, {0}, {0, 1, 2}} {
		if one(ps, tags, of...) == nil {
			t.Errorf("the classes %v were accepted", of)
		}
	}
	for _, tags := range [][]int32{{0, 2, 0, 1}, {-1, 1, 0, 1}} {
		if one(ps, tags, 0, 1) == nil {
			t.Errorf("the class tags %v were accepted", tags)
		}
	}
	if one(ps, []int32{0, 1, 7, -1}, 0, 1) != nil {
		t.Error("a tag out of range on a class without nodes was refused")
	}
	if one(ps, tags, 1, 0) != nil {
		t.Error("two nodes in classes of their own were refused")
	}
}
