package btree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
)

func memPool(pageSize int) *storage.BufferPool {
	return storage.NewBufferPool(storage.NewMemPager(pageSize), 1<<16)
}

// insertBuilt is the reference: the same keys, one Insert each.
func insertBuilt(t testing.TB, pageSize int, entries []Entry) *Tree {
	t.Helper()
	tr, err := New(memPool(pageSize))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := tr.Insert(e.Tag, e.Posting); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func insertBuiltValues(t testing.TB, pageSize int, entries []ValueEntry) *ValueTree {
	t.Helper()
	vt, err := NewValueTree(memPool(pageSize))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := vt.Insert(e.Tag, e.Value, e.Posting); err != nil {
			t.Fatal(err)
		}
	}
	return vt
}

// sameTagAnswers compares Len and the postings of every tag in [lo, hi),
// which the callers choose to include tags no entry has.
func sameTagAnswers(t testing.TB, got, want *Tree, lo, hi int32) {
	t.Helper()
	if got.numKeys != want.numKeys {
		t.Fatalf("Len = %d, want %d", got.numKeys, want.numKeys)
	}
	for tag := lo; tag < hi; tag++ {
		g, err := got.Postings(tag)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Postings(tag)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("tag %d: %d postings %v, want %d %v", tag, len(g), g, len(w), w)
		}
	}
}

func sameValueAnswers(t testing.TB, got, want *ValueTree, tags []int32, values []string) {
	t.Helper()
	if got.numKeys != want.numKeys {
		t.Fatalf("Len = %d, want %d", got.numKeys, want.numKeys)
	}
	for _, tag := range tags {
		for _, v := range values {
			g, err := got.ValuePostings(tag, v)
			if err != nil {
				t.Fatal(err)
			}
			w, err := want.ValuePostings(tag, v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("(%d, %q): %v, want %v", tag, v, g, w)
			}
		}
	}
}

// checkShape walks a loaded tree: every inner page has at least two
// children, the leaf chain visits the leaves of the last level in order,
// and all leaves but the last are full.
func checkShape(t testing.TB, tr *Tree) {
	t.Helper()
	level := []storage.PageID{tr.root}
	for h := tr.height; h > 1; h-- {
		var below []storage.PageID
		for _, p := range level {
			f, err := tr.pool.Get(p)
			if err != nil {
				t.Fatal(err)
			}
			n := pageCount(f.Data)
			if f.Data[0] != kindInternal || n < 2 || n > tr.innerCap+1 {
				t.Fatalf("height %d: inner page %d has kind %d and %d children", h, p, f.Data[0], n)
			}
			for i := 0; i < n; i++ {
				below = append(below, childAt(f.Data, i))
			}
			if err := tr.pool.Unpin(p, false); err != nil {
				t.Fatal(err)
			}
		}
		level = below
	}
	for i, p := range level {
		f, err := tr.pool.Get(p)
		if err != nil {
			t.Fatal(err)
		}
		next := storage.InvalidPage
		if i+1 < len(level) {
			next = level[i+1]
			if pageCount(f.Data) != tr.leafCap {
				t.Fatalf("leaf %d of %d holds %d of %d entries", i, len(level), pageCount(f.Data), tr.leafCap)
			}
		}
		if f.Data[0] != kindLeaf || pageNext(f.Data) != next {
			t.Fatalf("leaf %d: kind %d, next %d, want next %d", i, f.Data[0], pageNext(f.Data), next)
		}
		if err := tr.pool.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
}

func checkValueShape(t testing.TB, vt *ValueTree) {
	t.Helper()
	level := []storage.PageID{vt.root}
	for h := vt.height; h > 1; h-- {
		var below []storage.PageID
		for _, p := range level {
			n, err := vt.load(p)
			if err != nil {
				t.Fatal(err)
			}
			if n.leaf || len(n.children) < 2 || vt.encodedSize(n) > vt.capacity {
				t.Fatalf("height %d: inner page %d: leaf %v, %d children, %d of %d bytes", h, p, n.leaf, len(n.children), vt.encodedSize(n), vt.capacity)
			}
			below = append(below, n.children...)
		}
		level = below
	}
	for i, p := range level {
		n, err := vt.load(p)
		if err != nil {
			t.Fatal(err)
		}
		next := storage.InvalidPage
		if i+1 < len(level) {
			next = level[i+1]
		}
		if !n.leaf || n.next != next || vt.encodedSize(n) > vt.capacity {
			t.Fatalf("leaf %d: leaf %v, next %d (want %d), %d of %d bytes", i, n.leaf, n.next, next, vt.encodedSize(n), vt.capacity)
		}
	}
}

func posting(node int) Posting {
	return Posting{Node: xmltree.NodeID(node), End: xmltree.NodeID(node + node%5), Level: uint16(node % 11)}
}

// Property: over random key sets and page sizes, in node order or not, a
// loaded tree answers like an insert-built one, and so does a tree
// re-attached to the loaded pages from Root, Height and Len.
func TestLoadMatchesInsert(t *testing.T) {
	maxHeight := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pageSize := []int{128, 200, 512, 4096}[rng.Intn(4)]
		numTags := int32(1 + rng.Intn(12))
		n := rng.Intn(3000)
		if pageSize == 128 && seed%2 == 0 {
			n = 1000 + rng.Intn(3000) // 8 keys a leaf, 10 children a page: height 4
		}
		entries := make([]Entry, 0, n)
		for _, node := range rng.Perm(4 * n)[:n] {
			entries = append(entries, Entry{rng.Int31n(numTags) * 3, posting(node)})
		}
		if seed%3 != 0 {
			// Node order, as an extent pass delivers them.
			for i := range entries {
				entries[i].Posting = posting(i * 2)
			}
		}
		want := insertBuilt(t, pageSize, entries)
		pool := memPool(pageSize)
		got, err := Load(pool, append([]Entry(nil), entries...))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkShape(t, got)
		sameTagAnswers(t, got, want, -1, numTags*3+1)
		sameTagAnswers(t, Open(pool, got.root, got.height, got.numKeys), want, -1, numTags*3+1)
		if got.height > want.height {
			t.Fatalf("seed %d: loaded height %d above inserted %d", seed, got.height, want.height)
		}
		maxHeight = max(maxHeight, got.height)
	}
	if maxHeight < 3 {
		t.Fatalf("tallest loaded tree has height %d; the property wants 3 or more covered", maxHeight)
	}
}

func TestLoadValuesMatchesInsert(t *testing.T) {
	maxHeight := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pageSize := []int{128, 200, 512, 4096}[rng.Intn(4)]
		tags := []int32{0, 1, 2, 5, 300}
		values := []string{"", "absent"}
		for i := 0; i < 1+rng.Intn(40); i++ {
			values = append(values, strings.Repeat("ab,x ", rng.Intn(5))+fmt.Sprint(i))
		}
		n := rng.Intn(1500)
		entries := make([]ValueEntry, 0, n)
		for _, node := range rng.Perm(2 * n)[:n] {
			// values[1] and tags[4] stay unused: the absent keys.
			entries = append(entries, ValueEntry{tags[rng.Intn(4)], values[2+rng.Intn(len(values)-2)], posting(node)})
		}
		want := insertBuiltValues(t, pageSize, entries)
		pool := memPool(pageSize)
		got, err := LoadValues(pool, append([]ValueEntry(nil), entries...))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkValueShape(t, got)
		sameValueAnswers(t, got, want, tags, values)
		sameValueAnswers(t, &ValueTree{pool: pool, root: got.root, height: got.height, numKeys: got.numKeys, capacity: got.capacity}, want, tags, values)
		maxHeight = max(maxHeight, got.height)
	}
	if maxHeight < 3 {
		t.Fatalf("tallest loaded tree has height %d; the property wants 3 or more covered", maxHeight)
	}
}

// Sizes around the page boundaries. With 128-byte pages a leaf holds 8 keys
// and an inner page 10 children, so 81 keys make 11 leaves: ten under one
// inner page would leave the last inner page a single child.
func TestLoadBoundarySizes(t *testing.T) {
	const pageSize = 128
	for _, tc := range []struct {
		name          string
		keys, height  int
		leaves, inner int
	}{
		{"no entries", 0, 1, 1, 0},
		{"one entry", 1, 1, 1, 0},
		{"exactly one leaf", 8, 1, 1, 0},
		{"one leaf plus one", 9, 2, 2, 1},
		{"exactly one inner page", 80, 2, 10, 1},
		{"last inner page short of a child", 81, 3, 11, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entries := make([]Entry, tc.keys)
			for i := range entries {
				entries[i] = Entry{int32(i % 3), posting(i)}
			}
			pool := memPool(pageSize)
			got, err := Load(pool, append([]Entry(nil), entries...))
			if err != nil {
				t.Fatal(err)
			}
			if got.height != tc.height || pool.Pager().NumPages() != tc.leaves+tc.inner {
				t.Fatalf("height %d on %d pages, want %d on %d", got.height, pool.Pager().NumPages(), tc.height, tc.leaves+tc.inner)
			}
			checkShape(t, got)
			sameTagAnswers(t, got, insertBuilt(t, pageSize, entries), -1, 4)
		})
	}
}

// NewValueTree, an empty LoadValues and a one-value LoadValues accept the
// same page sizes: those of at least minValueCapacity bytes of payload.
func TestValueTreeConstructorsAgreeOnPageSize(t *testing.T) {
	for pageSize := 16; pageSize <= 80; pageSize++ {
		_, newErr := NewValueTree(memPool(pageSize))
		_, emptyErr := LoadValues(memPool(pageSize), nil)
		one, oneErr := LoadValues(memPool(pageSize), []ValueEntry{{1, "v", posting(3)}})
		want := pageSize-pageHeader >= minValueCapacity
		if (newErr == nil) != want || (emptyErr == nil) != want || (oneErr == nil) != want {
			t.Fatalf("page size %d: NewValueTree %v, empty LoadValues %v, one-value LoadValues %v; want accepted = %v",
				pageSize, newErr, emptyErr, oneErr, want)
		}
		if !want {
			continue
		}
		if got, err := one.ValuePostings(1, "v"); err != nil || len(got) != 1 {
			t.Fatalf("page size %d: the one value reads back as %v, %v", pageSize, got, err)
		}
	}
}

func TestLoadValuesBoundarySizes(t *testing.T) {
	const pageSize = 128
	// Every entry takes 11 bytes of a leaf's 121: tag, length, 6 bytes of
	// value, node, end, level.
	entry := func(i int) ValueEntry {
		return ValueEntry{1, fmt.Sprintf("v%05d", i), Posting{Node: xmltree.NodeID(i % 100), End: xmltree.NodeID(i % 100), Level: 3}}
	}
	for _, keys := range []int{0, 1, 11, 12, 11 * 11, 11*11 + 1, 11 * 12, 11*12 + 1, 700} {
		t.Run(fmt.Sprint(keys, " keys"), func(t *testing.T) {
			entries := make([]ValueEntry, keys)
			values := []string{"v"}
			for i := range entries {
				entries[i] = entry(i)
				values = append(values, entries[i].Value)
			}
			got, err := LoadValues(memPool(pageSize), append([]ValueEntry(nil), entries...))
			if err != nil {
				t.Fatal(err)
			}
			if wantLeaf := keys <= 11; (got.height == 1) != wantLeaf {
				t.Fatalf("height %d for %d keys", got.height, keys)
			}
			checkValueShape(t, got)
			sameValueAnswers(t, got, insertBuiltValues(t, pageSize, entries), []int32{0, 1, 2}, values)
		})
	}
}

func TestLoadRejectsWhatInsertRejects(t *testing.T) {
	dup := []Entry{{1, posting(4)}, {2, posting(4)}, {1, posting(9)}, {1, posting(4)}}
	if _, err := Load(memPool(256), dup); err == nil || !strings.Contains(err.Error(), "duplicate key (tag 1, node 4)") {
		t.Fatalf("duplicate key: %v", err)
	}
	// In node order too, where no comparison sort runs.
	if _, err := Load(memPool(256), []Entry{{1, posting(4)}, {1, posting(4)}}); err == nil {
		t.Fatal("duplicate key in node order accepted")
	}
	vdup := []ValueEntry{{1, "x", posting(4)}, {1, "y", posting(4)}, {1, "x", posting(4)}}
	if _, err := LoadValues(memPool(256), vdup); err == nil || !strings.Contains(err.Error(), "duplicate value key (tag 1, node 4)") {
		t.Fatalf("duplicate value key: %v", err)
	}
	long := strings.Repeat("v", 400)
	_, loadErr := LoadValues(memPool(256), []ValueEntry{{1, "x", posting(1)}, {1, long, posting(2)}})
	vt, err := NewValueTree(memPool(256))
	if err != nil {
		t.Fatal(err)
	}
	insertErr := vt.Insert(1, long, posting(2))
	if loadErr == nil || insertErr == nil || loadErr.Error() != insertErr.Error() {
		t.Fatalf("value larger than a page: load %v, insert %v", loadErr, insertErr)
	}
	// The longest value the loader takes still works as a separator: two
	// children to an inner page, one entry to a leaf.
	fits := strings.Repeat("v", 256-pageHeader-2*childPtr-4)
	var entries []ValueEntry
	for i := 0; i < 5; i++ {
		entries = append(entries, ValueEntry{1, fits, posting(i)})
	}
	got, err := LoadValues(memPool(256), entries)
	if err != nil {
		t.Fatal(err)
	}
	if ps, err := got.ValuePostings(1, fits); err != nil || len(ps) != 5 {
		t.Fatalf("longest value: %d postings, %v", len(ps), err)
	}
	if _, err := LoadValues(memPool(256), []ValueEntry{{1, fits + "v", posting(1)}}); err == nil {
		t.Fatal("a value one byte longer accepted")
	}
}

// fuzzEntries reads (tag, value length, node) triples off data. Tags, nodes
// and values come from small ranges so that duplicates and shared values
// are common.
func fuzzEntries(data []byte) []ValueEntry {
	var out []ValueEntry
	for ; len(data) >= 4; data = data[4:] {
		node := int(binary.LittleEndian.Uint16(data[2:4])) % 2048
		out = append(out, ValueEntry{
			Tag:     int32(data[0] % 8),
			Value:   strings.Repeat("k", int(data[1]%24)),
			Posting: posting(node),
		})
	}
	return out
}

// FuzzLoad feeds one entry list to both loaders and to the insert-built
// references: they must accept and reject alike, and answer alike.
func FuzzLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 0})
	f.Add([]byte{1, 2, 3, 0, 1, 2, 3, 0})
	f.Add([]byte(strings.Repeat("\x01\x05\x07\x00\x02\x00\x09\x01\x01\x05\x08\x00", 40)))
	f.Fuzz(func(t *testing.T, data []byte) {
		const pageSize = 128
		ventries := fuzzEntries(data)
		entries := make([]Entry, len(ventries))
		for i, e := range ventries {
			entries[i] = Entry{e.Tag, e.Posting}
		}

		want, err := New(memPool(pageSize))
		if err != nil {
			t.Fatal(err)
		}
		var insertErr error
		for _, e := range entries {
			if insertErr = want.Insert(e.Tag, e.Posting); insertErr != nil {
				break
			}
		}
		got, err := Load(memPool(pageSize), entries)
		if (err == nil) != (insertErr == nil) {
			t.Fatalf("Load: %v, Insert: %v", err, insertErr)
		}
		if err == nil {
			checkShape(t, got)
			sameTagAnswers(t, got, want, 0, 9)
		}

		vwant, err := NewValueTree(memPool(pageSize))
		if err != nil {
			t.Fatal(err)
		}
		insertErr = nil
		for _, e := range ventries {
			if insertErr = vwant.Insert(e.Tag, e.Value, e.Posting); insertErr != nil {
				break
			}
		}
		vgot, err := LoadValues(memPool(pageSize), ventries)
		if (err == nil) != (insertErr == nil) {
			t.Fatalf("LoadValues: %v, Insert: %v", err, insertErr)
		}
		if err == nil {
			checkValueShape(t, vgot)
			values := make([]string, 25)
			for i := range values {
				values[i] = strings.Repeat("k", i)
			}
			sameValueAnswers(t, vgot, vwant, []int32{0, 1, 2, 3, 4, 5, 6, 7, 8}, values)
		}
	})
}

// LoadValues sorts on cheap keys; the order it produces — and with it every
// leaf, since the packing below the sort is untouched — must be the one the
// full (tag, value, node) comparison gives. The values are the awkward ones:
// duplicates, shared 8-byte prefixes, values shorter than the prefix, a
// value and its extension by zero bytes, bytes above 0x7f.
func TestLoadValuesOrderMatchesFullComparison(t *testing.T) {
	stems := []string{"", "a", "ab", "ab\x00", "ab\x00\x00", "abcdefg", "abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefghZ",
		"abcdefgh\xff", "\xff", "\xff\xfe", "\xc3\xa9t\xc3\xa9", "\xc3\xa9t\xc3\xa9s longs", "\x00", "\x00\x00\x00\x00\x00\x00\x00\x00\x01",
		"07/05/2000", "07/05/2001", "07/05/20", "Will ship only within country", "Will ship internationally"}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(2000)
		entries := make([]ValueEntry, 0, n)
		for _, node := range rng.Perm(2 * n)[:n] {
			entries = append(entries, ValueEntry{int32(rng.Intn(6)) - 1, stems[rng.Intn(len(stems))], posting(node)})
		}
		if seed%2 == 0 {
			// Node order, as the index build delivers them.
			slices.SortFunc(entries, func(a, b ValueEntry) int { return cmp.Compare(a.Node, b.Node) })
		}
		if seed%5 == 0 {
			// Tags too far apart to bucket by counting.
			for i := range entries {
				entries[i].Tag <<= 20
			}
		}
		want := slices.Clone(entries)
		slices.SortFunc(want, func(a, b ValueEntry) int {
			return cmp.Or(cmp.Compare(a.Tag, b.Tag), strings.Compare(a.Value, b.Value), cmp.Compare(a.Node, b.Node))
		})
		if got := sortValueEntries(slices.Clone(entries)); !slices.Equal(got, want) {
			t.Fatalf("seed %d: sortValueEntries departs from the full comparison", seed)
		}

		vt, err := LoadValues(memPool(256), entries)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		page := vt.root
		for h := vt.height; h > 1; h-- {
			n, err := vt.load(page)
			if err != nil {
				t.Fatal(err)
			}
			page = n.children[0]
		}
		var leaves []ValueEntry
		for page != storage.InvalidPage {
			n, err := vt.load(page)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range n.entries {
				leaves = append(leaves, ValueEntry{e.key.tag, e.key.value, e.p})
			}
			page = n.next
		}
		if !slices.Equal(leaves, want) {
			t.Fatalf("seed %d: the leaf chain holds %d entries in another order than the full comparison's %d", seed, len(leaves), len(want))
		}
	}
}
