package btree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"dolxml/internal/storage"
)

// Entry is one key of the tag index with its posting: (Tag, Posting.Node).
type Entry struct {
	Tag int32
	Posting
}

// ValueEntry is one key of the value index with its posting:
// (Tag, Value, Posting.Node).
type ValueEntry struct {
	Tag   int32
	Value string
	Posting
}

// Load builds a tree over pool from all its keys at once, bottom up: the
// entries are put in key order, the leaves are written left to right, each
// page once, and every inner level is built from the first keys of the
// level below. The pages have the format Insert writes, so Scan and Open
// read the result unchanged; what differs is the fill. Leaves are packed
// full, which suits an index that is never updated in place (a snapshot's
// index is replaced, not edited) and would make the first inserts into
// every leaf split it.
//
// Entries in node order, what a pass over the document yields, are only
// bucketed by tag; any other order costs a comparison sort. A duplicate key
// is an error, as it is for Insert.
func Load(pool *storage.BufferPool, entries []Entry) (*Tree, error) {
	if len(entries) == 0 {
		return New(pool)
	}
	t := Open(pool, storage.InvalidPage, 0, len(entries))
	entries = sortEntries(entries)
	for i := 1; i < len(entries); i++ {
		if e := entries[i]; e.Tag == entries[i-1].Tag && e.Node == entries[i-1].Node {
			return nil, fmt.Errorf("btree: duplicate key (tag %d, node %d)", e.Tag, e.Node)
		}
	}
	leaves, err := packLevel(pool, entries, true,
		func(rest []Entry) int { return min(t.leafCap, len(rest)) },
		func(data []byte, es []Entry) {
			initLeaf(data)
			setCount(data, len(es))
			for i, e := range es {
				putLeafEntry(data, i, e.Tag, e.Posting)
			}
		},
		func(e Entry) key { return key{e.Tag, e.Node} })
	if err != nil {
		return nil, err
	}
	t.root, t.height, err = packInner(pool, leaves,
		func(rest []child[key]) int { return min(t.innerCap+1, len(rest)) },
		func(data []byte, kids []child[key]) {
			initInternal(data)
			setCount(data, len(kids))
			for i, c := range kids {
				setChildAt(data, i, c.page)
				if i > 0 {
					t.putSepKey(data, i-1, c.first)
				}
			}
		})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// sortEntries returns entries ordered by (tag, node). When they arrive in
// node order a stable bucketing by tag is all it takes.
func sortEntries(entries []Entry) []Entry {
	if slices.IsSortedFunc(entries, func(a, b Entry) int { return cmp.Compare(a.Node, b.Node) }) {
		if place, ok := tagOrder(entries, func(e Entry) int32 { return e.Tag }); ok {
			out := make([]Entry, len(entries))
			for i, at := range place {
				out[at] = entries[i]
			}
			return out
		}
	}
	slices.SortFunc(entries, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.Tag, b.Tag), cmp.Compare(a.Node, b.Node))
	})
	return entries
}

// tagOrder returns the place of each of the items (at least one) once they
// are in tag order, those of one tag staying in the order they came in: a
// counting sort over the span of the tags. A store's tag codes are dense;
// when the tags lie too far apart to count that way (a fuzzer's do) ok is
// false.
func tagOrder[T any](items []T, tag func(T) int32) (place []int32, ok bool) {
	lo, hi := tag(items[0]), tag(items[0])
	for _, it := range items {
		lo, hi = min(lo, tag(it)), max(hi, tag(it))
	}
	if int64(hi)-int64(lo) > int64(len(items))+1024 {
		return nil, false
	}
	// next[t-lo] is where the next item of tag t goes.
	next := make([]int32, int(hi-lo)+2)
	for _, it := range items {
		next[tag(it)-lo+1]++
	}
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	place = make([]int32, len(items))
	for i, it := range items {
		place[i] = next[tag(it)-lo]
		next[tag(it)-lo]++
	}
	return place, true
}

// sortValueEntries returns entries ordered by (tag, value, node): bucketed
// by tag, then each bucket sorted on 16-byte keys — the value's first eight
// bytes as a big-endian integer (zero-padded, which orders a value before
// its extensions as strings.Compare does) and the entry's position. The
// strings are looked at only when two values of one tag share that prefix.
func sortValueEntries(entries []ValueEntry) []ValueEntry {
	byValueNode := func(a, b *ValueEntry) int {
		return cmp.Or(strings.Compare(a.Value, b.Value), cmp.Compare(a.Node, b.Node))
	}
	place, ok := tagOrder(entries, func(e ValueEntry) int32 { return e.Tag })
	if !ok {
		slices.SortFunc(entries, func(a, b ValueEntry) int { return cmp.Or(cmp.Compare(a.Tag, b.Tag), byValueNode(&a, &b)) })
		return entries
	}
	type sortKey struct {
		prefix uint64
		at     int32
	}
	keys := make([]sortKey, len(entries))
	for i, at := range place {
		var p [8]byte
		copy(p[:], entries[i].Value)
		keys[at] = sortKey{binary.BigEndian.Uint64(p[:]), int32(i)}
	}
	out := make([]ValueEntry, len(entries))
	for lo, hi := 0, 0; lo < len(keys); lo = hi {
		tag := entries[keys[lo].at].Tag
		for hi = lo; hi < len(keys) && entries[keys[hi].at].Tag == tag; hi++ {
		}
		slices.SortFunc(keys[lo:hi], func(a, b sortKey) int {
			if a.prefix != b.prefix {
				return cmp.Compare(a.prefix, b.prefix)
			}
			return byValueNode(&entries[a.at], &entries[b.at])
		})
		for i, k := range keys[lo:hi] {
			out[lo+i] = entries[k.at]
		}
	}
	return out
}

// LoadValues is Load for the value index: one sort on (tag, value, node),
// leaves and inner pages filled greedily up to the page's byte capacity. A
// value too long to serve as a separator between two children of an inner
// page is an error (Insert accepts a value up to six bytes longer, as long
// as it fits a leaf).
func LoadValues(pool *storage.BufferPool, entries []ValueEntry) (*ValueTree, error) {
	if len(entries) == 0 {
		return NewValueTree(pool)
	}
	t := OpenValueTree(pool, storage.InvalidPage, 0, len(entries))
	entries = sortValueEntries(entries)
	for i, e := range entries {
		if 2*childPtr+sepSize(e.vkey()) > t.capacity {
			return nil, fmt.Errorf("btree: value of %d bytes exceeds page capacity", len(e.Value))
		}
		if i > 0 && e.vkey() == entries[i-1].vkey() {
			return nil, fmt.Errorf("btree: duplicate value key (tag %d, node %d)", e.Tag, e.Node)
		}
	}
	leaves, err := packLevel(pool, entries, true,
		func(rest []ValueEntry) int {
			return takeBytes(rest, t.capacity, func(e ValueEntry) int { return leafEntrySize(e.vkey(), e.Posting) })
		},
		func(data []byte, es []ValueEntry) {
			initLeaf(data)
			setCount(data, len(es))
			buf := data[pageHeader:pageHeader]
			for _, e := range es {
				buf = appendLeafEntry(buf, e.vkey(), e.Posting)
			}
		},
		ValueEntry.vkey)
	if err != nil {
		return nil, err
	}
	t.root, t.height, err = packInner(pool, leaves,
		func(rest []child[vkey]) int {
			// The first child costs its pointer alone, the others a
			// separator too.
			return 1 + takeBytes(rest[1:], t.capacity-childPtr, func(c child[vkey]) int { return childPtr + sepSize(c.first) })
		},
		func(data []byte, kids []child[vkey]) {
			initInternal(data)
			setCount(data, len(kids))
			buf := data[pageHeader:pageHeader]
			for _, c := range kids {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(c.page))
			}
			for _, c := range kids[1:] {
				buf = appendSep(buf, c.first)
			}
		})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (e ValueEntry) vkey() vkey { return vkey{e.Tag, e.Value, e.Node} }

// takeBytes returns how many of the leading items fit in budget bytes.
func takeBytes[T any](items []T, budget int, size func(T) int) int {
	n := 0
	for n < len(items) {
		budget -= size(items[n])
		if budget < 0 {
			break
		}
		n++
	}
	return n
}

// child is a page of the level below and the smallest key under it.
type child[K any] struct {
	page  storage.PageID
	first K
}

// packLevel writes items left to right into fresh pages: take says how many
// of the remaining items the next page holds (at least one), encode writes
// the whole page. Leaves are chained to their right sibling, which is why
// a page stays pinned until the next one has its ID.
func packLevel[T, K any](pool *storage.BufferPool, items []T, leaf bool, take func([]T) int, encode func([]byte, []T), first func(T) K) ([]child[K], error) {
	var (
		pages []child[K]
		prev  *storage.Frame
	)
	for len(items) > 0 {
		n := take(items)
		// An inner page with a single child routes nothing: leave the
		// last page two children by taking one fewer here.
		if !leaf && n == len(items)-1 && n > 2 {
			n--
		}
		f, err := pool.Allocate()
		if err != nil {
			if prev != nil {
				_ = pool.Unpin(prev.ID(), true) // the allocation's error is the one to report
			}
			return nil, err
		}
		encode(f.Data, items[:n])
		if prev != nil {
			if leaf {
				setNext(prev.Data, f.ID())
			}
			if err := pool.Unpin(prev.ID(), true); err != nil {
				return nil, err
			}
		}
		prev = f
		pages = append(pages, child[K]{f.ID(), first(items[0])})
		items = items[n:]
	}
	return pages, pool.Unpin(prev.ID(), true)
}

// packInner stacks inner levels on the leaves until one page is left, and
// returns it with the height of the tree.
func packInner[K any](pool *storage.BufferPool, level []child[K], take func([]child[K]) int, encode func([]byte, []child[K])) (storage.PageID, int, error) {
	height := 1
	for len(level) > 1 {
		up, err := packLevel(pool, level, false, take, encode, func(c child[K]) K { return c.first })
		if err != nil {
			return storage.InvalidPage, 0, err
		}
		level = up
		height++
	}
	return level[0].page, height, nil
}
