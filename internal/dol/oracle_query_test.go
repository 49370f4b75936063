package dol_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/query"
	"dolxml/internal/storage"
	"dolxml/internal/synthacl"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
)

// This file holds the update-sequence oracle property: after any random
// sequence of SetRangeACL / subtree-access / insert / delete / move
// updates, the incrementally maintained store must answer the Q1–Q6
// workload — under both secure semantics and for every subject — exactly
// like a store rebuilt from scratch from an oracle copy of the document
// and its access matrix. This pins the end-to-end correctness of the
// in-place region rewrites (and their transactional wrappers): any
// divergence in renumbering, transition maintenance or codebook handling
// shows up as a differing answer set.

// oracleQueries is the paper's Table 1 workload (bench.Table1).
var oracleQueries = []string{
	"/site/regions/africa/item[location][name][quantity]",
	"/site/categories/category[name]/description/text/bold",
	"/site/categories/category/description/text/bold",
	"//parlist//parlist",
	"//listitem//keyword",
	"//item//emph",
}

// onode is a mutable oracle tree node.
type onode struct {
	tag  string
	row  *bitset.Bitset
	kids []*onode
}

func oracleFromDoc(doc *xmltree.Document, m *acl.Matrix) *onode {
	var build func(n xmltree.NodeID) *onode
	build = func(n xmltree.NodeID) *onode {
		on := &onode{tag: doc.Tag(n), row: m.Row(n).Clone()}
		for c := doc.FirstChild(n); c != xmltree.InvalidNode; c = doc.NextSibling(c) {
			on.kids = append(on.kids, build(c))
		}
		return on
	}
	return build(doc.Root())
}

// preorder lists the oracle nodes in document order, so index i is the
// node with NodeID i in the equivalent store.
func preorder(root *onode) []*onode {
	var out []*onode
	var walk func(x *onode)
	walk = func(x *onode) {
		out = append(out, x)
		for _, k := range x.kids {
			walk(k)
		}
	}
	walk(root)
	return out
}

// parentOf finds the parent of nodes[idx] and its child position.
func parentOf(root *onode, target *onode) (parent *onode, pos int) {
	var walk func(x *onode) bool
	walk = func(x *onode) bool {
		for i, k := range x.kids {
			if k == target {
				parent, pos = x, i
				return true
			}
			if walk(k) {
				return true
			}
		}
		return false
	}
	walk(root)
	return parent, pos
}

func subtreeSize(x *onode) int {
	s := 1
	for _, k := range x.kids {
		s += k.size()
	}
	return s
}

func (x *onode) size() int { return subtreeSize(x) }

func contains(root, target *onode) bool {
	if root == target {
		return true
	}
	for _, k := range root.kids {
		if contains(k, target) {
			return true
		}
	}
	return false
}

// flatten rebuilds (document, matrix) from the oracle.
func flatten(root *onode, numSubjects int) (*xmltree.Document, *acl.Matrix) {
	b := xmltree.NewBuilder()
	var rows []*bitset.Bitset
	var walk func(x *onode)
	walk = func(x *onode) {
		b.Begin(x.tag)
		rows = append(rows, x.row)
		for _, k := range x.kids {
			walk(k)
		}
		b.End()
	}
	walk(root)
	doc := b.MustFinish()
	m := acl.NewMatrix(len(rows), numSubjects)
	for i, r := range rows {
		m.SetRow(xmltree.NodeID(i), r)
	}
	return doc, m
}

// storeIndex builds the tag index the way securexml does after an update:
// from the store itself, not from any document.
func storeIndex(t *testing.T, pool *storage.BufferPool, st *nok.Store) *btree.Tree {
	t.Helper()
	entries := make([]btree.Entry, st.NumNodes())
	err := st.ForEachExtent(func(n, end xmltree.NodeID, level int, tag int32) {
		entries[n] = btree.Entry{Tag: tag, Posting: btree.Posting{Node: n, End: end, Level: uint16(level)}}
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := btree.Load(pool, entries)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// answers evaluates q for every subject view under both semantics plus
// unrestricted, and serializes the node IDs.
func answers(t *testing.T, ss *dol.SecureStore, idx *btree.Tree, numSubjects int) string {
	t.Helper()
	ev := query.NewEvaluator(ss.Store(), idx)
	out := ""
	for _, q := range oracleQueries {
		pt, err := query.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		run := func(opts query.Options, label string) {
			res, err := ev.Evaluate(pt, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", q, label, err)
			}
			out += fmt.Sprintf("%s %s: %v\n", q, label, res.Nodes)
		}
		run(query.Options{}, "unrestricted")
		for s := 0; s < numSubjects; s++ {
			v := ss.ViewSubject(acl.SubjectID(s))
			run(query.Options{View: v, Semantics: query.SemanticsBindings}, fmt.Sprintf("s%d-bind", s))
			run(query.Options{View: v, Semantics: query.SemanticsPrunedSubtree}, fmt.Sprintf("s%d-pruned", s))
		}
	}
	return out
}

// randomFragment builds a small random fragment over the document's tags,
// with random per-node access rows.
func randomFragment(rng *rand.Rand, tags []string, numSubjects int) (*xmltree.Document, *acl.Matrix, []*onode) {
	b := xmltree.NewBuilder()
	var rows []*bitset.Bitset
	var nodes []*onode
	var build func(depth int) *onode
	build = func(depth int) *onode {
		tag := tags[rng.Intn(len(tags))]
		b.Begin(tag)
		row := bitset.New(numSubjects)
		for s := 0; s < numSubjects; s++ {
			if rng.Intn(2) == 0 {
				row.Set(s)
			}
		}
		rows = append(rows, row)
		on := &onode{tag: tag, row: row.Clone()}
		nodes = append(nodes, on)
		if depth < 2 {
			for k := 0; k < rng.Intn(3); k++ {
				on.kids = append(on.kids, build(depth+1))
			}
		}
		b.End()
		return on
	}
	root := build(0)
	doc := b.MustFinish()
	m := acl.NewMatrix(len(rows), numSubjects)
	for i, r := range rows {
		m.SetRow(xmltree.NodeID(i), r)
	}
	return doc, m, []*onode{root}
}

func TestUpdateSequenceQueryOracle(t *testing.T) {
	const numSubjects = 2
	trials := 4
	opsPerTrial := 14
	if testing.Short() {
		trials, opsPerTrial = 2, 8
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(101 + trial)))
		doc := xmark.Generate(xmark.Scaled(int64(trial), 500))
		m := acl.NewMatrix(doc.Len(), numSubjects)
		for s := 0; s < numSubjects; s++ {
			accSet := synthacl.Synthetic(doc, synthacl.SynthConfig{
				Seed:                int64(trial*numSubjects + s),
				PropagationRatio:    0.3,
				AccessibilityRatio:  0.6,
				ForceRootAccessible: true,
			})
			for n := 0; n < doc.Len(); n++ {
				if accSet.Test(n) {
					m.Set(xmltree.NodeID(n), acl.SubjectID(s), true)
				}
			}
		}
		pool := storage.NewBufferPool(storage.NewMemPager(512), 256)
		ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		root := oracleFromDoc(doc, m)
		tags := doc.Tags()

		for op := 0; op < opsPerTrial; op++ {
			nodes := preorder(root)
			size := len(nodes)
			kind := rng.Intn(5)
			switch kind {
			case 0: // SetRangeACL over an arbitrary range
				lo := rng.Intn(size)
				hi := lo + rng.Intn(size-lo)
				bit := rng.Intn(numSubjects)
				allowed := rng.Intn(2) == 0
				if err := ss.SetRangeACL(xmltree.NodeID(lo), xmltree.NodeID(hi), func(old *bitset.Bitset) *bitset.Bitset {
					nw := old.Clone()
					nw.SetTo(bit, allowed)
					return nw
				}); err != nil {
					t.Fatalf("trial %d op %d SetRangeACL[%d,%d]: %v", trial, op, lo, hi, err)
				}
				for i := lo; i <= hi; i++ {
					nodes[i].row.SetTo(bit, allowed)
				}
			case 1: // SetSubtreeAccess
				n := rng.Intn(size)
				bit := rng.Intn(numSubjects)
				allowed := rng.Intn(2) == 0
				if err := ss.SetSubtreeAccess(xmltree.NodeID(n), acl.SubjectID(bit), allowed); err != nil {
					t.Fatalf("trial %d op %d SetSubtreeAccess(%d): %v", trial, op, n, err)
				}
				for i := n; i < n+subtreeSize(nodes[n]); i++ {
					nodes[i].row.SetTo(bit, allowed)
				}
			case 2: // InsertSubtree
				p := rng.Intn(size)
				parent := nodes[p]
				after := xmltree.InvalidNode
				pos := 0
				if len(parent.kids) > 0 && rng.Intn(2) == 0 {
					pos = 1 + rng.Intn(len(parent.kids))
					sib := parent.kids[pos-1]
					for i, x := range nodes {
						if x == sib {
							after = xmltree.NodeID(i)
							break
						}
					}
				}
				frag, fm, fragRoots := randomFragment(rng, tags, numSubjects)
				if err := ss.InsertSubtree(xmltree.NodeID(p), after, frag, fm); err != nil {
					t.Fatalf("trial %d op %d InsertSubtree: %v", trial, op, err)
				}
				parent.kids = append(parent.kids[:pos], append(fragRoots, parent.kids[pos:]...)...)
			case 3: // DeleteSubtree
				if size < 20 {
					continue
				}
				n := 1 + rng.Intn(size-1)
				if err := ss.DeleteSubtree(xmltree.NodeID(n)); err != nil {
					t.Fatalf("trial %d op %d DeleteSubtree(%d): %v", trial, op, n, err)
				}
				parent, pos := parentOf(root, nodes[n])
				parent.kids = append(parent.kids[:pos], parent.kids[pos+1:]...)
			case 4: // MoveSubtree
				n := 1 + rng.Intn(size-1)
				target := nodes[n]
				var np int
				found := false
				for try := 0; try < 10; try++ {
					np = rng.Intn(size)
					if !contains(target, nodes[np]) {
						found = true
						break
					}
				}
				if !found {
					continue
				}
				if err := ss.MoveSubtree(xmltree.NodeID(n), xmltree.NodeID(np), xmltree.InvalidNode); err != nil {
					t.Fatalf("trial %d op %d MoveSubtree(%d -> %d): %v", trial, op, n, np, err)
				}
				parent, pos := parentOf(root, target)
				parent.kids = append(parent.kids[:pos], parent.kids[pos+1:]...)
				newParent := nodes[np]
				newParent.kids = append([]*onode{target}, newParent.kids...)
			}
		}

		// Rebuild from the oracle and compare the full workload.
		wantDoc, wantM := flatten(root, numSubjects)
		pool2 := storage.NewBufferPool(storage.NewMemPager(512), 256)
		ss2, err := dol.BuildSecureStore(pool2, wantDoc, wantM, nok.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Store().CheckConsistency(); err != nil {
			t.Fatalf("trial %d: updated store inconsistent: %v", trial, err)
		}
		got := answers(t, ss, storeIndex(t, pool, ss.Store()), numSubjects)
		want := answers(t, ss2, storeIndex(t, pool2, ss2.Store()), numSubjects)
		if got != want {
			t.Fatalf("trial %d: updated store answers diverge from rebuilt oracle\ngot:\n%s\nwant:\n%s", trial, got, want)
		}
	}
}
