package dol_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"dolxml/internal/acl"
	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/query"
	"dolxml/internal/storage"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// The update-sequence oracle: after random sequences of range, node and
// subtree access changes, inserts and deletes, moves with their sibling
// before and after the moved range, added subjects and vacuums, the
// incrementally maintained store answers Table 1 and random twigs — under
// both secure semantics for every subject, and unrestricted — exactly as
// the model does, whose document and rows evolve on their own.

// table1 is the paper's Table 1 workload (bench.Table1).
var table1 = []string{
	"/site/regions/africa/item[location][name][quantity]",
	"/site/categories/category[name]/description/text/bold",
	"/site/categories/category/description/text/bold",
	"//parlist//parlist",
	"//listitem//keyword",
	"//item//emph",
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

func TestUpdateSequenceQueryOracle(t *testing.T) {
	trials, ops := 6, 14
	if testing.Short() {
		trials, ops = 2, 8
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(101 + trial)))
		shape, twigs := xmlmodel.XMark, slices.Clone(table1)
		if trial%2 == 1 {
			shape, twigs = xmlmodel.Mixed, nil
		}
		doc := xmlmodel.Doc(rng, 500, shape)
		m := xmlmodel.ACL(rng, doc, 2)
		pool := storage.NewBufferPool(storage.NewMemPager(512), 256)
		ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{StoreValues: true})
		if err != nil {
			t.Fatal(err)
		}
		// No * step (MatchDocument binds a hidden node to it), and no twig
		// with more embeddings than a tenth of a second enumerates.
		ev := query.NewEvaluator(ss.Store(), storeIndex(t, pool, ss.Store()))
		for len(twigs) < 8 {
			tw := xmlmodel.Twig(rng, doc)
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			if _, err := ev.EvaluateCtx(ctx, query.MustParse(tw), query.Options{}); err == nil && !strings.Contains(tw, "*") {
				twigs = append(twigs, tw)
			}
			cancel()
		}
		md := xmlmodel.New(doc, m)
		for op := 0; op < ops; op++ {
			o := xmlmodel.Op(rng, md, xmlmodel.SetAccess, xmlmodel.SetRange, xmlmodel.InsertRows, xmlmodel.Delete, xmlmodel.Move,
				xmlmodel.AddUser, xmlmodel.AddUserLike, xmlmodel.Vacuum)
			if err := dol.ApplyOp(ss, o); err != nil {
				t.Fatalf("trial %d op %d %s: %v", trial, op, o.Kind, err)
			}
		}
		if err := ss.Store().CheckConsistency(); err != nil {
			t.Fatalf("trial %d: updated store inconsistent: %v", trial, err)
		}
		ev = query.NewEvaluator(ss.Store(), storeIndex(t, pool, ss.Store()))
		for _, tw := range twigs {
			check := func(opts query.Options, bindable []bool, label string) {
				res, err := ev.EvaluateCtx(context.Background(), query.MustParse(tw), opts)
				if err != nil {
					t.Fatalf("trial %d %s %s: %v", trial, tw, label, err)
				}
				if want := query.MatchDocument(md.Hide(bindable), query.MustParse(tw)); !slices.Equal(res.Nodes, want) {
					t.Fatalf("trial %d %s %s: answers %v, the model's %v", trial, tw, label, res.Nodes, want)
				}
			}
			check(query.Options{}, nil, "unrestricted")
			for s := 0; s < md.Subjects(); s++ {
				v := ss.ViewSubject(acl.SubjectID(s))
				check(query.Options{View: v}, md.Bindable(s, false), fmt.Sprintf("s%d-bind", s))
				check(query.Options{View: v, Semantics: query.SemanticsPrunedSubtree}, md.Bindable(s, true), fmt.Sprintf("s%d-pruned", s))
			}
		}
	}
}
