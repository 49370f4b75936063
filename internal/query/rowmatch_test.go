package query

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/storage"
	"dolxml/internal/xmark"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// table1 is the paper's Table 1, the twigs the benchmark and the
// allocation bounds run.
var table1 = []struct{ name, xpath string }{
	{"Q1", "/site/regions/africa/item[location][name][quantity]"},
	{"Q2", "/site/categories/category[name]/description/text/bold"},
	{"Q3", "/site/categories/category/description/text/bold"},
	{"Q4", "//parlist//parlist"},
	{"Q5", "//listitem//keyword"},
	{"Q6", "//item//emph"},
}

// xmarkEnv is the benchmark's single-tenant document behind a secure store
// with every node allowed.
func xmarkEnv(t testing.TB) *env {
	doc := xmark.Generate(xmark.Scaled(0, 20000))
	return newEnv(t, doc, allowAll(doc, 1), 4096)
}

// burstGroups is the number of groups the harness's ACL burst spreads its
// revokes over; subject burstGroups, one more, keeps every node.
const burstGroups = 8

// burstEnv is xmarkEnv's document under the benchmark harness's ACL burst:
// eight groups (subjects 0–7) granted everything, then four subtree revokes
// per 100 nodes — at least 300 — on the harness's burst tags, each for a
// random group and, three times in five, for the paired group g^1 as well.
// Subject 8 is granted everything and loses nothing.
func burstEnv(t testing.TB) *env {
	doc := xmark.Generate(xmark.Scaled(0, 20000))
	m := allowAll(doc, burstGroups+1)
	var roots []xmltree.NodeID
	for _, tag := range []string{"item", "person", "open_auction", "closed_auction", "category", "listitem"} {
		roots = append(roots, doc.NodesWithTag(tag)...)
	}
	revoke := func(top xmltree.NodeID, g int) {
		for n := top; n <= doc.End(top); n++ {
			m.Set(n, acl.SubjectID(g), false)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := max(doc.Len()*4/100, 300); n > 0; {
		top, g := roots[rng.Intn(len(roots))], rng.Intn(burstGroups)
		revoke(top, g)
		n--
		if rng.Intn(5) < 3 {
			revoke(top, g^1)
			n--
		}
	}
	return newEnv(t, doc, m, 4096)
}

// Matching allocates nothing per node, per row or per block visit: once a
// match state has grown to the candidates' size, a scan of all of them —
// matcher, cursor, decode cache and buffer pool, whose Unpin links the frame
// back into the LRU ring through the frame itself — runs without a single
// allocation; and a whole evaluation of each of the harness's shapes on a
// warm plan memo, for a group that lost its share of the ACL burst, stays
// within a bound set from the achieved figure with about half again as
// headroom. On the matcher (Q4–Q6, Q5 under a Limit): the request's half of
// the plan, cursors, coroutines, tuple batches, a chunk per 64 rows handed
// over or joined, the answer slice; no bound pays for a copy of a posting
// list, and Q5 under a Limit, whose rows go over one at a time, carves them
// from shared chunks. On the served index every shape is an index plan: the
// request's half of the plan, the cursor and its merge state, the entries a
// merge keeps open, the answers it settles at once, and the answer slice.
func TestMatchCandidateAllocs(t *testing.T) {
	e := burstEnv(t)
	matcher, served := NewEvaluatorAt(e.snapshot(t)), NewEvaluatorAt(e.servedSnapshot(t))
	ctx := context.Background()
	opts := Options{View: e.ss.ViewSubject(0)}
	email := e.doc.Value(e.doc.NodesWithTag("emailaddress")[0])
	type twig struct {
		name, xpath string
		limit       int
		bound       float64
		ev          *Evaluator
	}
	twigs := []twig{
		{"Q5lim", "//listitem//keyword", 10, 180, matcher},
		{"Q5lim", "//listitem//keyword", 10, 35, served},
		{"Qval", fmt.Sprintf("/site/people/person[emailaddress='%s']/name", email), 0, 27, served},
	}
	for i, bound := range []float64{230, 250, 190} {
		twigs = append(twigs, twig{table1[3+i].name, table1[3+i].xpath, 0, bound, matcher})
	}
	for i, bound := range []float64{38, 38, 38, 42, 42, 42} {
		twigs = append(twigs, twig{table1[i].name, table1[i].xpath, 0, bound, served})
	}
	for _, q := range twigs {
		pt := MustParse(q.xpath)
		opts := opts
		opts.Limit = q.limit
		ev := q.ev
		c, err := ev.compile(pt, opts)
		if err != nil {
			t.Fatal(err)
		}
		if (c.index != nil) != (ev == served) {
			t.Fatalf("%s: index plan %v on the served index %v", q.name, c.index != nil, ev == served)
		}
		m := ev.newMatcher(c)
		for i, sp := range c.scans {
			rows := 0
			ms := m.newState(e.ss.Store().NewCursor(), func([]binding) bool { rows++; return true })
			root := &m.nodes[c.subs[i].Root.id]
			scan := func() {
				for _, cand := range sp.cands {
					if err := ms.matchCandidate(ctx, root, cand); err != nil {
						t.Fatal(err)
					}
				}
			}
			scan() // warm: sizes the arena and the frames' row lists
			if rows == 0 {
				t.Fatalf("%s subtree %d: no rows", q.name, i)
			}
			if n := testing.AllocsPerRun(5, scan); n != 0 {
				t.Errorf("%s subtree %d: %v allocations per scan of %d candidates (%d rows) on a warm match state, want none",
					q.name, i, n, len(sp.cands), rows/7)
			}
		}
		var res *Result
		n := testing.AllocsPerRun(5, func() {
			if res, err = ev.EvaluateCtx(ctx, pt, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations per query, %d matches, %d answers", q.name, n, res.Matches, len(res.Nodes))
		if n > q.bound {
			t.Errorf("%s: %v allocations per query, bound %v", q.name, n, q.bound)
		}
	}
}

// A scan's page-read error reaches the consumer from the Next that ran into
// it: from then on the query reads nothing, with or without a Close, and
// holds no pin.
func TestScanErrorStopsTheScan(t *testing.T) {
	doc := xmlmodel.Doc(rand.New(rand.NewSource(3)), 4000, xmlmodel.Mixed)
	fp := storage.NewFaultPager(storage.NewMemPager(256))
	pool := storage.NewBufferPool(fp, 1024)
	ss, err := dol.BuildSecureStore(pool, doc, allowAll(doc, 1), nok.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := btree.BuildFromDocument(storage.NewBufferPool(storage.NewMemPager(256), 1024), doc)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(ss.Store(), idx)
	pt := MustParse(`//a/b`)
	want, err := ev.EvaluateCtx(context.Background(), pt, Options{})
	if err != nil || len(want.Nodes) < 100 {
		t.Fatalf("%d answers, err %v", len(want.Nodes), err)
	}
	// Every page read fails from here on.
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	fp.Arm(storage.Fault{Op: storage.FaultSync, N: 1})
	if err := fp.Sync(); err == nil {
		t.Fatal("armed sync did not fail")
	}
	ctx := context.Background()
	a, err := ev.open(ctx, pt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.next(ctx); err == nil {
		t.Fatal("Next over a dead pager succeeded")
	}
	atError := pool.Stats().Gets
	if got := pool.Pinned(); got != 0 {
		t.Fatalf("%d frames pinned after the error", got)
	}
	if err := a.p.Close(); err != nil {
		t.Fatal(err)
	}
	if late := pool.Stats().Gets - atError; late != 0 || pool.Pinned() != 0 {
		t.Fatalf("%d pool Gets after the error surfaced, %d frames pinned after Close", late, pool.Pinned())
	}
}
