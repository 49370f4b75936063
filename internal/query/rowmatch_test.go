package query

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/storage"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
)

// trackedTwigs are twig shapes with at least two tracked children under one
// pattern node — two link sources plus the returning node — so that a match
// is a cross product of rows, not a single row. The letters are replaced by
// random tags, which makes siblings collide and the documents recursive.
var trackedTwigs = []string{
	`//A[B//X][C//Y]/D`,
	`//A[B//X][C//Y][D]/B`,
	`/r/A[B//X][C//Y]/D`,
	`//A[B[C//X]/D//Y]/C`,
	`//A[A[B//X]/C//Y]/D`,
	`//A[B//X//Y]/C[D//X]`,
	`//A[B//X]/C[D//Y]/B`,
}

// idDoc returns a random bushy, recursive document of n nodes over tags a–c
// under a root r, in which every node's value is its own ID, so that a value
// predicate pins a pattern node to one data node.
func idDoc(rng *rand.Rand, n int) *xmltree.Document {
	// Drawn breadth first, about four children to a node.
	kids := make([][]int, n)
	for i, p := 1, 0; i < n; p++ {
		for k := 2 + rng.Intn(5); k > 0 && i < n; k-- {
			kids[p] = append(kids[p], i)
			i++
		}
	}
	b := xmltree.NewBuilder()
	var emit func(i int)
	emit = func(i int) {
		tag := "r"
		if i > 0 {
			tag = string(rune('a' + rng.Intn(3)))
		}
		b.Text(strconv.Itoa(int(b.Begin(tag))))
		for _, k := range kids[i] {
			emit(k)
		}
		b.End()
	}
	emit(0)
	return b.MustFinish()
}

// hideNodes returns doc with the tag of every node for which hidden reports
// true replaced by one no pattern asks for: such a node can be passed over
// by a descendant edge but never bound.
func hideNodes(doc *xmltree.Document, hidden func(xmltree.NodeID) bool) *xmltree.Document {
	b := xmltree.NewBuilder()
	var walk func(n xmltree.NodeID)
	walk = func(n xmltree.NodeID) {
		tag := doc.Tag(n)
		if hidden(n) {
			tag = "hidden"
		}
		b.Begin(tag)
		b.Text(doc.Value(n))
		for _, c := range doc.Children(n) {
			walk(c)
		}
		b.End()
	}
	walk(doc.Root())
	return b.MustFinish()
}

// oracleTuples enumerates by brute force over MatchDocument every
// assignment of the pattern nodes ids (the tracked ones, in slot order)
// that extends to an embedding of the pattern in doc: node by node, each
// pinned by a value predicate to each binding MatchDocument finds for it
// with the earlier ones pinned. It returns the assignments keyed as
// tupleKey renders them, or nil once there are more than limit.
func oracleTuples(doc *xmltree.Document, xpath string, ids []int, limit int) map[string]bool {
	out := map[string]bool{}
	pins := make([]xmltree.NodeID, len(ids))
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(ids) {
			out[fmt.Sprint(pins)] = true
			return len(out) <= limit
		}
		pt := MustParse(xpath)
		for _, p := range pt.nodes {
			p.Returning = false
		}
		for j, n := range pins[:k] {
			pt.nodes[ids[j]].Value = strconv.Itoa(int(n))
		}
		pt.nodes[ids[k]].Returning = true
		for _, n := range MatchDocument(doc, pt) {
			pins[k] = n
			if !rec(k + 1) {
				return false
			}
		}
		return true
	}
	if !rec(0) {
		return nil
	}
	return out
}

func tupleKey(t Tuple) string {
	nodes := make([]xmltree.NodeID, len(t))
	for k, b := range t {
		nodes[k] = b.node
	}
	return fmt.Sprint(nodes)
}

// The row matcher against a brute-force oracle: on random recursive
// documents and twigs with several tracked children under one node, the
// pipeline below dedup hands over exactly the oracle's tuples, each once,
// under both semantics and both hand-off granularities
// (a Limit makes batches of one); Result.Matches and Result.Nodes follow;
// every subtree-root binding carries its subtree end; and the rows the
// matcher emits for one candidate are pairwise distinct — the assertion
// that justifies matching without a per-child dedup.
func TestRowMatcherOracle(t *testing.T) {
	ctx := context.Background()
	cases, tuples, products := 0, 0, 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := idDoc(rng, 100+rng.Intn(200))
		xpath := strings.Map(func(r rune) rune {
			if r >= 'A' && r <= 'Z' {
				return rune('a' + rng.Intn(3))
			}
			return r
		}, trackedTwigs[rng.Intn(len(trackedTwigs))])
		m := acl.NewMatrix(doc.Len(), 1)
		for n := 0; n < doc.Len(); n++ {
			m.Set(xmltree.NodeID(n), 0, n == 0 || rng.Intn(6) > 0)
		}
		pool := storage.NewBufferPool(storage.NewMemPager(64+rng.Intn(200)), 1024)
		ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := btree.BuildFromDocument(pool, doc)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(ss.Store(), idx)
		view := ss.ViewSubject(0)
		pt := MustParse(xpath)
		layout := layoutOf(pt, pt.Decompose())
		var ids []int
		for _, row := range layout.slots {
			for _, p := range row {
				ids = append(ids, p.id)
			}
		}
		denied := func(n xmltree.NodeID) bool { return !m.Accessible(n, 0) }
		for _, sem := range []struct {
			opts Options
			doc  *xmltree.Document
		}{
			{Options{}, doc},
			{Options{View: view, Semantics: SemanticsBindings}, hideNodes(doc, denied)},
			{Options{View: view, Semantics: SemanticsPrunedSubtree}, hideNodes(doc, func(n xmltree.NodeID) bool {
				for ; n != xmltree.InvalidNode; n = doc.Parent(n) {
					if denied(n) {
						return true
					}
				}
				return false
			})},
		} {
			want := oracleTuples(sem.doc, xpath, ids, 4000)
			if want == nil {
				continue // too many embeddings to enumerate by brute force
			}
			cases++
			tuples += len(want)
			wantNodes := map[xmltree.NodeID]bool{}
			for _, n := range MatchDocument(sem.doc, pt) {
				wantNodes[n] = true
			}
			what := fmt.Sprintf("seed %d %s (view %v, semantics %d)", seed, xpath, sem.opts.View != nil, sem.opts.Semantics)

			for _, limit := range []int{0, 1, 10} {
				opts := sem.opts
				opts.Limit = limit

				// The tuple stream under dedup and limit, drained whole.
				a, err := ev.Open(ctx, pt, opts)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				in := a.p
				if lc, ok := in.(*limitCursor); ok {
					in = lc.in
				}
				got := map[string]int{}
				if dc, ok := in.(*dedupCursor); ok { // not a query proven empty
					for {
						tp, err := dc.in.Next(ctx)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if tp == nil {
							break
						}
						got[tupleKey(tp)]++
						for i, base := range layout.base {
							if b := tp[base]; b.end != doc.End(b.node) {
								t.Fatalf("%s: subtree %d root %d carries end %d, want %d", what, i, b.node, b.end, doc.End(b.node))
							}
						}
					}
				}
				if err := a.Close(); err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s limit=%d: %d distinct tuples, oracle has %d", what, limit, len(got), len(want))
				}
				for k, n := range got {
					if n != 1 || !want[k] {
						t.Fatalf("%s limit=%d: tuple %s handed over %d times, in oracle: %v", what, limit, k, n, want[k])
					}
				}

				res, err := ev.EvaluateCtx(ctx, pt, opts)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if limit == 0 {
					if res.Matches != len(want) || !sameAnswers(res, wantNodes) {
						t.Fatalf("%s: Matches %d Nodes %v, oracle %d tuples, nodes %v", what, res.Matches, res.Nodes, len(want), wantNodes)
					}
					continue
				}
				if len(res.Nodes) != min(limit, len(wantNodes)) || res.Matches > len(want) {
					t.Fatalf("%s limit=%d: %d answers from %d tuples, oracle has %d answers in %d tuples", what, limit, len(res.Nodes), res.Matches, len(wantNodes), len(want))
				}
				for _, n := range res.Nodes {
					if !wantNodes[n] {
						t.Fatalf("%s limit=%d: answer %d is not an oracle answer", what, limit, n)
					}
				}
			}

			// Rows of one candidate are pairwise distinct.
			c, err := ev.compile(pt, sem.opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.empty() {
				continue
			}
			mt := ev.newMatcher(c)
			for i, sp := range c.scans {
				seen := map[string]bool{}
				ms := mt.newState(ss.Store().NewCursor(), func(row []binding) bool {
					k := fmt.Sprint(row)
					if seen[k] {
						t.Fatalf("%s: subtree %d emitted row %s twice for one candidate", what, i, k)
					}
					seen[k] = true
					return true
				})
				for _, cand := range sp.cands {
					clear(seen)
					if err := ms.matchCandidate(ctx, &mt.nodes[c.subs[i].Root.id], cand); err != nil {
						t.Fatal(err)
					}
					if len(seen) > 1 {
						products++
					}
				}
			}
		}
	}
	if cases < 100 || tuples < 2000 || products < 100 {
		t.Fatalf("only %d cases with %d tuples and %d candidates matched by more than one row were checked", cases, tuples, products)
	}
	t.Logf("%d cases, %d oracle tuples, %d candidates matched by more than one row", cases, tuples, products)
}

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
	rng := rand.New(rand.NewSource(3))
	doc := randomDoc(rng, 4000)
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
	pt := MustParse(`//x/y`)
	want, err := ev.Evaluate(pt, Options{})
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
	a, err := ev.Open(ctx, pt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Next(ctx); err == nil {
		t.Fatal("Next over a dead pager succeeded")
	}
	atError := pool.Stats().Gets
	if got := pool.Pinned(); got != 0 {
		t.Fatalf("%d frames pinned after the error", got)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if late := pool.Stats().Gets - atError; late != 0 || pool.Pinned() != 0 {
		t.Fatalf("%d pool Gets after the error surfaced, %d frames pinned after Close", late, pool.Pinned())
	}
}
