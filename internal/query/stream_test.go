package query

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/obs"
	"dolxml/internal/storage"
	"dolxml/internal/xmark"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// The answers pipeline is a faithful streaming view of EvaluateCtx on the
// miniature XMark document: a harness configuration, with one subject
// denied a third of the nodes.
func TestAnswersCursorEquivalence(t *testing.T) {
	var st harnessStats
	rng := rand.New(rand.NewSource(7))
	doc := miniXMark(t)
	for _, xpath := range []string{
		`//item/name`,
		`//category//text`,
		`//parlist//keyword`,
		`/site/regions/africa/item[location][name][quantity]`,
		`//listitem//listitem`,
	} {
		c := drawCase(rng, doc, xpath, false)
		c.pageSize = 256
		checkTwig(t, xpath, c, checks{}, &st)
	}
}

// Cancelling the context mid-scan must surface ctx.Err() on the next pull
// and, after Close, leave no buffer-pool frame pinned.
func TestCancellationMidScan(t *testing.T) {
	doc := xmlmodel.Doc(rand.New(rand.NewSource(11)), 4000, xmlmodel.Mixed)
	e := newEnv(t, doc, allowAll(doc, 1), 256)
	pt := MustParse(`//a//b`)

	// What the scan costs when nobody cancels it.
	g0 := e.pool.Stats().Gets
	if _, err := e.ev.EvaluateCtx(context.Background(), pt, Options{}); err != nil {
		t.Fatal(err)
	}
	fullGets := e.pool.Stats().Gets - g0

	ctx, cancel := context.WithCancel(context.Background())
	a, err := e.ev.open(ctx, pt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := a.next(ctx); err != nil || !ok {
		t.Fatalf("first answer: ok=%v err=%v", ok, err)
	}
	cancel()
	atCancel := e.pool.Stats().Gets
	if _, _, err := a.next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	if err := a.p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := a.p.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if got := e.pool.Pinned(); got != 0 {
		t.Fatalf("%d frames still pinned after cancelled scan", got)
	}
	// The context is consulted at every block entry: at most one Get per
	// scan after the cancel, of two scans.
	if late, most := e.pool.Stats().Gets-atCancel, int64(2); late > most || most >= fullGets {
		t.Fatalf("%d pool Gets after cancellation, want at most %d (a full scan takes %d)", late, most, fullGets)
	}

	// A context cancelled before evaluation starts aborts immediately.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	if _, err := e.ev.EvaluateCtx(ctx, pt, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluateCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	if got := e.pool.Pinned(); got != 0 {
		t.Fatalf("%d frames still pinned after pre-cancelled evaluation", got)
	}
}

// Limit = 1 on Q1 must perform strictly fewer page reads than the full
// drain: Q1 is one anchored NoK subtree with a single candidate (the
// document root), so the saving can only come from streaming *inside* the
// ε-NoK match — the matcher emits the first item the moment its predicates
// are satisfied and the limited pipeline stops the scan.
func TestLimitOneReadsFewerPages(t *testing.T) {
	doc := xmark.Generate(xmark.Scaled(3, 8000))
	e := newEnv(t, doc, allowAll(doc, 1), 512)
	pt := MustParse(`/site/regions/africa/item[location][name][quantity]`)
	opts := Options{}

	pages := func(o Options) (int64, *Result) {
		t.Helper()
		if err := e.pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		e.pool.ResetStats()
		res, err := e.ev.EvaluateCtx(context.Background(), pt, o)
		if err != nil {
			t.Fatal(err)
		}
		return e.pool.Stats().Misses, res
	}

	fullPages, full := pages(opts)
	limited := opts
	limited.Limit = 1
	limPages, lim := pages(limited)

	if len(full.Nodes) < 2 {
		t.Fatalf("Q1 full drain returned %d answers; need >= 2 for the comparison", len(full.Nodes))
	}
	if len(lim.Nodes) != 1 {
		t.Fatalf("Limit=1 returned %d answers", len(lim.Nodes))
	}
	if limPages >= fullPages {
		t.Fatalf("Limit=1 read %d pages, full drain read %d — early termination saved nothing",
			limPages, fullPages)
	}
	if got := e.pool.Pinned(); got != 0 {
		t.Fatalf("%d frames still pinned", got)
	}
}

// pinProbe samples how many frames the pool holds pinned each time a page
// is physically read — on a cold pool, at every block visit, while the
// visit's own pin is held.
type pinProbe struct {
	storage.Pager
	pool *storage.BufferPool
	peak atomic.Int64
}

func (p *pinProbe) ReadPage(id storage.PageID, buf []byte) error {
	if n := int64(p.pool.Pinned()); n > p.peak.Load() {
		p.peak.Store(n)
	}
	return p.Pager.ReadPage(id, buf)
}

// A query pins by block visit: from its trace, the page_pin events equal
// the pool's Gets and stay within a small multiple of the distinct pages
// touched (they ran to hundreds per page when every navigation step and
// access check pinned its node's block); and no goroutine of it ever holds
// more than the one pin of the visit in progress, and a query runs on one
// goroutine: it has at most one frame pinned at any moment — what lets a
// bounded pool make a query wait for a frame instead of failing it.
func TestPinsPerBlockVisit(t *testing.T) {
	doc := xmark.Generate(xmark.Scaled(5, 6000))
	m := allowAll(doc, 2)
	rng := rand.New(rand.NewSource(9))
	for n := 1; n < doc.Len(); n++ {
		if rng.Intn(40) == 0 {
			for v := xmltree.NodeID(n); v <= doc.End(xmltree.NodeID(n)); v++ {
				m.Set(v, 0, false)
			}
		}
	}
	probe := &pinProbe{Pager: storage.NewMemPager(1024)}
	pool := storage.NewBufferPool(probe, 1024)
	probe.pool = pool
	ss, err := dol.BuildSecureStore(pool, doc, m, nok.BuildOptions{StoreValues: true})
	if err != nil {
		t.Fatal(err)
	}
	// The index lives on its own pool, as in securexml: its reads are not
	// the query's block visits.
	idx, err := btree.BuildFromDocument(storage.NewBufferPool(storage.NewMemPager(1024), 1024), doc)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(ss.Store(), idx)
	view := ss.ViewSubject(0)
	for _, expr := range []string{
		`/site/regions/africa/item[location][name][quantity]`,
		`/site/categories/category[name]/description/text/bold`,
		`//item/name`,
		`//parlist//parlist`,
		`//listitem//keyword`,
	} {
		pt := MustParse(expr)
		for _, opts := range []Options{
			{},
			{View: view},
			{View: view, Semantics: SemanticsPrunedSubtree},
		} {
			if err := pool.DropAll(); err != nil {
				t.Fatal(err)
			}
			probe.peak.Store(0)
			tr := obs.NewTrace()
			opts.Trace = tr
			before := pool.Stats()
			res, err := ev.EvaluateCtx(obs.WithTrace(context.Background(), tr), pt, opts)
			if err != nil {
				t.Fatalf("%s: %v", expr, err)
			}
			gets := pool.Stats().Gets - before.Gets
			pins, distinct := int64(0), map[int64]bool{}
			for _, e := range tr.Events() {
				if e.Kind == obs.EvPagePin {
					pins++
					distinct[e.Page] = true
				}
			}
			if pins != gets {
				t.Errorf("%s: trace has %d page_pin events, pool served %d Gets", expr, pins, gets)
			}
			if pins > 10*int64(len(distinct)) {
				t.Errorf("%s (semantics %d): %d pins over %d distinct pages", expr, opts.Semantics, pins, len(distinct))
			}
			if peak := probe.peak.Load(); peak > 1 {
				t.Errorf("%s: %d frames pinned at once", expr, peak)
			}
			if got := pool.Pinned(); got != 0 {
				t.Fatalf("%s: %d frames still pinned", expr, got)
			}
			t.Logf("%s (semantics %d, view %v): %d answers, %d pins, %d distinct pages, peak %d pinned", expr, opts.Semantics, opts.View != nil, len(res.Nodes), pins, len(distinct), probe.peak.Load())
		}
	}
}

// A query runs on the goroutine that calls next. Between open and Close the
// only thing runtime.NumGoroutine sees of it is one suspended coroutine per
// scan, which never runs beside its caller; the moment Close returns — after
// a partial drain or a cancelled scan alike, with no wait for anything to
// exit — the count is what it was before open.
func TestQueryLeavesNoGoroutine(t *testing.T) {
	doc := xmlmodel.Doc(rand.New(rand.NewSource(11)), 4000, xmlmodel.Mixed)
	e := newEnv(t, doc, allowAll(doc, 1), 256)
	pt := MustParse(`//a//b`)
	view := e.ss.ViewSubject(0)
	for _, sem := range []Semantics{SemanticsBindings, SemanticsPrunedSubtree} {
		for _, cancelled := range []bool{false, true} {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			a, err := e.ev.open(ctx, pt, Options{View: view, Semantics: sem})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, ok, err := a.next(ctx); err != nil || !ok {
					t.Fatalf("answer %d: ok=%v err=%v", i, ok, err)
				}
			}
			if during, scans := runtime.NumGoroutine(), len(pt.Decompose()); during > before+scans {
				t.Errorf("semantics %d: %d goroutines mid-drain, %d before open: more than one coroutine for each of %d scans", sem, during, before, scans)
			}
			if cancelled {
				cancel()
				if _, _, err := a.next(ctx); !errors.Is(err, context.Canceled) {
					t.Fatalf("Next after cancel = %v, want context.Canceled", err)
				}
			}
			if err := a.p.Close(); err != nil {
				t.Fatal(err)
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("semantics %d, cancelled %v: %d goroutines after Close, %d before open", sem, cancelled, after, before)
			}
			if got := e.pool.Pinned(); got != 0 {
				t.Errorf("%d frames still pinned", got)
			}
			cancel()
		}
	}
}

// What a query reads does not depend on scheduling: two cold-pool runs of
// each twig of Table 1 pin the same pages in the same order under the same
// operators, whatever GOMAXPROCS is.
func TestPageSequenceIsDeterministic(t *testing.T) {
	e := xmarkEnv(t)
	view := e.ss.ViewSubject(0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type pin struct {
		op   string
		page int64
		hit  bool
	}
	for _, q := range table1 {
		pt := MustParse(q.xpath)
		for _, sem := range []Semantics{SemanticsBindings, SemanticsPrunedSubtree} {
			var want []pin
			for _, procs := range []int{1, 1, 8, 8} {
				runtime.GOMAXPROCS(procs)
				if err := e.pool.DropAll(); err != nil {
					t.Fatal(err)
				}
				tr := obs.NewTrace()
				if _, err := e.ev.EvaluateCtx(obs.WithTrace(context.Background(), tr), pt, Options{View: view, Semantics: sem, Trace: tr}); err != nil {
					t.Fatal(err)
				}
				var got []pin
				for _, ev := range tr.Events() {
					if ev.Kind == obs.EvPagePin {
						got = append(got, pin{ev.Op, ev.Page, ev.Hit})
					}
				}
				if len(got) == 0 || tr.Dropped() != 0 {
					t.Fatalf("%s: %d pins traced, %d events dropped", q.name, len(got), tr.Dropped())
				}
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("%s (semantics %d, GOMAXPROCS %d): %d pins, not the sequence of the first run (%d pins)", q.name, sem, procs, len(got), len(want))
				}
			}
		}
	}
}
