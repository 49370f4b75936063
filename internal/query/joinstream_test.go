package query

import (
	"cmp"
	"context"
	"slices"
	"testing"

	"dolxml/internal/btree"
	"dolxml/internal/obs"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
)

// opPins folds a trace's page pins by plan operator.
func opPins(tr *obs.Trace) map[string]int64 {
	pins := map[string]int64{}
	for _, e := range tr.Events() {
		if e.Kind == obs.EvPagePin {
			pins[e.Op]++
		}
	}
	return pins
}

// A Limit stops both sides of a descendant join. //listitem//keyword on the
// XMark document, cold pool: the first answer lies under one of the first
// listitems, so Limit 1 must read a fraction of what the full drain reads
// on the left scan and on the right scan — the drained join matched all
// 1,357 listitems before its first probe — and the left stream must have been
// pulled no further than the first answer's root, one link read ahead.
func TestLimitStopsBothJoinSides(t *testing.T) {
	// The index on a pool of its own: every Get counted below is a block
	// visit of the query.
	doc := xmark.Generate(xmark.Scaled(0, 20000))
	e := newExplainEnv(t, doc, allowAll(doc, 1), 1024)
	pt := MustParse(`//listitem//keyword`)
	run := func(limit int) (gets int64, pins map[string]int64, a *answers, first xmltree.NodeID) {
		t.Helper()
		if err := e.pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		ctx := obs.WithTrace(context.Background(), tr)
		g0 := e.pool.Stats().Gets
		a, err := e.ev.open(ctx, pt, Options{View: e.ss.ViewSubject(0), Limit: limit, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		first = xmltree.InvalidNode
		for {
			n, ok, err := a.next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if first == xmltree.InvalidNode {
				first = n
			}
		}
		if err := a.p.Close(); err != nil {
			t.Fatal(err)
		}
		if n := e.pool.Pinned(); n != 0 {
			t.Fatalf("limit %d: %d frames still pinned", limit, n)
		}
		return e.pool.Stats().Gets - g0, opPins(tr), a, first
	}
	fullGets, fullPins, _, _ := run(0)
	limGets, limPins, a, first := run(1)
	t.Logf("full drain: %d Gets %v; Limit 1: %d Gets %v", fullGets, fullPins, limGets, limPins)
	if 2*limGets >= fullGets {
		t.Errorf("Limit 1 performed %d pool Gets, the full drain %d: want fewer than half", limGets, fullGets)
	}
	for _, op := range []string{opScan(0), opScan(1)} {
		if 2*limPins[op] >= fullPins[op] {
			t.Errorf("%s: Limit 1 pinned %d pages, the full drain %d: want fewer than half — this side did not stop", op, limPins[op], fullPins[op])
		}
	}
	// How far the join pulled the left stream: up to the first link past
	// the answer. The scan behind it stopped in the candidate whose row the
	// join pulled last.
	jc := a.p.(*limitCursor).in.(*dedupCursor).in.(*joinCursor)
	cands := a.c.scans[0].cands
	position := func(n xmltree.NodeID) int {
		i, _ := slices.BinarySearchFunc(cands, n, func(p btree.Posting, n xmltree.NodeID) int { return cmp.Compare(p.Node, n) })
		return i
	}
	pulled, answerAt := len(cands), position(first)
	if jc.next != nil {
		pulled = position(jc.next[jc.linkSlot].node) + 1
	}
	if pulled > answerAt+1 {
		t.Errorf("the join pulled %d of %d left tuples; the first answer (node %d) lies after %d candidates", pulled, len(cands), first, answerAt)
	}
	if left := jc.left.(*matchCursor); left.at != pulled-1 || len(left.pending) != 0 {
		t.Errorf("the left scan stands at candidate %d with %d rows waiting; the join pulled the row of candidate %d last", left.at, len(left.pending), pulled-1)
	}
}
