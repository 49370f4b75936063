package securexml

import (
	"context"
	"fmt"
	"testing"

	"dolxml/internal/obs"
	"dolxml/internal/xmltree"
)

// TestOutputReadsNoStructurePage: turning answers into Match records visits
// no structure block when the returning step names its tag — every Table 1
// shape, the value query and the limited one, under both semantics, on a
// cold pool with the decode cache off (so any block visit would also be a
// decode). Under a full trace the `output` operator carries no page_decode
// and no pin of a structure page; its pins are exactly the value-page pins
// ValuesCtx makes for those answers; and ANALYZE's per-operator pages still
// sum to the pool's Gets delta.
func TestOutputReadsNoStructurePage(t *testing.T) {
	xml := snapFixtureXML(t, 8000)
	s := snapStore(t, xml, StoreOptions{PageSize: 512, DecodeCacheBytes: -1})
	defer s.Close()
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	email := doc.Value(doc.NodesWithTag("emailaddress")[3])
	st := s.ss.Store()
	structure := map[int64]bool{}
	for _, pi := range st.Directory() {
		structure[int64(pi.Page)] = true
	}
	ctx := context.Background()
	type shape struct {
		name, expr string
		limit      int
	}
	shapes := []shape{
		{"Qval", fmt.Sprintf("/site/people/person[emailaddress='%s']/name", email), 0},
		{"Q5lim", "//listitem//keyword", 10},
	}
	for _, q := range table1 {
		shapes = append(shapes, shape{q.name, q.expr, 0})
	}
	answered := 0
	for _, q := range shapes {
		for _, pruned := range []bool{false, true} {
			name := fmt.Sprintf("%s/pruned=%v", q.name, pruned)
			// The first value query sorts its tag's value run, reading
			// value pages under no trace: plan once before counting.
			if _, err := s.Explain(ctx, "u", "read", q.expr, QueryOptions{Pruned: pruned, Limit: q.limit}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := s.pool.DropAll(); err != nil {
				t.Fatal(err)
			}
			tr, an := NewQueryTrace(), &QueryAnalysis{}
			before := s.pool.Stats().Gets
			ms, err := s.QueryCtx(ctx, "u", "read", q.expr, QueryOptions{Pruned: pruned, Limit: q.limit, Trace: tr, Analyze: an})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			gets := s.pool.Stats().Gets - before
			answered += len(ms)
			var outputPins int64
			for _, e := range tr.Events() {
				if e.Op != "output" {
					continue
				}
				switch {
				case e.Kind == string(obs.EvPageDecode):
					t.Errorf("%s: the output pass decoded page %d", name, e.Page)
				case e.Kind == string(obs.EvPagePin) && structure[e.Page]:
					t.Errorf("%s: the output pass pinned structure page %d", name, e.Page)
				case e.Kind == string(obs.EvPagePin):
					outputPins++
				}
			}
			// What the values alone cost: the same answers through
			// ValuesCtx under a trace of its own.
			nodes := make([]xmltree.NodeID, len(ms))
			for i, m := range ms {
				nodes[i] = xmltree.NodeID(m.Node)
				if want := doc.Tag(nodes[i]); m.Tag != want {
					t.Errorf("%s: answer %d tagged %q, the document says %q", name, m.Node, m.Tag, want)
				}
			}
			vtr := obs.NewTrace()
			if _, err := st.Values().ValuesCtx(obs.WithTrace(ctx, vtr), nodes); err != nil {
				t.Fatal(err)
			}
			if want := vtr.PageReads(); outputPins != want {
				t.Errorf("%s: the output pass pinned %d pages, the answers' values lie on %d", name, outputPins, want)
			}
			if tot := an.an.Totals(); tot.Pins != gets || tr.PageReads() != gets {
				t.Errorf("%s: ANALYZE attributes %d pins, the trace holds %d, the pool served %d Gets", name, tot.Pins, tr.PageReads(), gets)
			}
		}
	}
	if answered == 0 {
		t.Fatal("no shape had an answer: the test checked nothing")
	}
}
