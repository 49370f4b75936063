package bench

import "testing"

// The pathsummary experiment table must carry no VIOLATION notes: answers
// byte-identical across routing on/off × semantics, routed
// runs never reading more pages, routing rejecting candidates on the
// descendant twigs and never leaving more of them to scan, and the
// unsatisfiable query answered from zero pages. The CI smoke mirrors this
// via dolbench -exp pathsummary -strict.
func TestPathSummaryShape(t *testing.T) {
	tb := runQuick(t, "pathsummary")[0]
	for _, note := range tb.Notes {
		if len(note) >= 9 && note[:9] == "VIOLATION" {
			t.Error(note)
		}
	}
	// Rows interleave routing on/off per query×semantics; compare adjacent
	// pairs.
	for i := 0; i+1 < len(tb.Rows); i += 2 {
		on, offRow := tb.Rows[i], tb.Rows[i+1]
		if on[0] != offRow[0] || on[2] != "on" || offRow[2] != "off" {
			t.Fatalf("row pairing broken at %d: %v / %v", i, on, offRow)
		}
		pOn := cellInt(t, on[3])
		pOff := cellInt(t, offRow[3])
		if pOn > pOff {
			t.Errorf("%s/%s: %d pages with routing vs %d without", on[0], on[1], pOn, pOff)
		}
		if on[8] != offRow[8] {
			t.Errorf("%s/%s: answer counts differ (%s vs %s)", on[0], on[1], on[8], offRow[8])
		}
		// At quick scale every parlist of Q4 lies on a path that nests
		// another, so routing has nothing to reject there.
		if on[0] == "Q5" || on[0] == "Q6" {
			rejected := cellInt(t, on[4])
			if rejected == 0 || cellInt(t, offRow[4]) != 0 {
				t.Errorf("%s/%s: routing rejected %d candidates, %s with routing off", on[0], on[1], rejected, offRow[4])
			}
			if removedOn, removedOff := rejected+cellInt(t, on[5]), cellInt(t, offRow[5]); removedOn < removedOff {
				t.Errorf("%s/%s: %d candidates removed with routing vs %d without", on[0], on[1], removedOn, removedOff)
			}
		}
		if on[0] == "Qunsat" {
			if pOn != 0 {
				t.Errorf("unsatisfiable query pinned %d pages with routing; want 0", pOn)
			}
			if pOff == 0 {
				t.Error("unsatisfiable query read no pages even without routing; contrast lost")
			}
		}
	}
}
