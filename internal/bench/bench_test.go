package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// runQuick executes one experiment at test scale and returns its tables.
func runQuick(t *testing.T, name string) []*Table {
	t.Helper()
	tables, err := Run(name, QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", name)
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: table %s has no rows", name, tb.ID)
		}
		for _, note := range tb.Notes {
			if strings.HasPrefix(note, "ERROR") {
				t.Fatalf("%s: %s", name, note)
			}
		}
	}
	return tables
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func cellInt(t *testing.T, cell string) int {
	t.Helper()
	v, err := strconv.Atoi(cell)
	if err != nil {
		t.Fatalf("cell %q not an int: %v", cell, err)
	}
	return v
}

func TestFig4aShape(t *testing.T) {
	tb := runQuick(t, "fig4a")[0]
	// CAM is never larger than DOL for a single subject (ratio <= ~1).
	for _, row := range tb.Rows {
		for c := 1; c <= 3; c++ {
			if r := cellFloat(t, row[c]); r > 1.2 {
				t.Errorf("access %s: CAM/DOL ratio %f > 1.2 (CAM should win single-subject)", row[0], r)
			}
		}
	}
	// Low accessibility should favor CAM clearly (paper: ~0.53).
	if r := cellFloat(t, tb.Rows[0][2]); r > 0.95 {
		t.Errorf("at 10%% accessibility CAM/DOL = %f; paper has ~0.53", r)
	}
}

func TestFig4bShape(t *testing.T) {
	tb := runQuick(t, "fig4b")
	for _, row := range tb[0].Rows {
		ratio := cellFloat(t, row[3])
		// Paper: DOL within ~25% of CAM per user; allow slack for the
		// simulator but catch order-of-magnitude regressions.
		if ratio > 3 || ratio < 0.2 {
			t.Errorf("mode %s: DOL/CAM per-user ratio %f out of plausible range", row[0], ratio)
		}
	}
}

func TestFig5Sublinear(t *testing.T) {
	for _, tb := range runQuick(t, "fig5") {
		last := tb.Rows[len(tb.Rows)-1]
		subjects := cellInt(t, last[0])
		entries := cellInt(t, last[1])
		// Codebook must stay far below the exponential worst case: for
		// correlated data a loose super-linear bound suffices as a
		// regression tripwire.
		if entries > subjects*subjects {
			t.Errorf("%s: %d entries for %d subjects; correlation lost", tb.ID, entries, subjects)
		}
		// Growth monotone-ish: last <= worst-case column.
	}
}

func TestFig6SlowGrowth(t *testing.T) {
	for _, tb := range runQuick(t, "fig6") {
		first := cellInt(t, tb.Rows[0][1])
		last := cellInt(t, tb.Rows[len(tb.Rows)-1][1])
		firstSubjects := cellInt(t, tb.Rows[0][0])
		lastSubjects := cellInt(t, tb.Rows[len(tb.Rows)-1][0])
		if first == 0 {
			continue
		}
		growth := float64(last) / float64(first)
		subjGrowth := float64(lastSubjects) / float64(firstSubjects)
		// Paper: transitions grow far slower than the subject count.
		if growth > subjGrowth {
			t.Errorf("%s: transitions grew %.1fx for %.1fx subjects; should be sublinear", tb.ID, growth, subjGrowth)
		}
	}
}

func TestStorageShape(t *testing.T) {
	tb := runQuick(t, "storage")[0]
	// Row 1: all-subject label counts — DOL transitions must be far
	// below total CAM labels.
	dolCell := tb.Rows[1][1]
	camCell := tb.Rows[1][2]
	dolN := cellInt(t, strings.Fields(dolCell)[0])
	camN := cellInt(t, strings.Fields(camCell)[0])
	// At paper scale the gap is three orders of magnitude; at test scale
	// we assert the direction and at least a 2x gap.
	if dolN*2 > camN {
		t.Errorf("all-subject: DOL %d vs CAM %d; expected a clear multi-subject win", dolN, camN)
	}
}

func TestFig7Shape(t *testing.T) {
	tables := runQuick(t, "fig7")
	if len(tables) != 3 {
		t.Fatalf("fig7 produced %d tables, want 3 (Q1-Q3)", len(tables))
	}
	for _, tb := range tables {
		for _, row := range tb.Rows {
			// Secure answers never exceed plain answers.
			sec := cellInt(t, row[3])
			plain := cellInt(t, row[4])
			if sec > plain {
				t.Errorf("%s access %s: secure answers %d > plain %d", tb.ID, row[0], sec, plain)
			}
			// Secure pages never exceed plain pages (no extra I/O).
			secP := cellInt(t, row[5])
			plainP := cellInt(t, row[6])
			if secP > plainP {
				t.Errorf("%s access %s: secure pages %d > plain %d (access checks must be free)", tb.ID, row[0], secP, plainP)
			}
		}
	}
}

func TestJoinsShape(t *testing.T) {
	tables := runQuick(t, "joins")
	if len(tables) != 3 {
		t.Fatalf("joins produced %d tables, want 3 (Q4-Q6)", len(tables))
	}
	for _, tb := range tables {
		for _, row := range tb.Rows {
			plain := cellInt(t, row[1])
			bind := cellInt(t, row[2])
			pruned := cellInt(t, row[3])
			if !(pruned <= bind && bind <= plain) {
				t.Errorf("%s access %s: answer containment violated (%d/%d/%d)", tb.ID, row[0], pruned, bind, plain)
			}
		}
	}
}

func TestUpdatesProp1(t *testing.T) {
	tb := runQuick(t, "updates")[0]
	for _, row := range tb.Rows {
		if v := cellInt(t, row[4]); v != 0 {
			t.Errorf("%s: %d Proposition 1 violations", row[0], v)
		}
		if g := cellInt(t, row[3]); g > 2 {
			t.Errorf("%s: max transition growth %d > 2", row[0], g)
		}
	}
}

func TestWorstCaseExponential(t *testing.T) {
	tb := runQuick(t, "worstcase")[0]
	first := cellInt(t, tb.Rows[0][1])
	last := cellInt(t, tb.Rows[len(tb.Rows)-1][1])
	if last < first*8 {
		t.Errorf("uncorrelated codebook grew only %d -> %d; expected near-exponential", first, last)
	}
}

func TestRunAllAndPrint(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment in short mode")
	}
	var buf bytes.Buffer
	for _, name := range Experiments {
		tables, err := Run(name, QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range tables {
			tb.Fprint(&buf)
		}
	}
	out := buf.String()
	for _, id := range []string{"fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b", "storage", "fig7a", "fig7b", "fig7c", "joinQ4", "joinQ5", "joinQ6", "updates", "worstcase", "ablation", "modes", "codebook"} {
		if !strings.Contains(out, "== "+id) {
			t.Errorf("output missing table %s", id)
		}
	}
}

// A name Run does not list is an error, the extension experiments deleted
// from this package included.
func TestRunUnknown(t *testing.T) {
	for _, name := range []string{"nope", "wal"} {
		if _, err := Run(name, QuickConfig()); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("Run(%q) = %v, want an unknown-experiment error", name, err)
		}
	}
}

func TestAblationShape(t *testing.T) {
	tb := runQuick(t, "ablation")[0]
	for _, row := range tb.Rows {
		if row[5] != "true" {
			t.Errorf("access %s: page skipping changed the answers", row[0])
		}
		withSkip := cellInt(t, row[1])
		noSkip := cellInt(t, row[2])
		if withSkip > noSkip {
			t.Errorf("access %s: skipping read MORE pages (%d > %d)", row[0], withSkip, noSkip)
		}
	}
	// At the lowest accessibility, skipping should save at least one page.
	if cellInt(t, tb.Rows[0][1]) >= cellInt(t, tb.Rows[0][2]) {
		t.Logf("note: no pages saved at %s%% accessibility (layout-dependent)", tb.Rows[0][0])
	}
}

func TestModesShape(t *testing.T) {
	tb := runQuick(t, "modes")[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("modes rows = %d", len(tb.Rows))
	}
	sepEntries := cellInt(t, tb.Rows[0][2])
	sharedEntries := cellInt(t, tb.Rows[1][2])
	if sharedEntries > sepEntries {
		t.Errorf("shared codebook has %d entries > separate %d; sharing must never cost entries", sharedEntries, sepEntries)
	}
	sepTrans := cellInt(t, tb.Rows[0][1])
	combTrans := cellInt(t, tb.Rows[2][1])
	if combTrans > sepTrans {
		t.Errorf("combined transitions %d > separate %d; merged layout should not exceed per-mode sum", combTrans, sepTrans)
	}
}

// Codebook entries follow the rule vocabulary, not the population: between
// consecutive points with subject ratio R the live entries grow by at most
// R/2 (~√R under the √S model; a linear codebook would grow by R), and at the
// largest point the run-length rows take at most 10 % of their dense size.
func TestCodebookScalingShape(t *testing.T) {
	tb := runQuick(t, "codebook")[0]
	for i := 1; i < len(tb.Rows); i++ {
		prev, cur := tb.Rows[i-1], tb.Rows[i]
		subjects := cellFloat(t, cur[0]) / cellFloat(t, prev[0])
		entries := cellFloat(t, cur[3]) / cellFloat(t, prev[3])
		if entries > subjects/2 {
			t.Errorf("entries grew %.2fx over a %.0fx subject increase (%s -> %s subjects); want <= %.1fx",
				entries, subjects, prev[0], cur[0], subjects/2)
		}
	}
	top := tb.Rows[len(tb.Rows)-1]
	if sparse, dense := cellInt(t, top[6]), cellInt(t, top[7]); sparse*10 > dense {
		t.Errorf("sparse dictionary is %d B of %d B dense at %s subjects; want <= 10%%", sparse, dense, top[0])
	}
}
