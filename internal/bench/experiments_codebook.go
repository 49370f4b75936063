package bench

import (
	"fmt"
	"time"

	"dolxml/internal/synthacl"
)

// CodebookScaling reproduces the paper's central compactness claim at
// populations the materializing generators cannot reach: codebook size is
// a function of the *rule vocabulary* (groups × folders), not of the
// subject population. The streamed synthacl generator scales subjects from
// thousands to a million under a √S group structure (ceil(sqrt(S))-member
// groups, a fixed number of folders per group, a constant per-subject
// deviation rate), so the distinct-ACL vocabulary grows like √S while the
// population grows like S.
//
// Under the √S model the live-entry count grows ~√R between points with
// subject ratio R (≈3.2 per decade) where a linear codebook (the §2.1 worst
// case) would grow by R, and the run-length rows stay a small fraction of
// their dense bit-matrix size (TestCodebookScalingShape).
func CodebookScaling(cfg Config) *Table {
	t := &Table{
		ID:    "codebook",
		Title: "codebook growth vs subject population (streamed √S-group ACLs)",
		Columns: []string{"subjects", "groups", "folders", "entries", "entry growth",
			"max runs", "sparse B", "dense B", "sparse/dense", "build"},
	}
	sizes := cfg.CodebookSubjects
	if len(sizes) == 0 {
		sizes = []int{10000, 100000, 1000000}
	}

	var top synthacl.StreamStats
	for i, n := range sizes {
		s := synthacl.StreamCodebook(synthacl.DefaultStream(cfg.Seed, n)).Stats
		growth := "-"
		if i > 0 {
			growth = fmt.Sprintf("%.2fx", float64(s.Entries)/float64(top.Entries))
		}
		ratio := float64(s.SparseBytes) / float64(s.DenseBytes)
		t.AddRow(
			fmt.Sprintf("%d", s.Subjects),
			fmt.Sprintf("%d", s.Groups),
			fmt.Sprintf("%d", s.Folders),
			fmt.Sprintf("%d", s.Entries),
			growth,
			fmt.Sprintf("%d", s.MaxRuns),
			fmt.Sprintf("%d", s.SparseBytes),
			fmt.Sprintf("%d", s.DenseBytes),
			fmt.Sprintf("%.4f", ratio),
			s.BuildTime.Round(time.Millisecond).String(),
		)
		top = s
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"entries follow the rule vocabulary (~sqrt of subjects): %d subjects need %d entries (%d B sparse)",
		top.Subjects, top.Entries, top.SparseBytes))
	return t
}
