// Package bench regenerates every table and figure of the paper's
// evaluation (§5) as printable tables: the CAM-vs-DOL single-subject
// comparisons (Figure 4), multi-subject codebook and transition scaling
// (Figures 5 and 6), the §5.1.1 storage comparison, the ε-NoK vs NoK query
// experiments over the Table 1 workload (Figure 7), the ε-STD structural
// join experiments (§4.2, Q4–Q6), the update-cost and Proposition 1
// checks (§3.4), and the §2.1 uncorrelated worst case.
//
// Absolute numbers depend on the machine and on the simulated datasets
// standing in for the paper's proprietary ones; the shapes — who wins, by
// roughly what factor, where the curves bend — are the reproduction
// targets (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"strings"

	"dolxml/internal/synthacl"
)

// Config scales the experiments.
type Config struct {
	// Seed drives all generators.
	Seed int64
	// XMarkNodes sizes the synthetic-ACL documents (Figures 4a, 7).
	XMarkNodes int
	// LiveLink and UnixFS configure the multi-user simulators.
	LiveLink synthacl.LiveLinkConfig
	UnixFS   synthacl.UnixFSConfig
	// QueryRuns is the number of timed repetitions per query point.
	QueryRuns int
	// PageSize and PoolPages configure the storage layer.
	PageSize  int
	PoolPages int
	// SampledUsers is how many users Figure 4(b) averages over per mode.
	SampledUsers int
	// ACLTrials is how many independent ACL labelings the query
	// experiments average over (the synthetic generator has high
	// variance at a single draw).
	ACLTrials int
	// CodebookSubjects are the population points of the codebook
	// subject-scaling sweep (ascending).
	CodebookSubjects []int
}

// DefaultConfig returns a laptop-scale configuration: every experiment
// completes in seconds while preserving the paper's proportions.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		XMarkNodes:   100000,
		LiveLink:     synthacl.DefaultLiveLink(1),
		UnixFS:       synthacl.DefaultUnixFS(1),
		QueryRuns:    5,
		PageSize:     4096,
		PoolPages:    8192,
		SampledUsers: 10,
		ACLTrials:    3,
		CodebookSubjects: []int{
			10000, 100000, 1000000,
		},
	}
}

// QuickConfig returns a configuration small enough for unit tests.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.XMarkNodes = 12000
	cfg.LiveLink = synthacl.LiveLinkConfig{
		Seed: 1, Folders: 4000, Departments: 4, GroupsPerDept: 3,
		UsersPerGroup: 5, Modes: 3, UserNoise: 0.3, CrossDept: 0.1,
	}
	cfg.UnixFS = synthacl.UnixFSConfig{Seed: 1, Files: 4000, Users: 20, Groups: 8}
	cfg.QueryRuns = 2
	cfg.SampledUsers = 4
	cfg.ACLTrials = 2
	cfg.CodebookSubjects = []int{1000, 10000, 100000}
	return cfg
}

// PaperConfig approaches the paper's dataset sizes (an 830 K-node XMark
// instance, thousands of subjects, a 100 K-item folder tree). Expect
// minutes, not seconds.
func PaperConfig() Config {
	cfg := DefaultConfig()
	cfg.XMarkNodes = 830000
	cfg.LiveLink = synthacl.LiveLinkConfig{
		Seed: 1, Folders: 100000, Departments: 20, GroupsPerDept: 6,
		UsersPerGroup: 20, Modes: 10, UserNoise: 0.3, CrossDept: 0.1,
	}
	cfg.UnixFS = synthacl.UnixFSConfig{Seed: 1, Files: 400000, Users: 182, Groups: 65}
	cfg.QueryRuns = 5
	cfg.PoolPages = 65536
	return cfg
}

// Table is one experiment's printable result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	printRow(t.Columns)
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiments are the names Run accepts: one per table or figure of the
// paper's evaluation.
var Experiments = []string{
	"fig4a", "fig4b", "fig5", "fig6", "storage", "fig7", "joins",
	"updates", "worstcase", "ablation", "modes", "codebook",
}

// Run executes the named experiment and returns its tables.
func Run(name string, cfg Config) ([]*Table, error) {
	switch name {
	case "fig4a":
		return []*Table{Fig4a(cfg)}, nil
	case "fig4b":
		return []*Table{Fig4b(cfg)}, nil
	case "fig5":
		return Fig5(cfg), nil
	case "fig6":
		return Fig6(cfg), nil
	case "storage":
		return []*Table{Storage(cfg)}, nil
	case "fig7":
		return Fig7(cfg), nil
	case "joins":
		return Joins(cfg), nil
	case "updates":
		return []*Table{Updates(cfg)}, nil
	case "worstcase":
		return []*Table{WorstCase(cfg)}, nil
	case "ablation":
		return []*Table{Ablation(cfg)}, nil
	case "modes":
		return []*Table{Modes(cfg)}, nil
	case "codebook":
		return []*Table{CodebookScaling(cfg)}, nil
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Experiments)
	}
}
