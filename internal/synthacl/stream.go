package synthacl

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/dol"
)

// StreamConfig parameterizes the streamed subject-scaling generator, the
// workload behind the codebook-sublinearity experiment. LiveLink and UnixFS
// materialize a nodes×subjects matrix, which caps them at hundreds of
// subjects; this generator streams subjects in ID order and touches only a
// run-length codebook plus a fixed folder partition, so it reaches 10⁶
// subjects in memory proportional to the *rule* vocabulary, not the
// population.
//
// The model keeps the property the paper's claim rests on: rights are
// group-correlated. Subjects join groups of GroupSize consecutive IDs; each
// group owns FoldersPerGroup contiguous document-order folders inside its
// region of the node space and every member is granted the group's folders.
// Personal deviations happen at a fixed per-subject rate — a member skips
// one of its group's folders (a revocation hole) or is granted one foreign
// group's folder — so the distinct-ACL vocabulary stays bounded by the
// folder partition while row *width* (runs per codebook entry) grows with
// the deviating population, which is exactly what sparse rows must absorb.
type StreamConfig struct {
	Seed int64
	// Subjects is the population size (users, streamed in ID order).
	Subjects int
	// Nodes is the document-order node count the folders partition.
	Nodes int
	// GroupSize is the number of consecutive subject IDs per group;
	// 0 means ceil(sqrt(Subjects)), giving ~sqrt(Subjects) groups — the
	// administrative-rule growth real directories exhibit.
	GroupSize int
	// FoldersPerGroup is the number of folders in each group's region.
	FoldersPerGroup int
	// DeviationRate is the per-subject probability of one personal
	// deviation (half skip-a-folder, half foreign-folder grant).
	DeviationRate float64
}

// DefaultStream returns the sweep configuration for the given population.
func DefaultStream(seed int64, subjects int) StreamConfig {
	return StreamConfig{
		Seed:            seed,
		Subjects:        subjects,
		Nodes:           100000,
		FoldersPerGroup: 4,
		DeviationRate:   0.05,
	}
}

func (cfg StreamConfig) normalized() StreamConfig {
	if cfg.Subjects < 1 {
		cfg.Subjects = 1
	}
	if cfg.GroupSize < 1 {
		cfg.GroupSize = int(math.Ceil(math.Sqrt(float64(cfg.Subjects))))
	}
	if cfg.FoldersPerGroup < 1 {
		cfg.FoldersPerGroup = 1
	}
	groups := (cfg.Subjects + cfg.GroupSize - 1) / cfg.GroupSize
	if min := groups * cfg.FoldersPerGroup; cfg.Nodes < min {
		cfg.Nodes = min // at least one node per folder
	}
	return cfg
}

// Groups returns the number of groups cfg produces.
func (cfg StreamConfig) Groups() int {
	cfg = cfg.normalized()
	return (cfg.Subjects + cfg.GroupSize - 1) / cfg.GroupSize
}

// Folder is one contiguous document-order range owned by a group. Folders
// partition [0, Nodes): folder k of group g spans its slice of the group's
// region.
type Folder struct {
	Lo, Hi int // half-open node range [Lo, Hi)
	Group  int
}

// Folders returns the deterministic folder partition for cfg.
func (cfg StreamConfig) Folders() []Folder {
	cfg = cfg.normalized()
	groups := cfg.Groups()
	total := groups * cfg.FoldersPerGroup
	folders := make([]Folder, 0, total)
	for i := 0; i < total; i++ {
		lo := cfg.Nodes * i / total
		hi := cfg.Nodes * (i + 1) / total
		folders = append(folders, Folder{Lo: lo, Hi: hi, Group: i / cfg.FoldersPerGroup})
	}
	return folders
}

// StreamGrants streams the workload's grant events — (node range, subject)
// pairs — in subject-ID order, calling grant for each. The sequence is a
// pure function of cfg, so the sparse builder and a dense oracle replaying
// the same events see identical workloads.
func StreamGrants(cfg StreamConfig, grant func(lo, hi, subject int)) {
	cfg = cfg.normalized()
	rng := rand.New(rand.NewSource(cfg.Seed))
	folders := cfg.Folders()
	groups := cfg.Groups()
	for u := 0; u < cfg.Subjects; u++ {
		g := u / cfg.GroupSize
		skip := -1
		foreign := -1
		if rng.Float64() < cfg.DeviationRate {
			if rng.Intn(2) == 0 {
				skip = rng.Intn(cfg.FoldersPerGroup)
			} else if groups > 1 {
				og := rng.Intn(groups - 1)
				if og >= g {
					og++
				}
				foreign = og*cfg.FoldersPerGroup + rng.Intn(cfg.FoldersPerGroup)
			}
		}
		base := g * cfg.FoldersPerGroup
		for k := 0; k < cfg.FoldersPerGroup; k++ {
			if k == skip {
				continue
			}
			f := folders[base+k]
			grant(f.Lo, f.Hi, u)
		}
		if foreign >= 0 {
			f := folders[foreign]
			grant(f.Lo, f.Hi, u)
		}
	}
}

// StreamStats summarizes one streamed build — the measurements the
// codebook-growth experiment reports per population point.
type StreamStats struct {
	Subjects    int
	Groups      int
	Folders     int   // distinct document-order intervals carrying an ACL
	Entries     int   // live codebook entries (the paper's Figure 5 metric)
	LiveRuns    int64 // total runs across live entries
	MaxRuns     int   // widest live row (runs)
	SparseBytes int64 // run-encoded size of the live dictionary
	DenseBytes  int64 // the same dictionary as dense bit-vector rows
	BuildTime   time.Duration
}

// StreamResult is a streamed build: the codebook, the final code of every
// folder, and the summary statistics.
type StreamResult struct {
	Codebook *dol.Codebook
	Folders  []Folder
	Codes    []dol.Code // final code per folder
	Stats    StreamStats
}

// StreamCodebook runs the generator, interning every folder's evolving ACL
// into a codebook. Memory stays proportional to the folder partition: the
// nodes×subjects matrix is never materialized.
func StreamCodebook(cfg StreamConfig) *StreamResult {
	cfg = cfg.normalized()
	start := time.Now()
	cb := dol.NewCodebook(cfg.Subjects)
	folders := cfg.Folders()
	empty := cb.Intern(nil)
	codes := make([]dol.Code, len(folders))
	for i := range codes {
		codes[i] = empty
		cb.Retain(empty)
	}
	starts := make([]int, len(folders))
	for i, f := range folders {
		starts[i] = f.Lo
	}
	StreamGrants(cfg, func(lo, _, subject int) {
		i := sort.SearchInts(starts, lo)
		if cb.Accessible(codes[i], acl.SubjectID(subject)) {
			return
		}
		next := cb.Intern(bitset.AddRunBit(cb.Row(codes[i]), uint32(subject)))
		cb.Retain(next)
		cb.Release(codes[i])
		codes[i] = next
	})
	st := StreamStats{
		Subjects:   cfg.Subjects,
		Groups:     cfg.Groups(),
		Folders:    len(folders),
		Entries:    cb.Len(),
		DenseBytes: int64(cb.Bytes()),
	}
	// Every live entry is some folder's final code.
	seen := make(map[dol.Code]bool, cb.Len())
	for _, c := range codes {
		if seen[c] {
			continue
		}
		seen[c] = true
		row := cb.Row(c)
		st.LiveRuns += int64(len(row))
		st.MaxRuns = max(st.MaxRuns, len(row))
		st.SparseBytes += int64(bitset.RunsSize(row))
	}
	st.BuildTime = time.Since(start)
	return &StreamResult{Codebook: cb, Folders: folders, Codes: codes, Stats: st}
}
