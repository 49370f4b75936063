// Package synthacl generates access-control workloads for the paper's
// experiments: the seed-based single-subject synthetic labeling of §5
// (propagation ratio, accessibility ratio, horizontal and vertical
// structural locality with Most-Specific-Override), plus multi-user
// simulators standing in for the paper's two proprietary datasets — the
// OpenText LiveLink production ACL dump and the University of Waterloo
// Unix file system — with the same structural statistics and, crucially,
// the same correlation-by-construction among subjects' rights that drives
// the paper's codebook compression results.
package synthacl

import (
	"math/rand"

	"dolxml/internal/bitset"
	"dolxml/internal/xmltree"
)

// SynthConfig parameterizes the §5 synthetic generator.
type SynthConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// PropagationRatio is the fraction of nodes chosen as seeds ("the
	// propagation ratio determines the percentage of nodes that are
	// seeds").
	PropagationRatio float64
	// AccessibilityRatio is the fraction of seeds labeled accessible.
	AccessibilityRatio float64
	// SiblingProb is the probability that a seed's non-seed direct
	// sibling receives the seed's label (horizontal locality). The
	// paper's generator always simulates horizontal locality; 0.5 is the
	// default when unset; a negative value disables it.
	SiblingProb float64
	// ForceRootAccessible pins the root seed to accessible. The query
	// experiments use it so that anchored queries are not trivially
	// emptied by an inaccessible document root.
	ForceRootAccessible bool
}

// Synthetic labels doc for a single subject following §5: random seeds
// (always including the root) labeled accessible with probability
// AccessibilityRatio, horizontal locality via sibling copying, and
// vertical locality via Most-Specific-Override propagation. Bit n of the
// result is node n's accessibility.
func Synthetic(doc *xmltree.Document, cfg SynthConfig) *bitset.Bitset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := doc.Len()
	sibProb := cfg.SiblingProb
	if sibProb == 0 {
		sibProb = 0.5
	}
	if sibProb < 0 {
		sibProb = 0
	}

	type label struct {
		set        bool
		accessible bool
		isSeed     bool
	}
	labels := make([]label, n)
	// Seeds: each node independently; the root always.
	for v := 0; v < n; v++ {
		if v == 0 || rng.Float64() < cfg.PropagationRatio {
			labels[v] = label{set: true, accessible: rng.Float64() < cfg.AccessibilityRatio, isSeed: true}
		}
	}
	if cfg.ForceRootAccessible {
		labels[0].accessible = true
	}
	// Horizontal locality: a seed's non-seed direct siblings may copy its
	// label.
	for v := 0; v < n; v++ {
		if !labels[v].isSeed {
			continue
		}
		p := doc.Parent(xmltree.NodeID(v))
		if p == xmltree.InvalidNode {
			continue
		}
		for c := doc.FirstChild(p); c != xmltree.InvalidNode; c = doc.NextSibling(c) {
			if int(c) == v || labels[c].isSeed {
				continue
			}
			if rng.Float64() < sibProb {
				labels[c].set = true
				labels[c].accessible = labels[v].accessible
			}
		}
	}
	// Vertical locality: Most-Specific-Override — inherit from the
	// closest labeled ancestor. Preorder pass: parent precedes child.
	acc := bitset.New(n)
	effective := make([]bool, n)
	for v := 0; v < n; v++ {
		var inherited bool
		if p := doc.Parent(xmltree.NodeID(v)); p != xmltree.InvalidNode {
			inherited = effective[p]
		}
		if labels[v].set {
			inherited = labels[v].accessible
		}
		effective[v] = inherited
		if inherited {
			acc.Set(v)
		}
	}
	return acc
}
