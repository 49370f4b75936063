package join

import (
	"context"

	"dolxml/internal/bitset"
	"dolxml/internal/dol"
)

// SecureSTD performs the secure structural join of paper §4.2 under the
// Gabillon–Bruno semantics: it returns the pairs (a, d) such that a is a
// proper ancestor of d and *every* node on the path from a to d, endpoints
// included, is accessible to the effective subject set.
//
// The algorithm makes one document-order pass. A stack of the levels of
// inaccessible ancestors of the current position is maintained; a pair
// (a, d) is valid exactly when the deepest such level at d is shallower
// than a's level. Pages whose in-memory directory header shows them to be
// uniformly accessible or uniformly inaccessible contribute only
// directory-derivable stack updates and are not physically read, unless an
// inaccessible ancestor may end inside a uniformly accessible one (see
// EpsJoiner); each page is loaded at most once.
//
// SecureSTD is the drain-everything form of EpsJoiner: it probes every
// descendant in order, honoring ctx at each page-fetch boundary. The
// streaming query pipeline holds an EpsJoiner directly so it can stop the
// pass at its last descendant.
func SecureSTD(ctx context.Context, ss *dol.SecureStore, effective *bitset.Bitset, ancs, descs []Item) ([]Pair, error) {
	if len(ancs) == 0 || len(descs) == 0 {
		return nil, nil
	}
	j := NewEpsJoiner(ss, effective.Indices32())
	var out []Pair
	for _, d := range descs {
		for ; len(ancs) > 0 && ancs[0].Node <= d.Node; ancs = ancs[1:] {
			j.Push(ancs[0])
		}
		pairs, err := j.Probe(ctx, d)
		if err != nil {
			return nil, err
		}
		out = append(out, pairs...)
	}
	return out, nil
}
