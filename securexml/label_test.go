package securexml

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dolxml/internal/query"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// TestSealModeLayout seals rules that interleave the two modes and several
// subjects, and checks every combined bit (subject × mode × node) through
// Accessible, and every user's view through UserAccessible, against a
// reference that decides each triple on its own: the last local rule on the
// node, else the last cascading rule on its nearest ancestor-or-self that
// has one, else the default.
func TestSealModeLayout(t *testing.T) {
	xpaths := []string{"/r", "//a", "//b", "//c", "/r/a", "//a/b", "//b//c", "//c[b]"}
	modes := []string{"read", "write"}
	for _, defaultOn := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("default%v/seed%d", defaultOn, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var xb strings.Builder
				if err := xmlmodel.Doc(rng, 150, xmlmodel.Mixed).WriteXML(&xb); err != nil {
					t.Fatal(err)
				}
				doc, err := xmltree.ParseString(xb.String())
				if err != nil {
					t.Fatal(err)
				}
				subjects := []string{"g0", "g1", "u0", "u1", "u2", "u3"}
				users := map[string][]string{"u0": {"g0"}, "u1": {"g1"}, "u2": {"g0", "g1"}, "u3": nil}
				b := NewBuilder().LoadXMLString(xb.String()).AddGroup("g0").AddGroup("g1")
				for _, u := range subjects[2:] {
					b.AddUser(u)
					for _, g := range users[u] {
						b.AddMember(g, u)
					}
				}
				if defaultOn {
					b.PermitByDefault()
				}
				type key struct {
					node          xmltree.NodeID
					subject, mode int
					cascade       bool
				}
				last := map[key]Effect{}
				for k := 0; k < 40; k++ {
					s, mi, xp := rng.Intn(len(subjects)), rng.Intn(2), xpaths[rng.Intn(len(xpaths))]
					eff, cascade := Effect(rng.Intn(2)), rng.Intn(3) > 0
					switch {
					case eff == Permit && cascade:
						b.Grant(subjects[s], modes[mi], xp)
					case cascade:
						b.Revoke(subjects[s], modes[mi], xp)
					case eff == Permit:
						b.GrantLocal(subjects[s], modes[mi], xp)
					default:
						b.RevokeLocal(subjects[s], modes[mi], xp)
					}
					pt, err := query.Parse(xp)
					if err != nil {
						t.Fatal(err)
					}
					for _, n := range query.MatchDocument(doc, pt) {
						last[key{n, s, mi, cascade}] = eff
					}
				}
				st, err := b.Seal(StoreOptions{PageSize: 256})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				ref := func(n xmltree.NodeID, s, mi int) bool {
					if eff, ok := last[key{n, s, mi, false}]; ok {
						return eff == Permit
					}
					for a := n; a != xmltree.InvalidNode; a = doc.Parent(a) {
						if eff, ok := last[key{a, s, mi, true}]; ok {
							return eff == Permit
						}
					}
					return defaultOn
				}
				for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
					for mi, mode := range modes {
						for s, name := range subjects {
							got, err := st.Accessible(name, mode, NodeID(n))
							if err != nil {
								t.Fatal(err)
							}
							if want := ref(n, s, mi); got != want {
								t.Fatalf("%s may %s node %d: %v, reference %v", name, mode, n, got, want)
							}
						}
						for u, groups := range users {
							want := ref(n, slices.Index(subjects, u), mi)
							for _, g := range groups {
								want = want || ref(n, slices.Index(subjects, g), mi)
							}
							got, err := st.UserAccessible(u, mode, NodeID(n))
							if err != nil {
								t.Fatal(err)
							}
							if got != want {
								t.Fatalf("user %s may %s node %d: %v, reference %v", u, mode, n, got, want)
							}
						}
					}
				}
			})
		}
	}
}
