package acl_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// refMaterialize is the per-subject materialization Policy.Runs replaced,
// kept as the sweep's reference: for every subject that has rules, a DFS
// from the root carries the inherited cascading effect, and two maps keyed
// by (target, subject) hold each tier's rules.
func refMaterialize(p *acl.Policy, rules []acl.Rule, doc *xmltree.Document, mode acl.Mode, numSubjects int) (*acl.Matrix, error) {
	for i, r := range rules {
		if !doc.Valid(r.Target) {
			return nil, fmt.Errorf("acl: rule %d targets invalid node %d", i, r.Target)
		}
		if int(r.Subject) < 0 || int(r.Subject) >= numSubjects {
			return nil, fmt.Errorf("acl: rule %d subject %d outside [0,%d)", i, r.Subject, numSubjects)
		}
	}
	m := acl.NewMatrix(doc.Len(), numSubjects)

	type key struct {
		target  xmltree.NodeID
		subject acl.SubjectID
	}
	local := make(map[key][]int)   // non-cascading
	cascade := make(map[key][]int) // cascading
	subjectsSeen := map[acl.SubjectID]bool{}
	for i, r := range rules {
		if r.Mode != mode {
			continue
		}
		k := key{r.Target, r.Subject}
		if r.Cascade {
			cascade[k] = append(cascade[k], i)
		} else {
			local[k] = append(local[k], i)
		}
		subjectsSeen[r.Subject] = true
	}

	resolve := func(idxs []int) (acl.Effect, bool) {
		if len(idxs) == 0 {
			return acl.Deny, false
		}
		switch p.Conflicts {
		case acl.DenyOverrides:
			for _, i := range idxs {
				if rules[i].Effect == acl.Deny {
					return acl.Deny, true
				}
			}
			return acl.Permit, true
		case acl.PermitOverrides:
			for _, i := range idxs {
				if rules[i].Effect == acl.Permit {
					return acl.Permit, true
				}
			}
			return acl.Deny, true
		default: // LastRuleWins
			return rules[idxs[len(idxs)-1]].Effect, true
		}
	}

	subjects := make([]acl.SubjectID, 0, len(subjectsSeen))
	for s := range subjectsSeen {
		subjects = append(subjects, s)
	}
	sort.Slice(subjects, func(i, j int) bool { return subjects[i] < subjects[j] })

	defaultOn := p.DefaultEffect == acl.Permit
	for s := acl.SubjectID(0); int(s) < numSubjects; s++ {
		if !subjectsSeen[s] {
			if defaultOn {
				for n := 0; n < doc.Len(); n++ {
					m.Set(xmltree.NodeID(n), s, true)
				}
			}
			continue
		}
		type frame struct {
			node      xmltree.NodeID
			inherited acl.Effect
		}
		stack := []frame{{doc.Root(), p.DefaultEffect}}
		for len(stack) > 0 {
			fr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			inherited := fr.inherited
			if eff, ok := resolve(cascade[key{fr.node, s}]); ok {
				inherited = eff
			}
			nodeEff := inherited
			if eff, ok := resolve(local[key{fr.node, s}]); ok {
				nodeEff = eff
			}
			if nodeEff == acl.Permit {
				m.Set(fr.node, s, true)
			}
			for c := doc.FirstChild(fr.node); c != xmltree.InvalidNode; c = doc.NextSibling(c) {
				stack = append(stack, frame{c, inherited})
			}
		}
	}
	return m, nil
}

// runsPolicy draws rules over doc that reach every case of the sweep:
// rules on the root and on the last node, several rules on one (target,
// subject) in both tiers, local rules on cascade targets, nested and
// sibling cascades, and rules of a second mode that must be ignored. It
// returns the policy and its rules in definition order.
func runsPolicy(rng *rand.Rand, doc *xmltree.Document, subjects int) (*acl.Policy, []acl.Rule) {
	p := acl.NewPolicy()
	last := xmltree.NodeID(doc.Len() - 1)
	var targets []xmltree.NodeID
	var rules []acl.Rule
	addRule := func(r acl.Rule) {
		p.Add(r)
		rules = append(rules, r)
	}
	add := func(target xmltree.NodeID, cascade bool) {
		targets = append(targets, target)
		addRule(acl.Rule{
			Subject: acl.SubjectID(rng.Intn(subjects)),
			Mode:    acl.Mode(rng.Intn(4) / 3), // one in four for ModeWrite
			Target:  target,
			Effect:  acl.Effect(rng.Intn(2)),
			Cascade: cascade,
		})
	}
	add(doc.Root(), true)
	add(last, rng.Intn(2) == 0)
	for k := 4 + rng.Intn(4*subjects+8); k > 0; k-- {
		cascade := rng.Intn(3) > 0
		prev := targets[rng.Intn(len(targets))]
		switch rng.Intn(6) {
		case 0: // the same target, either tier
			add(prev, cascade)
		case 1: // the same (target, subject): repeat a rule with its own effect
			r := rules[rng.Intn(len(rules))]
			r.Effect, r.Cascade = acl.Effect(rng.Intn(2)), cascade
			addRule(r)
		case 2: // nested: a descendant of an earlier target
			if end := doc.End(prev); end > prev {
				add(prev+1+xmltree.NodeID(rng.Intn(int(end-prev))), cascade)
			}
		case 3: // a sibling cascade
			if sib := doc.NextSibling(prev); sib != xmltree.InvalidNode {
				add(sib, true)
			}
		default:
			add(xmltree.NodeID(rng.Intn(doc.Len())), cascade)
		}
	}
	return p, rules
}

// checkRuns compares the matrix filled from the sweep's runs with
// refMaterialize under every conflict policy and both defaults, and checks
// that the runs tile the document.
func checkRuns(t *testing.T, doc *xmltree.Document, p *acl.Policy, rules []acl.Rule, subjects int) {
	t.Helper()
	for _, conflicts := range []acl.ConflictPolicy{acl.DenyOverrides, acl.PermitOverrides, acl.LastRuleWins} {
		for _, def := range []acl.Effect{acl.Deny, acl.Permit} {
			p.Conflicts, p.DefaultEffect = conflicts, def
			want, err := refMaterialize(p, rules, doc, acl.ModeRead, subjects)
			if err != nil {
				t.Fatal(err)
			}
			got := acl.NewMatrix(doc.Len(), subjects)
			next := xmltree.NodeID(0)
			if err := p.Runs(doc, acl.ModeRead, subjects, func(first xmltree.NodeID, n int, row *bitset.Bitset) {
				if first != next || n < 1 {
					t.Fatalf("a run of %d nodes at %d, after runs up to %d", n, first, next)
				}
				for k := range n {
					got.SetRow(first+xmltree.NodeID(k), row)
				}
				next += xmltree.NodeID(n)
			}); err != nil {
				t.Fatal(err)
			}
			if int(next) != doc.Len() {
				t.Fatalf("the runs end at %d of %d nodes", next, doc.Len())
			}
			for n := 0; n < doc.Len(); n++ {
				if g, w := got.Row(xmltree.NodeID(n)), want.Row(xmltree.NodeID(n)); !g.EqualBits(w) {
					t.Fatalf("conflicts %d, default %v, %d rules: node %d of %d has %v, reference %v",
						conflicts, def, len(rules), n, doc.Len(), g, w)
				}
			}
		}
	}
}

var runsShapes = []xmlmodel.Shape{xmlmodel.Deep, xmlmodel.Mixed, xmlmodel.IDs, xmlmodel.XMark}

// TestPolicyRunsMatchReference is the sweep's differential test against the
// per-subject DFS it replaced.
func TestPolicyRunsMatchReference(t *testing.T) {
	for _, shape := range runsShapes {
		for seed := int64(1); seed <= 40; seed++ {
			t.Run(fmt.Sprintf("shape%d/seed%d", shape, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				doc := xmlmodel.Doc(rng, 1+rng.Intn(200), shape)
				subjects := 1 + rng.Intn(70) // past one word of bits
				p, rules := runsPolicy(rng, doc, subjects)
				checkRuns(t, doc, p, rules, subjects)
			})
		}
	}
}

func FuzzPolicyRuns(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(40*seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, size uint8) {
		rng := rand.New(rand.NewSource(seed))
		doc := xmlmodel.Doc(rng, 1+int(size), runsShapes[int(shape)%len(runsShapes)])
		subjects := 1 + rng.Intn(70)
		p, rules := runsPolicy(rng, doc, subjects)
		checkRuns(t, doc, p, rules, subjects)
	})
}
