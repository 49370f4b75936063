package acl

import (
	"cmp"
	"fmt"
	"slices"

	"dolxml/internal/bitset"
	"dolxml/internal/xmltree"
)

// Effect is the sign of an authorization rule.
type Effect int

// Rule effects: Permit grants access, Deny revokes it.
const (
	Deny Effect = iota
	Permit
)

func (e Effect) String() string {
	if e == Permit {
		return "permit"
	}
	return "deny"
}

// ConflictPolicy selects among conflicting rules attached to the same node
// for the same subject, following the policy families of Jajodia et al.
type ConflictPolicy int

// Supported conflict-resolution policies.
const (
	// DenyOverrides: any applicable deny wins (the common closed default).
	DenyOverrides ConflictPolicy = iota
	// PermitOverrides: any applicable permit wins.
	PermitOverrides
	// LastRuleWins: rules are applied in definition order; later rules
	// override earlier ones.
	LastRuleWins
)

// Rule is one authorization statement: subject gets effect on the target
// node, optionally cascading to the target's whole subtree. Cascading rules
// propagate with Most-Specific-Override semantics: a node is governed by
// the rule whose target is its nearest ancestor-or-self.
type Rule struct {
	Subject SubjectID
	Mode    Mode
	Target  xmltree.NodeID
	Effect  Effect
	// Cascade propagates the effect to all descendants of Target until
	// overridden by a more specific rule.
	Cascade bool
}

// Policy is an ordered collection of rules plus the defaults that govern
// unlabeled nodes.
type Policy struct {
	// DefaultEffect applies to (subject, node) pairs no rule covers.
	// The closed-world assumption is Deny.
	DefaultEffect Effect
	// Conflicts selects among same-node conflicting rules.
	Conflicts ConflictPolicy
	rules     []Rule
}

// NewPolicy returns an empty closed-world (deny by default) policy with
// DenyOverrides conflict resolution.
func NewPolicy() *Policy {
	return &Policy{DefaultEffect: Deny, Conflicts: DenyOverrides}
}

// Add appends a rule.
func (p *Policy) Add(r Rule) { p.rules = append(p.rules, r) }

// Runs sweeps the policy over doc once, in document order, for one action
// mode, and hands fn the accessibility rows as runs: row is the row of the
// n nodes from first on. Rules for other modes are ignored; numSubjects
// fixes the rows' subject dimension.
//
// Semantics: for each subject, a node's accessibility is decided by
//  1. non-cascading rules targeting the node itself, if any;
//  2. otherwise the nearest ancestor-or-self cascading rule
//     (Most-Specific-Override, as in the paper's synthetic workload §5);
//  3. otherwise the policy default.
//
// Conflicts within a tier are resolved by p.Conflicts. The runs tile the
// document from the root; a run ends where the row may change — at a rule
// target, at the node after a target with local rules, and at the node
// after a cascading rule's subtree — so neighbouring runs may carry equal
// rows. row is reused: fn copies what it keeps.
//
// The sweep holds one row and a stack of the open cascades, each with the
// end of its target's subtree and the subjects whose bits it flipped, which
// it flips back there. A local rule's flips are undone after its node's
// run. The cost is O(rules log rules + runs), not O(nodes × subjects).
func (p *Policy) Runs(doc *xmltree.Document, mode Mode, numSubjects int, fn func(first xmltree.NodeID, n int, row *bitset.Bitset)) error {
	var idx []int // the mode's rules
	for i, r := range p.rules {
		if !doc.Valid(r.Target) {
			return fmt.Errorf("acl: rule %d targets invalid node %d", i, r.Target)
		}
		if int(r.Subject) < 0 || int(r.Subject) >= numSubjects {
			return fmt.Errorf("acl: rule %d subject %d outside [0,%d)", i, r.Subject, numSubjects)
		}
		if r.Mode == mode {
			idx = append(idx, i)
		}
	}
	// By target, cascading before local, then by subject and definition
	// order: each (target, tier, subject) is one group.
	tier := func(r *Rule) int {
		if r.Cascade {
			return 0
		}
		return 1
	}
	slices.SortFunc(idx, func(a, b int) int {
		ra, rb := &p.rules[a], &p.rules[b]
		return cmp.Or(cmp.Compare(ra.Target, rb.Target), tier(ra)-tier(rb), cmp.Compare(ra.Subject, rb.Subject), a-b)
	})

	row := bitset.New(numSubjects)
	if p.DefaultEffect == Permit {
		row.SetRange(0, numSubjects)
	}
	type cascade struct {
		end     xmltree.NodeID // the node after the target's subtree
		flipped int            // flips[flipped:] are this cascade's and above
	}
	var open []cascade
	var flips []SubjectID
	undo := func(from int) {
		for _, s := range flips[from:] {
			row.SetTo(int(s), !row.Test(int(s)))
		}
		flips = flips[:from]
	}
	end, i := xmltree.NodeID(doc.Len()), 0
	for at := xmltree.NodeID(0); at < end; {
		for len(open) > 0 && open[len(open)-1].end <= at {
			undo(open[len(open)-1].flipped)
			open = open[:len(open)-1]
		}
		j := i
		for j < len(idx) && p.rules[idx[j]].Target == at {
			j++
		}
		k := i
		for k < j && p.rules[idx[k]].Cascade {
			k++
		}
		if k > i {
			open = append(open, cascade{doc.End(at) + 1, len(flips)})
			flips = p.apply(row, idx[i:k], flips)
		}
		local := len(flips)
		flips = p.apply(row, idx[k:j], flips)
		next := end
		if k < j {
			next = at + 1
		}
		if i = j; i < len(idx) {
			next = min(next, p.rules[idx[i]].Target)
		}
		if len(open) > 0 {
			next = min(next, open[len(open)-1].end)
		}
		fn(at, int(next-at), row)
		undo(local)
		at = next
	}
	return nil
}

// apply sets each subject's bit of row to the resolved effect of its rules
// in rs — one target's rules of one tier, grouped by subject — and appends
// the subjects whose bits it flipped to flips.
func (p *Policy) apply(row *bitset.Bitset, rs []int, flips []SubjectID) []SubjectID {
	for len(rs) > 0 {
		s, k := p.rules[rs[0]].Subject, 1
		for k < len(rs) && p.rules[rs[k]].Subject == s {
			k++
		}
		if on := p.resolve(rs[:k]) == Permit; row.Test(int(s)) != on {
			row.SetTo(int(s), on)
			flips = append(flips, s)
		}
		rs = rs[k:]
	}
	return flips
}

// resolve returns the effect of same-node, same-subject, same-tier rules
// (indices in definition order) under p.Conflicts.
func (p *Policy) resolve(rs []int) Effect {
	if p.Conflicts == LastRuleWins {
		return p.rules[rs[len(rs)-1]].Effect
	}
	wins, loses := Deny, Permit // DenyOverrides
	if p.Conflicts == PermitOverrides {
		wins, loses = Permit, Deny
	}
	for _, i := range rs {
		if p.rules[i].Effect == wins {
			return wins
		}
	}
	return loses
}
