// Package securexml is the public facade of the DOL library: it ties the
// substrates together into a secure XML store with the workflow of the
// paper —
//
//  1. load an XML document,
//  2. declare subjects (users, groups, memberships) and action modes,
//  3. write rule-based access control policies over XPath targets with
//     hierarchical propagation (Most-Specific-Override),
//  4. Seal: materialize the net accessibility function and encode it as a
//     Document Ordered Labeling physically embedded in block-oriented NoK
//     storage, and
//  5. run secure twig queries whose access checks ride along with the
//     structure pages (no additional I/O), under either of the paper's two
//     secure-evaluation semantics.
//
// Sealed stores remain updatable: node/subtree accessibility changes,
// subject addition and removal, and structural inserts, deletes and moves
// of subtrees — all with the paper's update-locality guarantees.
package securexml

import (
	"fmt"
	"io"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/dol"
	"dolxml/internal/query"
	"dolxml/internal/xmltree"
)

// NodeID identifies a node by its document-order position (the root is 0).
type NodeID int32

// InvalidNode is the null node reference; it also selects "insert as first
// child" in InsertXML and Move.
const InvalidNode NodeID = -1

// Effect is the sign of a policy rule.
type Effect int

// Rule effects.
const (
	Deny Effect = iota
	Permit
)

// Builder accumulates the document, the subject directory and the policy
// before the store is sealed.
type Builder struct {
	doc       *xmltree.Document
	dir       *acl.Directory
	modes     []string
	modeIdx   map[string]int
	rules     []ruleSpec
	defaultOn bool
	err       error
}

type ruleSpec struct {
	subject string
	mode    string
	xpath   string
	effect  Effect
	cascade bool
}

// NewBuilder returns an empty builder with the conventional "read" and
// "write" action modes pre-registered and a closed-world (deny by default)
// policy.
func NewBuilder() *Builder {
	b := &Builder{
		dir:     acl.NewDirectory(),
		modeIdx: make(map[string]int),
	}
	b.AddMode("read")
	b.AddMode("write")
	return b
}

// fail records the first error; subsequent calls keep it.
func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// LoadXML parses the document to secure.
func (b *Builder) LoadXML(r io.Reader) *Builder {
	return b.load(xmltree.Parse(r))
}

// LoadXMLString is LoadXML over a string.
func (b *Builder) LoadXMLString(s string) *Builder {
	return b.load(xmltree.ParseString(s))
}

func (b *Builder) load(doc *xmltree.Document, err error) *Builder {
	if err != nil {
		b.fail(err)
		return b
	}
	b.doc = doc
	return b
}

// AddMode registers an action mode name (idempotent) and returns b.
func (b *Builder) AddMode(name string) *Builder {
	if _, ok := b.modeIdx[name]; !ok {
		b.modeIdx[name] = len(b.modes)
		b.modes = append(b.modes, name)
	}
	return b
}

// AddUser registers a user subject.
func (b *Builder) AddUser(name string) *Builder {
	if _, err := b.dir.AddUser(name); err != nil {
		b.fail(err)
	}
	return b
}

// AddGroup registers a group subject.
func (b *Builder) AddGroup(name string) *Builder {
	if _, err := b.dir.AddGroup(name); err != nil {
		b.fail(err)
	}
	return b
}

// AddMember records that member (a user or group) belongs to group.
func (b *Builder) AddMember(group, member string) *Builder {
	g, ok := b.dir.Lookup(group)
	if !ok {
		b.fail(fmt.Errorf("securexml: unknown group %q", group))
		return b
	}
	m, ok := b.dir.Lookup(member)
	if !ok {
		b.fail(fmt.Errorf("securexml: unknown subject %q", member))
		return b
	}
	if err := b.dir.AddMember(g, m); err != nil {
		b.fail(err)
	}
	return b
}

// Grant adds a cascading permit rule: subject gets mode on every node
// matched by the XPath expression and, by propagation, on their subtrees
// until overridden by a more specific rule.
func (b *Builder) Grant(subject, mode, xpath string) *Builder {
	b.rules = append(b.rules, ruleSpec{subject, mode, xpath, Permit, true})
	return b
}

// Revoke adds a cascading deny rule.
func (b *Builder) Revoke(subject, mode, xpath string) *Builder {
	b.rules = append(b.rules, ruleSpec{subject, mode, xpath, Deny, true})
	return b
}

// GrantLocal and RevokeLocal add non-cascading rules affecting only the
// matched nodes themselves.
func (b *Builder) GrantLocal(subject, mode, xpath string) *Builder {
	b.rules = append(b.rules, ruleSpec{subject, mode, xpath, Permit, false})
	return b
}

// RevokeLocal adds a non-cascading deny rule.
func (b *Builder) RevokeLocal(subject, mode, xpath string) *Builder {
	b.rules = append(b.rules, ruleSpec{subject, mode, xpath, Deny, false})
	return b
}

// PermitByDefault switches the policy to an open world: subjects without
// applicable rules can access everything.
func (b *Builder) PermitByDefault() *Builder {
	b.defaultOn = true
	return b
}

// label compiles the rules, checked in rule order, into one policy over
// combined subjects — bit subject*numModes + mode, so post-seal subject
// additions append bits — and sweeps it into the labeling's runs.
func (b *Builder) label() (*dol.Labeling, error) {
	numModes := len(b.modes)
	numBits := b.dir.Len() * numModes
	p := acl.NewPolicy()
	p.Conflicts = acl.LastRuleWins
	if b.defaultOn {
		p.DefaultEffect = acl.Permit
	}
	for ri, r := range b.rules {
		s, ok := b.dir.Lookup(r.subject)
		if !ok {
			return nil, fmt.Errorf("securexml: rule %d: unknown subject %q", ri, r.subject)
		}
		mi, ok := b.modeIdx[r.mode]
		if !ok {
			return nil, fmt.Errorf("securexml: rule %d: unknown mode %q", ri, r.mode)
		}
		pt, err := query.Parse(r.xpath)
		if err != nil {
			return nil, fmt.Errorf("securexml: rule %d: %w", ri, err)
		}
		for _, target := range query.MatchDocument(b.doc, pt) {
			p.Add(acl.Rule{
				Subject: acl.SubjectID(int(s)*numModes + mi),
				Target:  target,
				Effect:  acl.Effect(r.effect),
				Cascade: r.cascade,
			})
		}
	}
	sb := dol.NewStreamBuilder(dol.NewCodebook(numBits))
	err := p.Runs(b.doc, acl.ModeRead, numBits, func(_ xmltree.NodeID, n int, row *bitset.Bitset) {
		sb.AppendRun(row, n)
	})
	if err != nil {
		return nil, err
	}
	return sb.Finish(), nil
}

// effectiveBits expands a user's effective subjects into combined-matrix
// bit positions for one mode.
func effectiveBits(dir *acl.Directory, numModes, mode int, user acl.SubjectID) *bitset.Bitset {
	eff := dir.EffectiveSubjects(user)
	out := bitset.New(dir.Len() * numModes)
	for _, s := range eff.Indices() {
		out.Set(s*numModes + mode)
	}
	return out
}
