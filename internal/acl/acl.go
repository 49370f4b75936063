// Package acl implements the fine-grained access control model of the DOL
// paper (§2): a set of subjects S (users and user groups), a set of action
// modes M (read, write, ...), and an accessibility function
//
//	accessible : S × M × D → {true, false}
//
// over the node set D of an XML tree. The materialized function for one
// action mode is an accessibility Matrix: one subject bit vector per node.
//
// The subject hierarchy (group membership) is maintained separately from
// the matrix, exactly as in the paper: a user's effective rights are the
// union of their own subject's rights and those of every group they belong
// to (footnote 4).
//
// Rule-based policies with hierarchical propagation and the
// Most-Specific-Override semantics of Jajodia et al. [12] are provided by
// Policy.Runs, which computes the "net effect ... captured by an
// accessibility function" that DOL then encodes.
package acl

import (
	"fmt"
	"math"

	"dolxml/internal/bitset"
	"dolxml/internal/wire"
	"dolxml/internal/xmltree"
)

// SubjectID identifies a subject (user or group) in a Directory. IDs are
// dense and double as bit positions in accessibility vectors and DOL
// codebook entries.
type SubjectID int

// InvalidSubject is the null subject reference.
const InvalidSubject SubjectID = -1

// Mode identifies an action mode (read, write, ...). The paper's LiveLink
// dataset has ten modes; modes are just small integers with optional names.
type Mode int

// Conventional modes. Systems may define more via ModeName.
const (
	ModeRead Mode = iota
	ModeWrite
)

// Directory holds the subject set and the group-membership hierarchy.
type Directory struct {
	names   []string
	byName  map[string]SubjectID
	isGroup []bool
	// memberOf[s] lists the groups subject s directly belongs to.
	memberOf [][]SubjectID
}

// NewDirectory returns an empty subject directory.
func NewDirectory() *Directory {
	return &Directory{byName: make(map[string]SubjectID)}
}

// Clone returns a deep copy of the directory. MVCC snapshots share the
// original read-only; directory mutations (AddUser/AddGroup/AddMember) run
// on a clone and publish it wholesale.
func (d *Directory) Clone() *Directory {
	c := &Directory{
		names:    append([]string(nil), d.names...),
		byName:   make(map[string]SubjectID, len(d.byName)),
		isGroup:  append([]bool(nil), d.isGroup...),
		memberOf: make([][]SubjectID, len(d.memberOf)),
	}
	for k, v := range d.byName {
		c.byName[k] = v
	}
	for i, m := range d.memberOf {
		c.memberOf[i] = append([]SubjectID(nil), m...)
	}
	return c
}

// AddUser registers a user subject and returns its ID. Names must be unique
// across users and groups.
func (d *Directory) AddUser(name string) (SubjectID, error) {
	return d.add(name, false)
}

// AddGroup registers a group subject and returns its ID.
func (d *Directory) AddGroup(name string) (SubjectID, error) {
	return d.add(name, true)
}

func (d *Directory) add(name string, group bool) (SubjectID, error) {
	if _, ok := d.byName[name]; ok {
		return InvalidSubject, fmt.Errorf("acl: duplicate subject %q", name)
	}
	id := SubjectID(len(d.names))
	d.names = append(d.names, name)
	d.isGroup = append(d.isGroup, group)
	d.memberOf = append(d.memberOf, nil)
	d.byName[name] = id
	return id, nil
}

// MustAddUser is AddUser that panics on error.
func (d *Directory) MustAddUser(name string) SubjectID {
	id, err := d.AddUser(name)
	if err != nil {
		panic(err)
	}
	return id
}

// MustAddGroup is AddGroup that panics on error.
func (d *Directory) MustAddGroup(name string) SubjectID {
	id, err := d.AddGroup(name)
	if err != nil {
		panic(err)
	}
	return id
}

// Len returns the number of subjects.
func (d *Directory) Len() int { return len(d.names) }

// Name returns the name of subject s.
func (d *Directory) Name(s SubjectID) string { return d.names[s] }

// Lookup returns the subject with the given name.
func (d *Directory) Lookup(name string) (SubjectID, bool) {
	s, ok := d.byName[name]
	return s, ok
}

// AddMember records that subject member belongs to group. Membership may be
// nested (groups within groups); cycles are rejected.
func (d *Directory) AddMember(group, member SubjectID) error {
	if !d.valid(group) || !d.valid(member) {
		return fmt.Errorf("acl: invalid subject in AddMember(%d, %d)", group, member)
	}
	if !d.isGroup[group] {
		return fmt.Errorf("acl: %q is not a group", d.names[group])
	}
	if group == member || d.inClosure(member, group) {
		return fmt.Errorf("acl: membership cycle adding %q to %q", d.names[member], d.names[group])
	}
	d.memberOf[member] = append(d.memberOf[member], group)
	return nil
}

// inClosure reports whether s is reachable from start via memberOf edges,
// i.e. start transitively belongs to s. AddMember(g, m) would create a
// cycle exactly when g already transitively belongs to m.
func (d *Directory) inClosure(s, start SubjectID) bool {
	seen := map[SubjectID]bool{}
	var walk func(x SubjectID) bool
	walk = func(x SubjectID) bool {
		if x == s {
			return true
		}
		if seen[x] {
			return false
		}
		seen[x] = true
		for _, g := range d.memberOf[x] {
			if walk(g) {
				return true
			}
		}
		return false
	}
	return walk(start)
}

func (d *Directory) valid(s SubjectID) bool { return s >= 0 && int(s) < len(d.names) }

// EffectiveSubjects returns s plus every group s transitively belongs to,
// as a bit vector over SubjectIDs. This is the subject set whose DOL bits
// are ORed to decide a user's access (paper footnote 4).
func (d *Directory) EffectiveSubjects(s SubjectID) *bitset.Bitset {
	out := bitset.New(len(d.names))
	if !d.valid(s) {
		return out
	}
	var walk func(x SubjectID)
	walk = func(x SubjectID) {
		if out.Test(int(x)) {
			return
		}
		out.Set(int(x))
		for _, g := range d.memberOf[x] {
			walk(g)
		}
	}
	walk(s)
	return out
}

// DirectorySnapshot is the serializable form of a Directory.
type DirectorySnapshot struct {
	Names    []string
	IsGroup  []bool
	MemberOf [][]SubjectID
}

// Snapshot captures the directory for serialization.
func (d *Directory) Snapshot() DirectorySnapshot {
	s := DirectorySnapshot{
		Names:    append([]string(nil), d.names...),
		IsGroup:  append([]bool(nil), d.isGroup...),
		MemberOf: make([][]SubjectID, len(d.memberOf)),
	}
	for i, m := range d.memberOf {
		s.MemberOf[i] = append([]SubjectID(nil), m...)
	}
	return s
}

// AppendBinary appends the snapshot's image in sidecar format 3: the names,
// the group flags (0 or 1) and each subject's groups, every list a uvarint
// count and uvarint or length-prefixed entries.
func (s DirectorySnapshot) AppendBinary(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(s.Names)))
	for _, n := range s.Names {
		b = wire.AppendString(b, n)
	}
	b = wire.AppendUvarint(b, uint64(len(s.IsGroup)))
	for _, g := range s.IsGroup {
		if g {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = wire.AppendUvarint(b, uint64(len(s.MemberOf)))
	for _, gs := range s.MemberOf {
		b = wire.AppendUvarint(b, uint64(len(gs)))
		for _, g := range gs {
			b = wire.AppendUvarint(b, uint64(g))
		}
	}
	return b
}

// ReadDirectorySnapshot decodes what AppendBinary wrote. It checks the
// encoding only; DirectoryFromSnapshot checks the directory.
func ReadDirectorySnapshot(r *wire.Reader) DirectorySnapshot {
	var s DirectorySnapshot
	if n := r.Len(); n > 0 {
		s.Names = make([]string, n)
		for i := range s.Names {
			s.Names[i] = r.String()
		}
	}
	if n := r.Len(); n > 0 {
		s.IsGroup = make([]bool, n)
		for i := range s.IsGroup {
			s.IsGroup[i] = r.Uint(1) == 1
		}
	}
	if n := r.Len(); n > 0 {
		s.MemberOf = make([][]SubjectID, n)
		for i := range s.MemberOf {
			if m := r.Len(); m > 0 {
				s.MemberOf[i] = make([]SubjectID, m)
				for j := range s.MemberOf[i] {
					s.MemberOf[i][j] = SubjectID(r.Uint(math.MaxInt32))
				}
			}
		}
	}
	return s
}

// DirectoryFromSnapshot reconstructs a directory, validating names and
// membership references.
func DirectoryFromSnapshot(s DirectorySnapshot) (*Directory, error) {
	if len(s.Names) != len(s.IsGroup) || len(s.Names) != len(s.MemberOf) {
		return nil, fmt.Errorf("acl: inconsistent snapshot lengths")
	}
	d := NewDirectory()
	for i, name := range s.Names {
		var err error
		if s.IsGroup[i] {
			_, err = d.AddGroup(name)
		} else {
			_, err = d.AddUser(name)
		}
		if err != nil {
			return nil, err
		}
	}
	for member, gs := range s.MemberOf {
		for _, g := range gs {
			if err := d.AddMember(g, SubjectID(member)); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// Matrix is the materialized accessibility function for one action mode:
// row n is the set of subjects that may access node n.
type Matrix struct {
	subjects int
	rows     []*bitset.Bitset
}

// NewMatrix returns an all-deny matrix for numNodes nodes and numSubjects
// subjects.
func NewMatrix(numNodes, numSubjects int) *Matrix {
	rows := make([]*bitset.Bitset, numNodes)
	for i := range rows {
		rows[i] = bitset.New(numSubjects)
	}
	return &Matrix{subjects: numSubjects, rows: rows}
}

// NumNodes returns the number of node rows.
func (m *Matrix) NumNodes() int { return len(m.rows) }

// NumSubjects returns the subject dimension.
func (m *Matrix) NumSubjects() int { return m.subjects }

// Set grants (v=true) or revokes (v=false) subject s on node n.
func (m *Matrix) Set(n xmltree.NodeID, s SubjectID, v bool) {
	m.rows[n].SetTo(int(s), v)
}

// SetRow overwrites node n's subject vector with a copy of row.
func (m *Matrix) SetRow(n xmltree.NodeID, row *bitset.Bitset) {
	m.rows[n].CopyFrom(row)
	m.rows[n].Resize(m.subjects)
}

// Accessible reports whether subject s may access node n.
func (m *Matrix) Accessible(n xmltree.NodeID, s SubjectID) bool {
	return m.rows[n].Test(int(s))
}

// AccessibleAny reports whether any subject in the effective set may access
// node n (user + groups semantics).
func (m *Matrix) AccessibleAny(n xmltree.NodeID, effective *bitset.Bitset) bool {
	return m.rows[n].Intersects(effective)
}

// Row returns node n's subject vector. The returned bitset is shared with
// the matrix; callers must not modify it.
func (m *Matrix) Row(n xmltree.NodeID) *bitset.Bitset { return m.rows[n] }

// Equal reports whether two matrices have the same dimensions and bits.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.subjects != o.subjects || len(m.rows) != len(o.rows) {
		return false
	}
	for i := range m.rows {
		if !m.rows[i].EqualBits(o.rows[i]) {
			return false
		}
	}
	return true
}

// SelectSubjects projects the matrix onto the given subjects: column i of
// the result is the column of subjects[i]. Used by the multi-user scaling
// experiments, which build DOLs over random subject subsets.
func (m *Matrix) SelectSubjects(subjects []SubjectID) *Matrix {
	out := NewMatrix(len(m.rows), len(subjects))
	for n, row := range m.rows {
		for i, s := range subjects {
			if row.Test(int(s)) {
				out.rows[n].Set(i)
			}
		}
	}
	return out
}

// Clone returns an independent deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{subjects: m.subjects, rows: make([]*bitset.Bitset, len(m.rows))}
	for i, r := range m.rows {
		c.rows[i] = r.Clone()
	}
	return c
}

// Column extracts subject s's accessibility over all nodes as a bit vector
// indexed by NodeID — the single-subject view used to build per-user CAMs.
func (m *Matrix) Column(s SubjectID) *bitset.Bitset {
	col := bitset.New(len(m.rows))
	for i, r := range m.rows {
		if r.Test(int(s)) {
			col.Set(i)
		}
	}
	return col
}
