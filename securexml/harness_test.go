package securexml

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"dolxml/internal/acl"
	"dolxml/internal/query"
	"dolxml/internal/storage"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// This file is the facade's differential harness: a Store and the model it
// is held to run the same sequence of operations — the eight update kinds,
// Vacuum, snapshot pins and releases, Save followed by Open, crashes and
// registry evictions — and after each one the store holds the model's
// subjects, access matrix, tags and values, decides access on a sample of
// nodes as the model does, and answers every twig, served and on the
// paper's engine, through QueryCtx, exactly as the model does; every
// pinned snapshot still answers the model state of its pin. The model
// reads the sealed store's matrix once and evolves on its own from then on.
// A crash or an eviction is one more operation: the store that comes back
// must answer as a model state the operation allows.

const harnessMode = "read"

// modelStore is a store under test beside its model and the snapshots
// pinned with the model's pins.
type modelStore struct {
	t    *testing.T
	s    *Store
	opts StoreOptions
	md   *xmlmodel.Model
	// base names the sealed store's subjects; a subject added later is
	// s<i>, or g<i> for a group.
	base []string
	pins []*Snapshot
	// twigs are the queries checked.
	twigs []string
	// checks counts the checks, narrowed those of a twig and user in which
	// access control removed some but not all of the answers.
	checks, narrowed int
	// repeatable counts the checks of a pin whose answers the updates
	// since have changed.
	repeatable int
	// dir holds a file-backed store, opened with the fault wrappers fp and
	// ff on its page file and its log.
	dir string
	fp  *storage.FaultPager
	ff  *storage.FaultFile
	// evict hands the store to a registry to evict and returns the store
	// the tenant answers with afterwards (the eviction configurations set
	// it).
	evict func(what string) *Store
	// renumber rebuilds the live store's path summary before each
	// operation, numbering its classes afresh (the renumbering
	// configuration sets it).
	renumber bool
	// hidden caches a model's document as each user and semantics binds
	// it, wants the model's answers on those documents, for the state at
	// hand.
	hidden map[hiddenKey]*xmltree.Document
	wants  map[wantKey][]xmltree.NodeID
}

// hiddenKey names a model's document as a user binds it.
type hiddenKey struct {
	md     *xmlmodel.Model
	user   string
	pruned bool
}

// newModelStore seals a random document of about n nodes — an XMark
// auction document when xmark is set — for groups g0 and g1 with members u0
// and u1: each group reads the root's subtree except what revokes on a
// random child step and a random twig take away. It draws the twigs
// checked, none with a * step (on the hidden document a * step binds a
// hidden node).
func newModelStore(t *testing.T, rng *rand.Rand, n int, xmark bool, opts StoreOptions) *modelStore {
	t.Helper()
	shape := xmlmodel.Mixed
	if xmark {
		shape = xmlmodel.XMark
	}
	var sb strings.Builder
	if err := xmlmodel.Doc(rng, n, shape).WriteXML(&sb); err != nil {
		t.Fatal(err)
	}
	doc := xmltree.MustParseString(sb.String())
	root := "/" + doc.Tag(doc.Root())
	b := NewBuilder().LoadXMLString(sb.String()).
		AddGroup("g0").AddGroup("g1").AddUser("u0").AddUser("u1").
		AddMember("g0", "u0").AddMember("g1", "u1")
	for _, g := range []string{"g0", "g1"} {
		b.Grant(g, harnessMode, root).
			Revoke(g, harnessMode, xmlmodel.Instantiate(rng, doc, "//a/b")).
			Revoke(g, harnessMode, xmlmodel.Twig(rng, doc))
	}
	s, err := b.Seal(opts)
	if err != nil {
		t.Fatal(err)
	}
	ms := watch(t, s, doc, opts)
	for k := 0; len(ms.twigs) < 6 && k < 100; k++ {
		if tw := xmlmodel.Twig(rng, doc); !strings.Contains(tw, "*") && ms.embeddings(tw) <= 2000 {
			ms.twigs = append(ms.twigs, tw)
		}
	}
	if len(ms.twigs) == 0 {
		ms.twigs = []string{root}
	}
	return ms
}

// watch returns the model of a sealed store: doc with the store's access
// matrix under harnessMode, read once, its groups and their members.
func watch(t *testing.T, s *Store, doc *xmltree.Document, opts StoreOptions) *modelStore {
	m, err := s.ss.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	names := s.Subjects()
	bits := make([]acl.SubjectID, len(names))
	for i := range bits {
		bits[i] = harnessBit(s, i)
	}
	ms := &modelStore{t: t, s: s, opts: opts, base: names, md: xmlmodel.New(doc, m.SelectSubjects(bits))}
	dir := s.cur.Load().dir
	groups := dir.Snapshot().IsGroup
	for i := range names {
		id := acl.SubjectID(i)
		ms.md.Group[i] = groups[i]
		for _, g := range dir.EffectiveSubjects(id).Indices() {
			if g != i {
				ms.md.AddMember(g, i)
			}
		}
	}
	return ms
}

// harnessBit is subject i's column under harnessMode in s's matrix.
func harnessBit(s *Store, i int) acl.SubjectID {
	return acl.SubjectID(i*len(s.modes) + s.modeIdx[harnessMode])
}

// name is the store's name of md's subject i.
func (ms *modelStore) name(md *xmlmodel.Model, i int) string {
	switch {
	case i < len(ms.base):
		return ms.base[i]
	case md.Group[i]:
		return fmt.Sprintf("g%d", i)
	}
	return fmt.Sprintf("s%d", i)
}

// users names md's users in order.
func (ms *modelStore) users(md *xmlmodel.Model) []string {
	var out []string
	for i, g := range md.Group {
		if !g {
			out = append(out, ms.name(md, i))
		}
	}
	return out
}

// embeddings counts the twig's embeddings on the paper's engine (the
// query's Result.Matches), or past a deadline returns more than any case
// keeps: nested descendant steps on a deep same-tag chain have millions.
func (ms *modelStore) embeddings(xpath string) int {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	before := ms.s.queryMatches.Load()
	_, err := ms.s.QueryCtx(ctx, "", harnessMode, xpath, QueryOptions{Unrestricted: true, DisablePathSummary: true})
	if errors.Is(err, context.DeadlineExceeded) {
		return math.MaxInt
	} else if err != nil {
		ms.t.Fatal(err)
	}
	return int(ms.s.queryMatches.Load() - before)
}

// step draws an operation of the kinds, applies it to the model and to the
// store, and holds the store to the model.
func (ms *modelStore) step(rng *rand.Rand, what string, kinds ...xmlmodel.Kind) {
	t := ms.t
	t.Helper()
	if ms.renumber {
		ms.s.mu.Lock()
		err := ms.s.ss.Store().RebuildPathSummary()
		ms.s.mu.Unlock()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	op := xmlmodel.Op(rng, ms.md, kinds...)
	what = fmt.Sprintf("%s %s", what, op.Kind)
	var err error
	switch op.Kind {
	case xmlmodel.Pin:
		var sp *Snapshot
		sp, err = ms.s.Snapshot()
		if n := len(ms.pins); err == nil && (sp.Seq() < 1 || n > 0 && sp.Seq() < ms.pins[n-1].Seq()) {
			err = fmt.Errorf("pinned at seq %d, after pins %v", sp.Seq(), ms.pins)
		}
		ms.pins = append(ms.pins, sp)
	case xmlmodel.Release:
		err = ms.release(op.Pin)
	case xmlmodel.Reopen:
		ms.reopen(what)
	case xmlmodel.Crash:
		ms.crash(rng, what, op)
	case xmlmodel.Evict:
		ms.releasePins()
		ms.s = ms.evict(what)
	default:
		err = ms.apply(ms.s, ms.md, op)
	}
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	ms.check(what)
}

// apply applies an update to s; md is the model after it, which names the
// subjects.
func (ms *modelStore) apply(s *Store, md *xmlmodel.Model, op xmlmodel.Operation) error {
	name := func(i int) string { return ms.name(md, i) }
	switch op.Kind {
	case xmlmodel.SetAccess:
		return s.SetAccess(name(op.Subject), harnessMode, NodeID(op.Node), op.Allowed, op.Subtree)
	case xmlmodel.AddUser:
		return s.AddUser(name(op.Subject))
	case xmlmodel.AddUserLike:
		return s.AddUserLike(name(op.Subject), name(op.Other))
	case xmlmodel.AddGroup:
		return s.AddGroup(name(op.Subject))
	case xmlmodel.AddMember:
		return s.AddMember(name(op.Subject), name(op.Other))
	case xmlmodel.Insert:
		var sb strings.Builder
		if err := op.Frag.WriteXML(&sb); err != nil {
			return err
		}
		return s.InsertXML(NodeID(op.Parent), NodeID(op.After), sb.String())
	case xmlmodel.Delete:
		return s.Delete(NodeID(op.Node))
	case xmlmodel.Move:
		return s.Move(NodeID(op.Node), NodeID(op.Parent), NodeID(op.After))
	case xmlmodel.Vacuum:
		return s.Vacuum()
	}
	return fmt.Errorf("%s is not an update", op.Kind)
}

// release closes pin p twice — Close is idempotent — and holds that a
// query on it fails.
func (ms *modelStore) release(p int) error {
	sp := ms.pins[p]
	ms.pins = slices.Delete(ms.pins, p, p+1)
	if err := sp.Close(); err != nil {
		return err
	}
	if err := sp.Close(); err != nil {
		return err
	}
	if _, err := ms.s.QueryCtx(context.Background(), ms.users(ms.md)[0], harnessMode, ms.twigs[0], QueryOptions{Snapshot: sp}); err == nil {
		return errors.New("a query on the released snapshot succeeded")
	}
	return nil
}

// releasePins releases every pin, after which only the current version
// may be live.
func (ms *modelStore) releasePins() {
	for _, sp := range ms.pins {
		if err := sp.Close(); err != nil {
			ms.t.Fatal(err)
		}
	}
	ms.pins, ms.md.Pins = nil, nil
	if live := ms.s.MetricsSnapshot().Get("snapshot_versions_live"); live != 1 {
		ms.t.Fatalf("%d snapshot versions live with no pin", live)
	}
}

// close releases every pin and closes the store.
func (ms *modelStore) close() {
	ms.releasePins()
	if err := ms.s.Close(); err != nil {
		ms.t.Fatal(err)
	}
}

// onDisk moves the store into a directory of its own: file-backed, with
// the write-ahead log, opened with fault wrappers.
func (ms *modelStore) onDisk() *modelStore {
	ms.reopen("on disk")
	return ms
}

// open opens the store in dir with fault wrappers, unarmed, on its page
// file and its log.
func (ms *modelStore) open(dir string) *Store {
	ms.t.Helper()
	opts := ms.opts
	opts.WrapPager = func(p storage.Pager) storage.Pager { ms.fp = storage.NewFaultPager(p); return ms.fp }
	opts.WrapWALFile = func(f storage.File) storage.File { ms.ff = storage.NewFaultFile(f); return ms.ff }
	s, err := Open(dir, opts)
	if err != nil {
		ms.t.Fatalf("open %s: %v", dir, err)
	}
	ms.dir = dir
	return s
}

// saved saves the store into a fresh directory and opens the copy — with
// fault wrappers when it is to replace the store — which must hold the
// store's value refs (inserts, deletes and moves shift and renumber them,
// and the sidecar packs them) and the model's values.
func (ms *modelStore) saved(what string, replace bool) *Store {
	t := ms.t
	t.Helper()
	dir := t.TempDir()
	if err := ms.s.Save(dir); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var s *Store
	if replace {
		s = ms.open(dir)
	} else {
		var err error
		if s, err = Open(dir, ms.opts); err != nil {
			t.Fatalf("%s: reopen: %v", what, err)
		}
	}
	if want, got := ms.s.cur.Load().st.Meta().ValueRefs.All(), s.cur.Load().st.Meta().ValueRefs.All(); !slices.Equal(got, want) {
		t.Fatalf("%s: %d value refs came back as %d others", what, len(want), len(got))
	}
	for n, x := range ms.md.Nodes() {
		if v, err := s.Value(NodeID(n)); err != nil || v != x.Value {
			t.Fatalf("%s: the reopened store holds %q at node %d (%v), the model %q", what, v, n, err, x.Value)
		}
	}
	return s
}

// reopen replaces the store by its saved copy.
func (ms *modelStore) reopen(what string) {
	s := ms.saved(what, true)
	ms.close()
	ms.s = s
}

// sameAfterReopen holds a saved copy of the store, reopened, to the model:
// its value refs and values, and every twig's answers, values included, for
// the user check last asked it as.
func (ms *modelStore) sameAfterReopen(what string) {
	live := ms.s
	ms.s = ms.saved(what, false)
	defer func() {
		if err := ms.s.Close(); err != nil {
			ms.t.Fatal(err)
		}
		ms.s = live
	}()
	for i, tw := range ms.twigs {
		user := ms.asker(ms.md, i)
		if _, err := ms.expect(ms.md, tw, user, QueryOptions{}); err != nil {
			ms.t.Fatalf("%s: %s as %q, reopened: %v", what, tw, user, err)
		}
	}
}

// check holds the store to the model (diff) and the pinned snapshots, in
// turn, to the model state of their pins: a pin taken before the model
// changed keeps a second version live.
func (ms *modelStore) check(what string) {
	t := ms.t
	t.Helper()
	ms.checks++
	ms.hidden, ms.wants = map[hiddenKey]*xmltree.Document{}, map[wantKey][]xmltree.NodeID{}
	if err := ms.diff(ms.md); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i, tw := range ms.twigs {
		k := i + ms.checks
		if p := k % (len(ms.pins) + 1); p < len(ms.pins) {
			opts := QueryOptions{Pruned: k%2 == 0, Snapshot: ms.pins[p]}
			user := ms.users(ms.md.Pins[p])[k%2]
			if _, err := ms.expect(ms.md.Pins[p], tw, user, opts); err != nil {
				t.Fatalf("%s: %s as %s (%+v) on pin %d: %v", what, tw, user, opts, p, err)
			}
			_, then := ms.want(ms.md.Pins[p], tw, user, opts.Pruned)
			_, now := ms.want(ms.md, tw, user, opts.Pruned)
			if !slices.Equal(then, now) {
				ms.repeatable++
			}
		}
	}
	if len(ms.pins) > 0 && !ms.md.Pins[0].Equal(ms.md) {
		if live := ms.s.MetricsSnapshot().Get("snapshot_versions_live"); live < 2 {
			t.Fatalf("%s: %d snapshot versions live with a pin on an older state", what, live)
		}
	}
	if n := ms.s.PoolPinned(); n != 0 {
		t.Fatalf("%s: %d frames pinned", what, n)
	}
}

// diff holds the store to md and returns the first difference: its
// subjects, their kinds and effective sets; its access matrix; every
// node's tag and value (an unrestricted //*); the access decisions of
// every subject and user on eight nodes, a different eight each check;
// and every twig unrestricted and, under both semantics, for one of u0, u1
// and the last user added, in turn, on one engine, in turn — served or the
// paper's — through QueryCtx.
func (ms *modelStore) diff(md *xmlmodel.Model) error {
	s := ms.s
	names, dir := s.Subjects(), s.cur.Load().dir
	groups := dir.Snapshot().IsGroup
	if len(names) != md.Subjects() {
		return fmt.Errorf("the store has %d subjects, the model %d", len(names), md.Subjects())
	}
	for i, name := range names {
		eff := dir.EffectiveSubjects(acl.SubjectID(i))
		same := name == ms.name(md, i) && groups[i] == md.Group[i]
		for j, in := range md.Effective(i) {
			same = same && eff.Test(j) == in
		}
		if !same {
			return fmt.Errorf("the store's subject %d, %q with the effective set %v, differs from the model's", i, name, eff.Indices())
		}
	}
	m, err := s.ss.Matrix()
	if err != nil {
		return err
	}
	nodes := md.Nodes()
	if m.NumNodes() != len(nodes) {
		return fmt.Errorf("the store has %d nodes, the model %d", m.NumNodes(), len(nodes))
	}
	for n, x := range nodes {
		for i := range names {
			if m.Accessible(xmltree.NodeID(n), harnessBit(s, i)) != x.Row.Test(i) {
				return fmt.Errorf("the store's matrix gives %s %v on node %d, the model %v", names[i], !x.Row.Test(i), n, x.Row.Test(i))
			}
		}
	}
	all, err := s.QueryUnrestricted("//*")
	if err != nil {
		return err
	}
	slices.SortFunc(all, func(a, b Match) int { return int(a.Node) - int(b.Node) })
	for i, x := range nodes {
		if i >= len(all) || all[i] != (Match{NodeID(i), x.Tag, x.Value}) {
			return fmt.Errorf("//* unrestricted answers %d nodes, not node %d as the model holds it, <%s>%q", len(all), i, x.Tag, x.Value)
		}
	}
	users := ms.users(md)
	bindable := make([][]bool, len(users))
	for k := 0; k < 8; k++ {
		n := (ms.checks*13 + k*len(nodes)/8) % len(nodes)
		for i, name := range names {
			if ok, err := s.Accessible(name, harnessMode, NodeID(n)); err != nil || ok != nodes[n].Row.Test(i) {
				return fmt.Errorf("the store decides %s on node %d as %v (%v), the model as %v", name, n, ok, err, nodes[n].Row.Test(i))
			}
		}
		for u, user := range users {
			if bindable[u] == nil {
				bindable[u] = md.Bindable(slices.Index(names, user), false)
			}
			if ok, err := s.UserAccessible(user, harnessMode, NodeID(n)); err != nil || ok != bindable[u][n] {
				return fmt.Errorf("the store decides user %s on node %d as %v (%v), the model as %v", user, n, ok, err, bindable[u][n])
			}
		}
	}
	for i, tw := range ms.twigs {
		total, err := ms.expect(md, tw, "", QueryOptions{Unrestricted: true})
		if err != nil {
			return fmt.Errorf("%s unrestricted: %w", tw, err)
		}
		user := ms.asker(md, i)
		for _, pruned := range []bool{false, true} {
			opts := QueryOptions{Pruned: pruned, DisablePathSummary: (i+ms.checks)%2 == 1}
			n, err := ms.expect(md, tw, user, opts)
			if err != nil {
				return fmt.Errorf("%s as %q (%+v): %w", tw, user, opts, err)
			}
			if 0 < n && n < total {
				ms.narrowed++
			}
		}
	}
	return nil
}

// asker is the user check asks twig i as: u0, u1 and the last user added,
// in turn from check to check.
func (ms *modelStore) asker(md *xmlmodel.Model, i int) string {
	users := ms.users(md)
	askers := []string{users[0], users[1], users[len(users)-1]}
	return askers[(i+ms.checks)%len(askers)]
}

// wantKey names the model's answer to a twig on a hidden document.
type wantKey struct {
	doc   *xmltree.Document
	xpath string
}

// expect runs the query through QueryCtx and holds it to md's answers
// (same). It returns the number of answers.
func (ms *modelStore) expect(md *xmlmodel.Model, xpath, user string, opts QueryOptions) (int, error) {
	got, err := ms.s.QueryCtx(context.Background(), user, harnessMode, xpath, opts)
	if err == nil {
		err = ms.same(md, xpath, user, opts.Pruned, got)
	}
	return len(got), err
}

// want is md's document with every node the user may not bind hidden
// (none for ""), under pruned-subtree semantics when pruned, and the
// twig's answers on it, cached for the state at hand.
func (ms *modelStore) want(md *xmlmodel.Model, xpath, user string, pruned bool) (*xmltree.Document, []xmltree.NodeID) {
	if ms.hidden == nil {
		ms.hidden, ms.wants = map[hiddenKey]*xmltree.Document{}, map[wantKey][]xmltree.NodeID{}
	}
	key := hiddenKey{md, user, pruned}
	doc := ms.hidden[key]
	if doc == nil {
		var bindable []bool
		if user != "" {
			bindable = md.Bindable(ms.subject(md, user), pruned)
		}
		doc = md.Hide(bindable)
		ms.hidden[key] = doc
	}
	wk := wantKey{doc, xpath}
	answers, ok := ms.wants[wk]
	if !ok {
		answers = query.MatchDocument(doc, query.MustParse(xpath))
		ms.wants[wk] = answers
	}
	return doc, answers
}

// same holds the answers, values included, to md's (want).
func (ms *modelStore) same(md *xmlmodel.Model, xpath, user string, pruned bool, got []Match) error {
	doc, want := ms.want(md, xpath, user, pruned)
	answers := make([]xmltree.NodeID, len(got))
	for i, m := range got {
		answers[i] = xmltree.NodeID(m.Node)
		if n := xmltree.NodeID(m.Node); int(n) >= doc.Len() || m.Tag != doc.Tag(n) || m.Value != doc.Value(n) {
			return fmt.Errorf("node %d answered as <%s>%q, not as the model holds it", m.Node, m.Tag, m.Value)
		}
	}
	slices.Sort(answers)
	if !slices.Equal(answers, want) {
		return fmt.Errorf("answers %v, the model %v", answers, want)
	}
	return nil
}

// subject is md's index of the named subject.
func (ms *modelStore) subject(md *xmlmodel.Model, name string) int {
	for i := range md.Group {
		if ms.name(md, i) == name {
			return i
		}
	}
	return -1
}

// dirImage is the bytes of a store directory's files.
type dirImage map[string][]byte

func readDir(t testing.TB, dir string) dirImage {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := dirImage{}
	for _, e := range entries {
		if !e.IsDir() {
			if img[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	return img
}

// restore makes dir hold exactly the image's files.
func (img dirImage) restore(t testing.TB, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, keep := img[e.Name()]; !keep {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, b := range img {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// faultPoint is one crash site of a commit: the Nth log append or sync, or
// data write or sync, failing clean, torn, or — lose — losing what no log
// sync covered.
type faultPoint struct {
	log, lose bool
	fault     storage.Fault
}

func (p faultPoint) String() string {
	target, op := "data", "write"
	if p.log {
		target = "log"
	}
	if p.fault.Op == storage.FaultSync {
		op = "sync"
	}
	variant := ""
	if p.fault.Torn {
		variant = " torn"
	} else if p.lose {
		variant = " losing the unsynced tail"
	}
	return fmt.Sprintf("%s %s #%d%s", target, op, p.fault.N, variant)
}

// commitOps counts the physical operations of a commit.
type commitOps struct{ writes, dataSyncs, appends, logSyncs int }

// counted is what the fault wrappers counted since they were last armed.
func (ms *modelStore) counted() commitOps {
	writes, dataSyncs, _ := ms.fp.Counts()
	appends, logSyncs, _ := ms.ff.Counts()
	return commitOps{writes, dataSyncs, appends, logSyncs}
}

// points lists every crash site: each append and data write clean, torn
// and losing the log's unsynced tail, each sync clean and losing it.
func (c commitOps) points() []faultPoint {
	var pts []faultPoint
	add := func(log bool, op storage.FaultOp, n int, write bool) {
		for i := 1; i <= n; i++ {
			f := storage.Fault{Op: op, N: i}
			pts = append(pts, faultPoint{log: log, fault: f})
			if write {
				f.Torn = true
				pts = append(pts, faultPoint{log: log, fault: f})
				f.Torn = false
			}
			pts = append(pts, faultPoint{log: log, lose: true, fault: f})
		}
	}
	add(true, storage.FaultWrite, c.appends, true)
	add(true, storage.FaultSync, c.logSyncs, false)
	add(false, storage.FaultWrite, c.writes, true)
	add(false, storage.FaultSync, c.dataSyncs, false)
	return pts
}

// arm resets both fault wrappers' counters and arms p.
func (ms *modelStore) arm(p faultPoint) {
	ms.fp.Arm(storage.Fault{})
	ms.ff.Arm(storage.Fault{})
	if p.log {
		ms.ff.Arm(p.fault)
	} else {
		ms.fp.Arm(p.fault)
	}
}

// probe applies u, with md the model after it, to the store in the image
// cleanly; the store must answer as md. It returns what u's commit cost.
func (ms *modelStore) probe(what string, img dirImage, md *xmlmodel.Model, u xmlmodel.Operation) commitOps {
	t := ms.t
	t.Helper()
	img.restore(t, ms.dir)
	ms.s = ms.open(ms.dir)
	ms.arm(faultPoint{})
	if err := ms.apply(ms.s, md, u); err != nil {
		t.Fatalf("%s, clean: %v", what, err)
	}
	if err := ms.s.AwaitDurable(); err != nil {
		t.Fatalf("%s, clean: %v", what, err)
	}
	c := ms.counted()
	if err := ms.diff(md); err != nil {
		t.Fatalf("%s, clean: %v", what, err)
	}
	if err := ms.s.Close(); err != nil {
		t.Fatal(err)
	}
	return c
}

// applyArmed applies u, with md the model after it, to s with p armed and
// reports whether the update's call returned nil; the flush error of an
// update that returned before it was durable surfaces at AwaitDurable.
func (ms *modelStore) applyArmed(s *Store, md *xmlmodel.Model, u xmlmodel.Operation, p faultPoint) (int, error) {
	ms.arm(p)
	if err := ms.apply(s, md, u); err != nil {
		return 0, err
	}
	return 1, s.AwaitDurable()
}

// crashAt restores the image, opens the store and runs the updates of run,
// which arms p. They must fail with the injected fault and poison the
// store, which the crash then closes; a crash that loses the unsynced tail
// cuts the log back once run returns — the tripped log takes no more bytes,
// so that is the cut the trip itself would make. It returns how many of the
// updates run acknowledged.
func (ms *modelStore) crashAt(what string, img dirImage, p faultPoint, run func(s *Store) (int, error)) int {
	t := ms.t
	t.Helper()
	img.restore(t, ms.dir)
	s := ms.open(ms.dir)
	acked, err := run(s)
	if p.lose {
		ms.ff.LoseUnsynced()
	}
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("%s: the update returned %v, not the injected fault", what, err)
	}
	if !s.Failed() {
		t.Fatalf("%s: the store is not poisoned after the discarded batch", what)
	}
	if _, err := s.QueryUnrestricted(ms.twigs[0]); !errors.Is(err, errStoreFailed) {
		t.Fatalf("%s: a query on the poisoned store: %v", what, err)
	}
	_ = s.Close() // faulted handles; errors expected
	return acked
}

// crash closes the store, runs the crash's update once cleanly from the
// directory's bytes to count its commit's fault points, and again from the
// same bytes with one of those points, drawn, armed. Reopened, the store
// must answer as the model after the update, or — unless the update's
// call returned nil — as the model before it; the harness goes on with the
// state that survived.
func (ms *modelStore) crash(rng *rand.Rand, what string, op xmlmodel.Operation) {
	t := ms.t
	t.Helper()
	u := *op.Update
	ms.close()
	img := readDir(t, ms.dir)
	pts := ms.probe(what, img, ms.md, u).points()
	p := pts[rng.Intn(len(pts))]
	what = fmt.Sprintf("%s %s at %s", what, u.Kind, p)
	acked := ms.crashAt(what, img, p, func(s *Store) (int, error) { return ms.applyArmed(s, ms.md, u, p) })
	ms.s = ms.open(ms.dir)
	post := ms.diff(ms.md)
	if post == nil {
		return
	}
	if acked > 0 {
		t.Fatalf("%s: the acknowledged update did not survive: %v", what, post)
	}
	if pre := ms.diff(op.Before); pre != nil {
		t.Fatalf("%s: the store answers as neither the model after the update (%v) nor before it (%v)", what, post, pre)
	}
	ms.md = op.Before
}

// facadeOps are the operations the facade harness draws, access changes
// four times as often as the others.
var facadeOps = append(slices.Clone(xmlmodel.Updates), xmlmodel.SetAccess, xmlmodel.SetAccess, xmlmodel.SetAccess,
	xmlmodel.Pin, xmlmodel.Release, xmlmodel.Reopen)

// The facade against the model over random sequences of every operation:
// an XMark document under Table 1 and twigs that follow it, and recursive
// documents with bushy and deep regions, at three page sizes. After every
// operation a saved copy reopens with the same value refs, values and
// answers.
func TestAnswersMatchNaiveModelAfterRandomUpdates(t *testing.T) {
	t.Parallel()
	narrowed := 0
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ms := newModelStore(t, rng, 600, seed == 0, StoreOptions{PageSize: 256 << uint(seed)})
		if seed == 0 {
			for _, q := range table1 {
				ms.twigs = append(ms.twigs, q.expr)
			}
			ms.twigs = append(ms.twigs, "//item[//keyword]", "//parlist[//listitem]//keyword")
		}
		for op := 0; op < 40; op++ {
			what := fmt.Sprintf("seed %d op %d", seed, op)
			ms.step(rng, what, facadeOps...)
			ms.sameAfterReopen(what)
		}
		narrowed += ms.narrowed
		ms.close()
	}
	t.Logf("access control narrowed %d answer sets", narrowed)
	if narrowed < 50 {
		t.Fatalf("access control narrowed only %d answer sets; the operations lost their bite", narrowed)
	}
}

// The facade against the model while every operation starts from a path
// summary rebuilt on the live store — the fallback RewriteRegion takes when
// a replay cannot line up — so that each commit numbers the classes afresh.
// No query meets class runs numbered for another summary (that is an
// error), Table 1's twigs are still served by index plans, and every
// answer is the model's.
func TestAnswersMatchNaiveModelWhileRenumbering(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	ms := newModelStore(t, rng, 600, true, StoreOptions{PageSize: 512})
	defer ms.close()
	ms.renumber = true
	for _, q := range table1 {
		ms.twigs = append(ms.twigs, q.expr)
	}
	ctx := context.Background()
	renumbered, indexed := 0, 0
	for op := 0; op < 40; op++ {
		before := ms.s.cur.Load().st.Paths().Numbering()
		what := fmt.Sprintf("op %d", op)
		ms.step(rng, what, facadeOps...)
		if ms.s.cur.Load().st.Paths().Numbering() != before {
			renumbered++
		}
		for _, q := range table1 {
			plan, err := ms.s.Explain(ctx, ms.users(ms.md)[0], harnessMode, q.expr, QueryOptions{})
			if err != nil {
				t.Fatalf("%s: %s: %v", what, q.expr, err)
			}
			if ops := plan.p.Operators; len(ops) > 0 {
				if ops[0].Kind != "index" {
					t.Fatalf("%s: %s plans as %s, not as the index", what, q.expr, ops[0].Kind)
				}
				indexed++
			}
		}
	}
	t.Logf("%d of 40 operations published a renumbered summary, %d Table 1 plans were index plans; access control narrowed %d answer sets",
		renumbered, indexed, ms.narrowed)
	if renumbered < 20 || indexed < 40 {
		t.Fatalf("only %d operations published a renumbered summary and %d plans were index plans", renumbered, indexed)
	}
}

// FuzzSecureUpdates runs the facade harness, file-backed with the
// write-ahead log, on an operation sequence decoded from the fuzz bytes,
// crashes included.
func FuzzSecureUpdates(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("insert, move, delete, set access, vacuum, pin, reopen, crash"))
	f.Add(make([]byte, 96))
	// Random bytes long enough for the document and sixteen operations,
	// three of them crashes.
	long := make([]byte, 1<<15)
	rand.New(rand.NewSource(1)).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := rand.New(&byteSource{data: data})
		ms := newModelStore(t, rng, 120, false, StoreOptions{PageSize: 128}).onDisk()
		defer ms.close()
		for op := 0; op < min(len(data)/8, 16); op++ {
			ms.step(rng, fmt.Sprintf("op %d", op), append(facadeOps, xmlmodel.Crash)...)
		}
	})
}

// byteSource is a rand.Source that reads its numbers from data, eight bytes
// each, and zeros past its end.
type byteSource struct {
	data []byte
}

func (b *byteSource) Int63() int64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v <<= 8
		if len(b.data) > 0 {
			v |= uint64(b.data[0])
			b.data = b.data[1:]
		}
	}
	return int64(v >> 1)
}

func (b *byteSource) Seed(int64) {}
