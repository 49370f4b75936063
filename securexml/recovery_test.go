package securexml

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dolxml/internal/storage"
	"dolxml/internal/xmark"
)

// This file is the crash-recovery test matrix: for every update kind, a
// clean probe run counts the physical operations of the commit protocol
// (log appends, log syncs, data-page writes, data syncs), then the update
// is re-run from the same pristine on-disk state with a crash injected at
// every one of those points — failed and torn variants alike. After each
// crash the store directory is reopened (which runs WAL recovery and the
// full consistency check) and the Q1–Q6 answers under both secure
// semantics must equal exactly the pre-update or the post-update state,
// with the protocol determining which: anything before the commit record
// is durable rolls back, anything after rolls forward.

// recoveryQueries is the paper's Table 1 workload (see bench.Table1),
// evaluated under both the bindings and the pruned semantics.
var recoveryQueries = []string{
	"/site/regions/africa/item[location][name][quantity]",   // Q1
	"/site/categories/category[name]/description/text/bold", // Q2
	"/site/categories/category/description/text/bold",       // Q3
	"//parlist//parlist",  // Q4
	"//listitem//keyword", // Q5
	"//item//emph",        // Q6
}

// recoveryFixture is a saved XMark store directory plus a byte snapshot of
// its pristine files, so every matrix entry restarts from the same disk.
type recoveryFixture struct {
	dir  string
	snap map[string][]byte
	pre  string // answer fingerprint of the pristine store
}

func buildRecoveryFixture(t *testing.T, targetNodes, pageSize int) *recoveryFixture {
	t.Helper()
	dir := t.TempDir()
	doc := xmark.Generate(xmark.Scaled(7, targetNodes))
	var xb strings.Builder
	if err := doc.WriteXML(&xb); err != nil {
		t.Fatal(err)
	}
	// u's access flows only through staff, so revoking a single staff bit
	// provably changes u's answers; aux is an empty group for membership
	// updates that must not change answers.
	s, err := NewBuilder().
		LoadXMLString(xb.String()).
		AddGroup("staff").
		AddGroup("aux").
		AddUser("u").
		AddMember("staff", "u").
		Grant("staff", "read", "/site").
		Revoke("staff", "read", "//annotation").
		Seal(StoreOptions{Path: filepath.Join(dir, "pages.db"), PageSize: pageSize, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	// One pre-snapshot revoke leaves redundant transitions behind, so the
	// vacuum update kind has real work to do.
	if err := s.SetAccess("staff", "read", firstNode(t, s, "//parlist/listitem"), false, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	pre := answerFingerprint(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return &recoveryFixture{dir: dir, snap: snapshotDir(t, dir), pre: pre}
}

func snapshotDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snap[e.Name()] = b
	}
	return snap
}

func (fx *recoveryFixture) restore(t *testing.T) {
	t.Helper()
	entries, err := os.ReadDir(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, keep := fx.snap[e.Name()]; !keep {
			if err := os.Remove(filepath.Join(fx.dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, b := range fx.snap {
		if err := os.WriteFile(filepath.Join(fx.dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// openWithFaults opens the fixture with fault-injection wrappers on both
// the data pager and the WAL file. The wrappers start unarmed (counting
// only); the Open itself must succeed.
func (fx *recoveryFixture) openWithFaults(t *testing.T) (*Store, *storage.FaultPager, *storage.FaultFile) {
	t.Helper()
	var fp *storage.FaultPager
	var ff *storage.FaultFile
	s, err := Open(fx.dir, StoreOptions{
		PoolPages: 64,
		WrapPager: func(p storage.Pager) storage.Pager {
			fp = storage.NewFaultPager(p)
			return fp
		},
		WrapWALFile: func(f storage.File) storage.File {
			ff = storage.NewFaultFile(f)
			return ff
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, fp, ff
}

// answerFingerprint runs the Q1–Q6 workload under both semantics and
// serializes every answer (node, tag, value), so two fingerprints are
// equal exactly when the two stores answer identically.
func answerFingerprint(t *testing.T, s *Store) string {
	t.Helper()
	return fingerprint(t, s, []string{"u"}, recoveryQueries)
}

// fingerprint is answerFingerprint for any users and queries.
func fingerprint(t *testing.T, s *Store, users, queries []string) string {
	t.Helper()
	var sb strings.Builder
	for _, u := range users {
		for _, q := range queries {
			for _, pruned := range []bool{false, true} {
				var ms []Match
				var err error
				if pruned {
					ms, err = s.QueryPruned(u, "read", q)
				} else {
					ms, err = s.Query(u, "read", q)
				}
				if err != nil {
					t.Fatalf("query %s as %s (pruned=%v): %v", q, u, pruned, err)
				}
				fmt.Fprintf(&sb, "%s %s pruned=%v:", u, q, pruned)
				for _, m := range ms {
					fmt.Fprintf(&sb, " %d=%s=%q", m.Node, m.Tag, m.Value)
				}
				sb.WriteByte('\n')
			}
		}
	}
	return sb.String()
}

// updateKind is one user-visible update, expressed against whatever node
// IDs the pristine store holds (resolved fresh on every open, since the
// fixture is restored between entries).
type updateKind struct {
	name  string
	apply func(t *testing.T, s *Store) error
}

func firstNode(t *testing.T, s *Store, xpath string) NodeID {
	t.Helper()
	ms, err := s.QueryUnrestricted(xpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatalf("no match for %s", xpath)
	}
	return ms[0].Node
}

func recoveryUpdateKinds() []updateKind {
	return []updateKind{
		{"set-node-access", func(t *testing.T, s *Store) error {
			// Revoking staff on a node u currently sees changes Q5.
			return s.SetAccess("staff", "read", firstNode(t, s, "//listitem//keyword"), false, false)
		}},
		{"set-subtree-access", func(t *testing.T, s *Store) error {
			return s.SetAccess("staff", "read", firstNode(t, s, "/site/regions/africa/item"), false, true)
		}},
		{"insert", func(t *testing.T, s *Store) error {
			return s.InsertXML(firstNode(t, s, "/site/regions/africa/item"), InvalidNode,
				"<parlist><listitem><text>recovery probe text</text></listitem></parlist>")
		}},
		{"delete", func(t *testing.T, s *Store) error {
			return s.Delete(firstNode(t, s, "//parlist//parlist"))
		}},
		{"move", func(t *testing.T, s *Store) error {
			return s.Move(firstNode(t, s, "//parlist//parlist"),
				firstNode(t, s, "/site/categories/category/description"), InvalidNode)
		}},
		{"add-user", func(t *testing.T, s *Store) error {
			return s.AddUserLike("w", "u")
		}},
		{"add-member", func(t *testing.T, s *Store) error {
			return s.AddMember("aux", "u")
		}},
		{"vacuum", func(t *testing.T, s *Store) error {
			// The fixture baked in a revoke, so there are redundant
			// transitions to merge.
			return s.Vacuum()
		}},
	}
}

// faultPoint is one crash site in the commit protocol.
type faultPoint struct {
	target string // "log" or "data"
	fault  storage.Fault
}

func (p faultPoint) String() string {
	op := "write"
	if p.fault.Op == storage.FaultSync {
		op = "sync"
	}
	torn := ""
	if p.fault.Torn {
		torn = " torn"
	}
	return fmt.Sprintf("%s %s #%d%s", p.target, op, p.fault.N, torn)
}

func TestRecoveryFaultMatrix(t *testing.T) {
	fx := buildRecoveryFixture(t, 500, 512)
	for _, kind := range recoveryUpdateKinds() {
		kind := kind
		t.Run(kind.name, func(t *testing.T) {
			// Probe: run the update cleanly, counting the operations of
			// its commit, and capture the post-update answers.
			fx.restore(t)
			s, fp, ff := fx.openWithFaults(t)
			fp.Arm(storage.Fault{}) // reset counters accumulated during Open
			ff.Arm(storage.Fault{})
			if err := kind.apply(t, s); err != nil {
				t.Fatalf("clean %s: %v", kind.name, err)
			}
			dataWrites, dataSyncs, _ := fp.Counts()
			logAppends, logSyncs, _ := ff.Counts()
			post := answerFingerprint(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if kind.name == "add-member" && post != fx.pre {
				t.Fatal("add-member changed answers; fixture assumption broken")
			}

			// The log changes what survives a crash, not what an update
			// does: the same update from the same disk with the log
			// disabled leaves the same answers.
			fx.restore(t)
			plain, err := Open(fx.dir, StoreOptions{PoolPages: 64, DisableWAL: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := kind.apply(t, plain); err != nil {
				t.Fatalf("%s without a log: %v", kind.name, err)
			}
			if got := answerFingerprint(t, plain); got != post {
				t.Fatalf("%s: answers differ between the logged and the unlogged store", kind.name)
			}
			if err := plain.Close(); err != nil {
				t.Fatal(err)
			}

			var points []faultPoint
			for i := 1; i <= logAppends; i++ {
				points = append(points,
					faultPoint{"log", storage.Fault{Op: storage.FaultWrite, N: i}},
					faultPoint{"log", storage.Fault{Op: storage.FaultWrite, N: i, Torn: true}})
			}
			for i := 1; i <= logSyncs; i++ {
				points = append(points, faultPoint{"log", storage.Fault{Op: storage.FaultSync, N: i}})
			}
			for i := 1; i <= dataWrites; i++ {
				points = append(points,
					faultPoint{"data", storage.Fault{Op: storage.FaultWrite, N: i}},
					faultPoint{"data", storage.Fault{Op: storage.FaultWrite, N: i, Torn: true}})
			}
			for i := 1; i <= dataSyncs; i++ {
				points = append(points, faultPoint{"data", storage.Fault{Op: storage.FaultSync, N: i}})
			}
			if testing.Short() && len(points) > 12 {
				// Keep the boundary points and sample the interior.
				stride := len(points) / 12
				var kept []faultPoint
				for i := 0; i < len(points); i += stride {
					kept = append(kept, points[i])
				}
				kept = append(kept, points[len(points)-1])
				points = kept
			}
			t.Logf("%s: %d log appends, %d log syncs, %d data writes, %d data syncs -> %d crash points",
				kind.name, logAppends, logSyncs, dataWrites, dataSyncs, len(points))

			sawPre, sawPost := false, false
			for _, pt := range points {
				fx.restore(t)
				s, fp, ff := fx.openWithFaults(t)
				fp.Arm(storage.Fault{})
				ff.Arm(storage.Fault{})
				switch pt.target {
				case "log":
					ff.Arm(pt.fault)
				case "data":
					fp.Arm(pt.fault)
				}
				err := kind.apply(t, s)
				if err == nil {
					t.Fatalf("%s at %s: update succeeded past an armed fault", kind.name, pt)
				}
				if !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("%s at %s: error does not wrap the injection: %v", kind.name, pt, err)
				}
				// The failed commit discarded state the in-memory store had
				// already built against: it must be poisoned.
				if !s.Failed() {
					t.Fatalf("%s at %s: store not poisoned after discarded batch", kind.name, pt)
				}
				if _, err := s.Query("u", "read", "//keyword"); !errors.Is(err, errStoreFailed) {
					t.Fatalf("%s at %s: query on poisoned store: %v", kind.name, pt, err)
				}
				_ = s.Close() // faulted handles; errors expected

				// Reopen "after the crash": recovery plus the consistency
				// check run inside Open.
				s2, err := Open(fx.dir, StoreOptions{PoolPages: 64})
				if err != nil {
					t.Fatalf("%s at %s: reopen: %v", kind.name, pt, err)
				}
				got := answerFingerprint(t, s2)

				// The protocol pins which state survives. A failed or torn
				// append keeps the commit record off the log unless the
				// failing append IS the checkpoint (the last of the batch),
				// so those roll back. Everything at or after the first log
				// sync rolls forward: a failed fsync is an error, but the
				// appends before it already reached the file, so recovery
				// finds a complete commit record.
				wantPost := pt.target == "data" ||
					pt.fault.Op == storage.FaultSync ||
					pt.fault.N == logAppends
				want, name := fx.pre, "pre-update"
				if wantPost {
					want, name = post, "post-update"
				}
				if got != want {
					other := "post-update"
					if wantPost {
						other = "pre-update"
					}
					if (wantPost && got == fx.pre) || (!wantPost && got == post) {
						t.Fatalf("%s at %s: recovered to the %s state, protocol demands %s", kind.name, pt, other, name)
					}
					t.Fatalf("%s at %s: recovered answers match neither pre- nor post-update state", kind.name, pt)
				}
				if wantPost {
					// A crash at the checkpoint sync left a fully
					// checkpointed batch behind — recovery redoes nothing;
					// every other roll-forward redoes exactly this batch.
					wantRedone := 1
					if pt.target == "log" && pt.fault.Op == storage.FaultSync && pt.fault.N == 2 {
						wantRedone = 0
					}
					if ri := s2.Recovery(); ri.Redone != wantRedone {
						t.Fatalf("%s at %s: redone = %d, want %d (%+v)", kind.name, pt, ri.Redone, wantRedone, ri)
					}
					sawPost = true
				} else {
					sawPre = true
				}
				if err := s2.Close(); err != nil {
					t.Fatalf("%s at %s: close after recovery: %v", kind.name, pt, err)
				}
			}
			if !sawPre || !sawPost {
				t.Fatalf("%s: matrix did not exercise both outcomes (pre=%v post=%v)", kind.name, sawPre, sawPost)
			}
			if kind.name == "set-subtree-access" && post == fx.pre {
				t.Fatal("set-subtree-access left answers unchanged; the matrix is not distinguishing states")
			}
		})
	}
}

// TestRecoveryMetaSidecar pins the codebook-staleness half of the design:
// crash after the commit record is durable but before the metadata sidecar
// and checkpoint land. Reopening must redo the batch AND rewrite
// store.json, so codes added by the update resolve after recovery.
func TestRecoveryMetaSidecar(t *testing.T) {
	fx := buildRecoveryFixture(t, 300, 512)
	fx.restore(t)
	s, fp, ff := fx.openWithFaults(t)
	fp.Arm(storage.Fault{})
	ff.Arm(storage.Fault{})
	// Crash on the first data write: the commit record (with its metadata
	// blob) is durable, nothing has been applied, store.json still holds
	// the pre-update image.
	fp.Arm(storage.Fault{Op: storage.FaultWrite, N: 1})
	target := firstNode(t, s, "/site/regions/africa/item")
	if err := s.SetAccess("staff", "read", target, false, true); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("expected injected fault, got %v", err)
	}
	_ = s.Close()

	before, err := os.ReadFile(filepath.Join(fx.dir, "store.json"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(fx.dir, StoreOptions{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ri := s2.Recovery()
	if ri.Redone != 1 || !ri.MetaApplied {
		t.Fatalf("recovery info = %+v, want one redone batch with metadata", ri)
	}
	after, err := os.ReadFile(filepath.Join(fx.dir, "store.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) == string(after) {
		t.Fatal("recovery did not rewrite the metadata sidecar")
	}
	// The revoke must be visible through the recovered store.
	if ok, err := s2.UserAccessible("u", "read", target); err != nil || ok {
		t.Fatalf("revoked subtree root accessible after recovery (ok=%v err=%v)", ok, err)
	}
}

// groupRecoveryTargets resolves three distinct keyword nodes u can
// currently see. Revoking each removes a distinct Q5 answer, so the four
// possible group prefixes (0, 1, 2 or 3 updates applied) have four
// distinct answer fingerprints and recovery outcomes are unambiguous.
func groupRecoveryTargets(t *testing.T, s *Store) [3]NodeID {
	t.Helper()
	kws, err := s.Query("u", "read", "//listitem//keyword")
	if err != nil {
		t.Fatal(err)
	}
	if len(kws) < 3 {
		t.Fatalf("fixture shows u only %d listitem keywords, need at least 3", len(kws))
	}
	return [3]NodeID{kws[0].Node, kws[1].Node, kws[2].Node}
}

// applyGroupUpdate applies the j-th (0-based) group update synchronously.
func applyGroupUpdate(t *testing.T, s *Store, targets [3]NodeID, j int) error {
	t.Helper()
	return s.SetAccess("staff", "read", targets[j], false, false)
}

// TestRecoveryGroupFlushPrefix extends the crash matrix to coalesced
// groups: three async commits are sealed while flushes are held, released
// as ONE group flush with a fault armed at every physical operation of
// that flush, and after reopening the store must answer exactly as one of
// the four group prefixes — never a torn interior batch. The sweep must
// also observe every prefix, and clean/torn variants of the same append
// must recover identically (a torn record and a missing record both keep
// the commit off the log).
func TestRecoveryGroupFlushPrefix(t *testing.T) {
	fx := buildRecoveryFixture(t, 800, 512)

	// Prefix fingerprints by sequential clean replay: prefixFP[j] is the
	// answer state after the first j updates.
	prefixFP := [4]string{fx.pre, "", "", ""}
	for j := 1; j <= 3; j++ {
		fx.restore(t)
		s, err := Open(fx.dir, StoreOptions{PoolPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		targets := groupRecoveryTargets(t, s)
		for i := 0; i < j; i++ {
			if err := applyGroupUpdate(t, s, targets, i); err != nil {
				t.Fatalf("replay update %d: %v", i, err)
			}
		}
		prefixFP[j] = answerFingerprint(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			if prefixFP[a] == prefixFP[b] {
				t.Fatalf("prefixes %d and %d answer identically; the test cannot distinguish them", a, b)
			}
		}
	}

	// sealGroup seals the three updates as async commits while flushes are
	// held, so the subsequent release flushes them as a single group.
	sealGroup := func(t *testing.T, s *Store) [3]*Commit {
		t.Helper()
		targets := groupRecoveryTargets(t, s)
		s.wp.HoldFlushes()
		var cs [3]*Commit
		for j := range cs {
			c, err := s.SetAccessAsync("staff", "read", targets[j], false, false)
			if err != nil {
				t.Fatalf("seal update %d: %v", j, err)
			}
			cs[j] = c
		}
		return cs
	}

	// Probe: clean group flush, counting its physical operations.
	fx.restore(t)
	s, fp, ff := fx.openWithFaults(t)
	cs := sealGroup(t, s)
	if n := s.wp.PendingBatches(); n != 3 {
		t.Fatalf("pending batches = %d, want 3", n)
	}
	for j, c := range cs {
		select {
		case <-c.Done():
			t.Fatalf("commit %d resolved before any flush", j)
		default:
		}
	}
	fp.Arm(storage.Fault{}) // count only the flush itself
	ff.Arm(storage.Fault{})
	if err := s.wp.ReleaseFlushes(); err != nil {
		t.Fatalf("clean group flush: %v", err)
	}
	for j, c := range cs {
		if err := c.Wait(); err != nil {
			t.Fatalf("commit %d after clean flush: %v", j, err)
		}
	}
	dataWrites, dataSyncs, _ := fp.Counts()
	logAppends, logSyncs, _ := ff.Counts()
	if logSyncs != 2 || dataSyncs != 1 {
		t.Fatalf("group of 3 cost %d log syncs and %d data syncs, want 2 and 1", logSyncs, dataSyncs)
	}
	if got := answerFingerprint(t, s); got != prefixFP[3] {
		t.Fatal("grouped commits answer differently from the sequential replay")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("group flush: %d log appends, %d log syncs, %d data writes, %d data syncs",
		logAppends, logSyncs, dataWrites, dataSyncs)

	var points []faultPoint
	for i := 1; i <= logAppends; i++ {
		points = append(points,
			faultPoint{"log", storage.Fault{Op: storage.FaultWrite, N: i}},
			faultPoint{"log", storage.Fault{Op: storage.FaultWrite, N: i, Torn: true}})
	}
	for i := 1; i <= logSyncs; i++ {
		points = append(points, faultPoint{"log", storage.Fault{Op: storage.FaultSync, N: i}})
	}
	for i := 1; i <= dataWrites; i++ {
		points = append(points,
			faultPoint{"data", storage.Fault{Op: storage.FaultWrite, N: i}},
			faultPoint{"data", storage.Fault{Op: storage.FaultWrite, N: i, Torn: true}})
	}
	for i := 1; i <= dataSyncs; i++ {
		points = append(points, faultPoint{"data", storage.Fault{Op: storage.FaultSync, N: i}})
	}
	full := !testing.Short()
	if !full && len(points) > 16 {
		stride := len(points) / 16
		var kept []faultPoint
		for i := 0; i < len(points); i += stride {
			kept = append(kept, points[i])
		}
		kept = append(kept, points[len(points)-1])
		points = kept
	}

	seen := [4]bool{}
	cleanPrefix := map[int]int{} // log append N -> recovered prefix (clean variant)
	lastAppendPrefix := -1
	for _, pt := range points {
		fx.restore(t)
		s, fp, ff := fx.openWithFaults(t)
		cs := sealGroup(t, s)
		switch pt.target {
		case "log":
			ff.Arm(pt.fault)
		case "data":
			fp.Arm(pt.fault)
		}
		// The release and a leftover flusher kick may race for the group;
		// the waiters carry the authoritative outcome either way. Waiters
		// resolve nil at the group's durability point (the first log sync),
		// so faults striking after it — the checkpoint append, the second
		// log sync, anything on the data pager — leave them successful even
		// though the flush failed and poisoned the store.
		durable := pt.target == "data" ||
			(pt.fault.Op == storage.FaultSync && pt.fault.N == 2) ||
			(pt.fault.Op == storage.FaultWrite && pt.fault.N == logAppends)
		_ = s.wp.ReleaseFlushes()
		for j, c := range cs {
			err := c.Wait()
			if durable && err != nil {
				t.Fatalf("at %s: commit %d resolved with %v, want nil (group durable before fault)", pt, j, err)
			}
			if !durable && !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("at %s: commit %d resolved with %v, want injected fault", pt, j, err)
			}
		}
		if !s.Failed() {
			t.Fatalf("at %s: store not poisoned after failed group flush", pt)
		}
		if _, err := s.Query("u", "read", "//keyword"); !errors.Is(err, errStoreFailed) {
			t.Fatalf("at %s: query on poisoned store: %v", pt, err)
		}
		_ = s.Close() // faulted handles; errors expected

		s2, err := Open(fx.dir, StoreOptions{PoolPages: 64})
		if err != nil {
			t.Fatalf("at %s: reopen: %v", pt, err)
		}
		got := answerFingerprint(t, s2)
		prefix := -1
		for j, want := range prefixFP {
			if got == want {
				prefix = j
				break
			}
		}
		if prefix < 0 {
			t.Fatalf("at %s: recovered answers match NO group prefix — torn interior batch", pt)
		}
		seen[prefix] = true
		if ri := s2.Recovery(); ri.Redone != prefix &&
			!(pt.target == "log" && pt.fault.Op == storage.FaultSync && pt.fault.N == 2) {
			t.Fatalf("at %s: recovered prefix %d but redid %d batches (%+v)", pt, prefix, ri.Redone, ri)
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("at %s: close after recovery: %v", pt, err)
		}

		// Everything at or past the first log sync is roll-forward: all
		// three commit records reached the file.
		if pt.target == "data" || pt.fault.Op == storage.FaultSync || pt.fault.N == logAppends {
			if prefix != 3 {
				t.Fatalf("at %s: recovered prefix %d, protocol demands the full group", pt, prefix)
			}
		}
		if pt.target == "log" && pt.fault.Op == storage.FaultWrite {
			if pt.fault.Torn {
				if want, ok := cleanPrefix[pt.fault.N]; ok && want != prefix {
					t.Fatalf("torn append #%d recovered prefix %d, clean variant recovered %d", pt.fault.N, prefix, want)
				}
			} else {
				cleanPrefix[pt.fault.N] = prefix
				if prefix < lastAppendPrefix {
					t.Fatalf("append #%d recovered prefix %d after #%d gave %d: prefixes regressed", pt.fault.N, prefix, pt.fault.N-1, lastAppendPrefix)
				}
				lastAppendPrefix = prefix
			}
		}
	}
	if full {
		for j, ok := range seen {
			if !ok {
				t.Errorf("sweep never recovered to prefix %d (saw %v)", j, seen)
			}
		}
	} else if !seen[0] || !seen[3] {
		t.Fatalf("sweep missed a boundary prefix (saw %v)", seen)
	}
}

// TestRecoveryValidationFailureDoesNotPoison checks the poison boundary:
// an update rejected before writing anything leaves the store usable.
func TestRecoveryValidationFailureDoesNotPoison(t *testing.T) {
	fx := buildRecoveryFixture(t, 200, 512)
	fx.restore(t)
	s, _, _ := fx.openWithFaults(t)
	defer s.Close()
	if err := s.SetAccess("nobody", "read", 1, false, false); err == nil {
		t.Fatal("unknown subject accepted")
	}
	if err := s.Delete(0); err == nil {
		t.Fatal("root delete accepted")
	}
	if s.Failed() {
		t.Fatal("validation failures poisoned the store")
	}
	if got := answerFingerprint(t, s); got != fx.pre {
		t.Fatal("failed validations changed answers")
	}
}
