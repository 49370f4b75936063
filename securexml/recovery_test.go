package securexml

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dolxml/internal/storage"
	"dolxml/internal/xmlmodel"
)

// This file holds the crash configurations of the facade harness. Each
// restarts an update from the same store directory bytes with a crash
// injected at a point of its commit — a log append or page write failing
// clean, torn or losing the log's unsynced tail, a log or data sync failing
// clean or losing it — reopens the directory (WAL recovery and the full
// consistency check run inside Open) and holds what answers to the model
// state the commit protocol demands.

// crashKinds are the eight update kinds the fault matrix crashes, each
// with the least its commit must cost — data writes, data syncs, log
// appends, log syncs — so the matrix keeps as many crash points per kind
// as the hand-built updates it replaced had. Subject and membership
// updates write no page, so their flush syncs the log alone: the data
// file has nothing to make durable, and no sync of it can crash.
var crashKinds = []struct {
	name    string
	kind    xmlmodel.Kind
	subtree bool
	least   commitOps
}{
	{"set-node-access", xmlmodel.SetAccess, false, commitOps{1, 1, 5, 2}},
	{"set-subtree-access", xmlmodel.SetAccess, true, commitOps{1, 1, 5, 2}},
	{"insert", xmlmodel.Insert, false, commitOps{2, 1, 6, 2}},
	{"delete", xmlmodel.Delete, false, commitOps{1, 1, 5, 2}},
	{"move", xmlmodel.Move, false, commitOps{3, 1, 7, 2}},
	{"add-user", xmlmodel.AddUserLike, false, commitOps{0, 0, 4, 2}},
	{"add-member", xmlmodel.AddMember, false, commitOps{0, 0, 4, 2}},
	{"vacuum", xmlmodel.Vacuum, false, commitOps{2, 1, 6, 2}},
}

// covers reports whether every count of c reaches least's.
func (c commitOps) covers(least commitOps) bool {
	return c.writes >= least.writes && c.dataSyncs >= least.dataSyncs &&
		c.appends >= least.appends && c.logSyncs >= least.logSyncs
}

// drawUpdate draws an update of the kind, whole-subtree when subtree is
// set, that changes md — a vacuum changes nothing — and returns it with the
// model after it.
func drawUpdate(rng *rand.Rand, md *xmlmodel.Model, kind xmlmodel.Kind, subtree bool) (xmlmodel.Operation, *xmlmodel.Model) {
	for {
		post := md.Clone()
		if op := xmlmodel.Op(rng, post, kind); op.Subtree == subtree && (kind == xmlmodel.Vacuum || !post.Equal(md)) {
			return op, post
		}
	}
}

// crashStore is a file-backed harness store of an XMark document, checked
// on two twigs, closed, and the bytes of its directory.
func crashStore(t *testing.T, seed int64, n int) (*modelStore, *rand.Rand, dirImage) {
	rng := rand.New(rand.NewSource(seed))
	ms := newModelStore(t, rng, n, true, StoreOptions{PageSize: 512, PoolPages: 64}).onDisk()
	ms.twigs = ms.twigs[:min(len(ms.twigs), 2)]
	ms.close()
	return ms, rng, readDir(t, ms.dir)
}

// outcome is what a crash at p must recover to under the commit protocol:
// journal the batch, sync the log (the commit point), apply and sync the
// data pages, append the checkpoint, sync the log. An append that fails
// keeps the commit record out of the log unless it is the checkpoint's,
// the last; a failed commit sync keeps the appends before it unless the
// crash loses what no sync covered. post reports roll-forward, redone the
// batches recovery must redo: none once the checkpoint record is kept.
func outcome(p faultPoint, c commitOps) (post bool, redone int) {
	switch {
	case !p.log:
		return true, 1
	case p.fault.Op == storage.FaultWrite:
		if p.fault.N == c.appends {
			return true, 1
		}
		return false, 0
	case p.fault.N < c.logSyncs:
		if p.lose {
			return false, 0
		}
		return true, 1
	case p.lose:
		return true, 1
	}
	return true, 0
}

// sample keeps the first and last points and about n of the others in
// short mode.
func sample(pts []faultPoint, n int) []faultPoint {
	if !testing.Short() || len(pts) <= n {
		return pts
	}
	var kept []faultPoint
	for i := 0; i < len(pts); i += len(pts) / n {
		kept = append(kept, pts[i])
	}
	return append(kept, pts[len(pts)-1])
}

// Every fault point of each update kind's commit recovers to exactly the
// state the protocol demands — the model before the update or after it —
// having redone exactly the batches it demands; every kind sees both
// outcomes.
func TestRecoveryFaultMatrix(t *testing.T) {
	t.Parallel()
	ms, rng, img := crashStore(t, 7, 500)
	pre := ms.md
	// Access changes leave redundant transitions behind, so a vacuum has
	// work to do.
	for i := 0; i < 3; i++ {
		op, post := drawUpdate(rng, pre, xmlmodel.SetAccess, i == 0)
		ms.probe("setup", img, post, op)
		img, pre = readDir(t, ms.dir), post
	}
	for _, k := range crashKinds {
		t.Run(k.name, func(t *testing.T) {
			ms.t = t
			op, post := drawUpdate(rng, pre, k.kind, k.subtree)
			c := ms.probe(k.name, img, post, op)
			for tries := 1; !c.covers(k.least); tries++ {
				if tries == 20 {
					t.Fatalf("%s: no drawn update costs at least %+v (last %+v)", k.name, k.least, c)
				}
				op, post = drawUpdate(rng, pre, k.kind, k.subtree)
				c = ms.probe(k.name, img, post, op)
			}
			pts := sample(c.points(), 12)
			t.Logf("%s: %d log appends, %d log syncs, %d data writes, %d data syncs -> %d crash points",
				k.name, c.appends, c.logSyncs, c.writes, c.dataSyncs, len(pts))
			sawPre, sawPost := false, false
			for _, p := range pts {
				what := fmt.Sprintf("%s at %s", k.name, p)
				ms.crashAt(what, img, p, func(s *Store) (int, error) { return ms.applyArmed(s, post, op, p) })
				ms.s = ms.open(ms.dir)
				wantPost, redone := outcome(p, c)
				want, other, name := pre, post, "before"
				if wantPost {
					want, other, name = post, pre, "after"
				}
				if err := ms.diff(want); err != nil {
					if ms.diff(other) == nil {
						t.Fatalf("%s: recovered to the other state; the protocol demands the model %s the update: %v", what, name, err)
					}
					t.Fatalf("%s: recovered to neither state: %v", what, err)
				}
				if ri := ms.s.Recovery(); ri.Redone != redone {
					t.Fatalf("%s: redone = %d, want %d (%+v)", what, ri.Redone, redone, ri)
				}
				sawPost, sawPre = sawPost || wantPost, sawPre || !wantPost
				if err := ms.s.Close(); err != nil {
					t.Fatalf("%s: close after recovery: %v", what, err)
				}
			}
			if !sawPre || !sawPost {
				t.Fatalf("%s: the matrix did not see both outcomes (pre=%v post=%v)", k.name, sawPre, sawPost)
			}
		})
	}
}

// A crash after the commit record is durable and before the metadata
// sidecar and the checkpoint land: reopening redoes the batch and rewrites
// store.json, so codes the update added resolve after recovery.
func TestRecoveryMetaSidecar(t *testing.T) {
	ms, rng, img := crashStore(t, 9, 300)
	op, post := drawUpdate(rng, ms.md, xmlmodel.SetAccess, true)
	// The first data write: nothing is applied, and store.json still holds
	// the image before the update.
	p := faultPoint{fault: storage.Fault{Op: storage.FaultWrite, N: 1}}
	ms.crashAt(p.String(), img, p, func(s *Store) (int, error) { return ms.applyArmed(s, post, op, p) })
	before, err := os.ReadFile(filepath.Join(ms.dir, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	ms.s = ms.open(ms.dir)
	defer ms.s.Close()
	if ri := ms.s.Recovery(); ri.Redone != 1 || !ri.MetaApplied {
		t.Fatalf("recovery info = %+v, want one redone batch with metadata", ri)
	}
	if after, err := os.ReadFile(filepath.Join(ms.dir, metaFile)); err != nil || bytes.Equal(before, after) {
		t.Fatalf("recovery did not rewrite the metadata sidecar (%v)", err)
	}
	if err := ms.diff(post); err != nil {
		t.Fatal(err)
	}
}

// Three async commits are sealed while flushes are held and released as
// one group flush with a fault armed at every point of it. Reopened, the
// store answers as the model after one of the four prefixes of the group —
// never a torn interior batch — that holds every commit whose Wait
// returned nil; the waiters resolve nil exactly when the group's commit
// sync succeeded. The sweep sees every prefix, a torn append recovers as
// its clean variant does, and later clean appends never recover shorter
// prefixes.
func TestRecoveryGroupFlushPrefix(t *testing.T) {
	t.Parallel()
	ms, rng, img := crashStore(t, 8, 800)
	prefix := []*xmlmodel.Model{ms.md}
	var ops []xmlmodel.Operation
	for len(ops) < 3 {
		op, next := drawUpdate(rng, prefix[len(prefix)-1], xmlmodel.SetAccess, false)
		if !prefix[0].Equal(next) && (len(prefix) < 2 || !prefix[1].Equal(next)) {
			ops, prefix = append(ops, op), append(prefix, next)
		}
	}
	seal := func(s *Store) []*Commit {
		s.wp.HoldFlushes()
		var cs []*Commit
		for j, op := range ops {
			c, err := s.SetAccessAsync(ms.name(ms.md, op.Subject), harnessMode, NodeID(op.Node), op.Allowed, op.Subtree)
			if err != nil {
				t.Fatalf("seal update %d: %v", j, err)
			}
			cs = append(cs, c)
		}
		return cs
	}

	// A clean group flush, counted.
	img.restore(t, ms.dir)
	ms.s = ms.open(ms.dir)
	cs := seal(ms.s)
	if n := ms.s.wp.PendingBatches(); n != 3 {
		t.Fatalf("pending batches = %d, want 3", n)
	}
	for j, c := range cs {
		select {
		case <-c.Done():
			t.Fatalf("commit %d resolved before any flush", j)
		default:
		}
	}
	ms.arm(faultPoint{})
	if err := ms.s.wp.ReleaseFlushes(); err != nil {
		t.Fatalf("clean group flush: %v", err)
	}
	for j, c := range cs {
		if err := c.Wait(); err != nil {
			t.Fatalf("commit %d after clean flush: %v", j, err)
		}
	}
	c := ms.counted()
	if c.logSyncs != 2 || c.dataSyncs != 1 {
		t.Fatalf("a group of 3 cost %d log syncs and %d data syncs, want 2 and 1", c.logSyncs, c.dataSyncs)
	}
	t.Logf("group flush: %d log appends, %d log syncs, %d data writes, %d data syncs", c.appends, c.logSyncs, c.writes, c.dataSyncs)
	if least := (commitOps{writes: 2, dataSyncs: 1, appends: 13, logSyncs: 2}); !c.covers(least) {
		t.Fatalf("the group flush cost %+v, less than the %+v its crash points need", c, least)
	}
	if err := ms.diff(prefix[3]); err != nil {
		t.Fatalf("the grouped commits: %v", err)
	}
	if err := ms.s.Close(); err != nil {
		t.Fatal(err)
	}

	seen := [4]bool{}
	cleanPrefix := map[int]int{} // log append N -> recovered prefix (clean variant)
	lastAppendPrefix := -1
	for _, p := range sample(c.points(), 16) {
		what := fmt.Sprintf("at %s", p)
		acked := ms.crashAt(what, img, p, func(s *Store) (int, error) {
			cs := seal(s)
			ms.arm(p)
			err := s.wp.ReleaseFlushes()
			// The waiters resolve nil at the commit sync, so faults past it —
			// the checkpoint append, its sync, anything on the data pager —
			// leave them successful though the flush failed.
			durable := !p.log || p.fault.Op == storage.FaultSync && p.fault.N > 1 || p.fault.Op == storage.FaultWrite && p.fault.N == c.appends
			acked := 0
			for j, c := range cs {
				werr := c.Wait()
				if durable && werr != nil || !durable && !errors.Is(werr, storage.ErrInjected) {
					t.Fatalf("%s: commit %d resolved with %v (durable %v)", what, j, werr, durable)
				}
				if werr == nil {
					acked++
				}
			}
			return acked, err
		})
		ms.s = ms.open(ms.dir)
		got := -1
		for j := range prefix {
			if ms.diff(prefix[j]) == nil {
				got = j
				break
			}
		}
		if got < acked {
			t.Fatalf("%s: recovered prefix %d, but %d commits were acknowledged — a torn interior batch or a lost commit", what, got, acked)
		}
		seen[got] = true
		if ri := ms.s.Recovery(); ri.Redone != got && !(p.log && p.fault.Op == storage.FaultSync && p.fault.N == c.logSyncs && !p.lose) {
			t.Fatalf("%s: recovered prefix %d but redid %d batches (%+v)", what, got, ri.Redone, ri)
		}
		if err := ms.s.Close(); err != nil {
			t.Fatalf("%s: close after recovery: %v", what, err)
		}
		if post, _ := outcome(p, c); post && got != 3 {
			t.Fatalf("%s: recovered prefix %d, the protocol demands the whole group", what, got)
		}
		if p.log && p.fault.Op == storage.FaultWrite && !p.lose {
			if p.fault.Torn {
				if want, ok := cleanPrefix[p.fault.N]; ok && want != got {
					t.Fatalf("torn append #%d recovered prefix %d, the clean variant %d", p.fault.N, got, want)
				}
			} else {
				cleanPrefix[p.fault.N] = got
				if got < lastAppendPrefix {
					t.Fatalf("append #%d recovered prefix %d after a shorter cut gave %d", p.fault.N, got, lastAppendPrefix)
				}
				lastAppendPrefix = got
			}
		}
	}
	if !seen[0] || !seen[3] || !testing.Short() && seen != [4]bool{true, true, true, true} {
		t.Fatalf("the sweep saw only the prefixes %v", seen)
	}
}

// An update rejected before writing anything leaves the store usable and
// unchanged.
func TestRecoveryValidationFailureDoesNotPoison(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ms := newModelStore(t, rng, 200, true, StoreOptions{PageSize: 512, PoolPages: 64}).onDisk()
	defer ms.close()
	if err := ms.s.SetAccess("nobody", harnessMode, 1, false, false); err == nil {
		t.Fatal("unknown subject accepted")
	}
	if err := ms.s.Delete(0); err == nil {
		t.Fatal("root delete accepted")
	}
	if ms.s.Failed() {
		t.Fatal("validation failures poisoned the store")
	}
	ms.check("after the rejected updates")
}
