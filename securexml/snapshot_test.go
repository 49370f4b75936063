package securexml

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dolxml/internal/acl"
	"dolxml/internal/storage"
	"dolxml/internal/xmark"
	"dolxml/internal/xmlmodel"
	"dolxml/internal/xmltree"
)

// This file is the MVCC snapshot-isolation suite: queries pin immutable
// snapshots instead of holding locks, so readers and writers interleave
// freely. The tests assert the two properties that make that safe — every
// reader sees exactly one committed state (no torn updates), and versions
// retire (no page-quarantine leaks) — plus the repeatable-read API and the
// closed TOCTOU window around poisoning updates.

// snapFixtureXML builds a small XMark document string.
func snapFixtureXML(t *testing.T, nodes int) string {
	t.Helper()
	doc := xmark.Generate(xmark.Scaled(11, nodes))
	var sb strings.Builder
	if err := doc.WriteXML(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// snapStore seals the standard subject setup over the given document:
// user u reads through group staff, which can read everything except
// //annotation.
func snapStore(t *testing.T, xml string, opts StoreOptions) *Store {
	t.Helper()
	s, err := NewBuilder().
		LoadXMLString(xml).
		AddGroup("staff").
		AddUser("u").
		AddMember("staff", "u").
		Grant("staff", "read", "/site").
		Revoke("staff", "read", "//annotation").
		Seal(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// answerKey queries as u and returns a state-identifying fingerprint of
// the answers.
func answerKey(t *testing.T, s *Store, xpath string, opts QueryOptions) (string, error) {
	t.Helper()
	ms, err := s.QueryCtx(context.Background(), "u", "read", xpath, opts)
	if err != nil {
		return "", err
	}
	lines := make([]string, len(ms))
	for i, m := range ms {
		lines[i] = fmt.Sprintf("%d=%s=%q", m.Node, m.Tag, m.Value)
	}
	return strings.Join(lines, "\n"), nil
}

func gauge(t *testing.T, s *Store, name string) int64 {
	t.Helper()
	return s.MetricsSnapshot().Get(name)
}

// lastVisibleNode returns the last (highest node ID) match u can read, so
// tests can mutate late in document order — without shifting earlier node
// IDs — at a spot where inserted fragments inherit readable ACLs.
func lastVisibleNode(t *testing.T, s *Store, xpath string) NodeID {
	t.Helper()
	ms, err := s.QueryCtx(context.Background(), "u", "read", xpath, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatalf("no visible match for %s", xpath)
	}
	return ms[len(ms)-1].Node
}

// TestInterleavedSnapshotsAndWriters is the core no-torn-updates property,
// a configuration of the facade harness: readers query, and pin snapshots
// they query again after a commit has landed, while one writer toggles
// u0's group's access to the first keyword u0 reads and another inserts
// and deletes a fragment under the last description u0 reads. Every answer
// must equal the model's in one of the four committed states (toggle
// on/off × fragment present/absent) — a query that observed half an update
// would produce a fifth — and a pin must answer the same after the commit
// as before it. Run with -race; also asserts versions retire once the pins
// drop.
func TestInterleavedSnapshotsAndWriters(t *testing.T) {
	const q = "//listitem//keyword"
	ms := newModelStore(t, rand.New(rand.NewSource(11)), 1600, true, StoreOptions{PageSize: 512, PoolPages: 256})
	defer ms.close()
	s, g0 := ms.s, ms.subject(ms.md, "g0")
	_, keywords := ms.want(ms.md, q, "u0", false)
	_, descs := ms.want(ms.md, "//description", "u0", false)
	toggle, parent := NodeID(keywords[0]), NodeID(descs[len(descs)-1])
	if parent <= toggle {
		t.Fatalf("fixture order broken: parent %d <= toggle %d", parent, toggle)
	}
	const frag = "<parlist><listitem><keyword>snapprobe</keyword></listitem></parlist>"
	fragRoot := parent + 1 // InsertXML with after=InvalidNode prepends
	// The legal states' answers are computed here: the readers only read
	// the harness's caches.
	var legal []*xmlmodel.Model
	distinct := 0
	for _, granted := range []bool{true, false} {
		for _, present := range []bool{false, true} {
			md := ms.md.Clone()
			md.SetAccess(xmltree.NodeID(toggle), g0, granted, false)
			if present {
				fd := xmltree.MustParseString(frag)
				fm := acl.NewMatrix(fd.Len(), md.Subjects())
				for n := 0; n < fd.Len(); n++ {
					fm.SetRow(xmltree.NodeID(n), md.Nodes()[parent].Row)
				}
				md.Insert(xmltree.NodeID(parent), xmltree.InvalidNode, fd, fm)
			}
			_, answers := ms.want(md, q, "u0", false)
			if !slices.ContainsFunc(legal, func(o *xmlmodel.Model) bool { _, a := ms.want(o, q, "u0", false); return slices.Equal(a, answers) }) {
				distinct++
			}
			legal = append(legal, md)
		}
	}
	if distinct < 3 {
		t.Fatalf("fixture too degenerate: only %d distinct legal states", distinct)
	}

	const readers, drainsPer = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, readers+2)
	readersDone := make(chan struct{})
	writer := func(op func(i int) error) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-readersDone:
				return
			default:
			}
			if err := op(i); err != nil {
				errs <- fmt.Errorf("writer op %d: %w", i, err)
				return
			}
		}
	}
	wg.Add(2)
	go writer(func(i int) error { return s.SetAccess("g0", "read", toggle, i%2 == 0, false) })
	go writer(func(int) error {
		if err := s.InsertXML(parent, InvalidNode, frag); err != nil {
			return err
		}
		return s.Delete(fragRoot)
	})
	ctx := context.Background()
	check := func(what string, got []Match) error {
		if !slices.ContainsFunc(legal, func(md *xmlmodel.Model) bool { return ms.same(md, q, "u0", false, got) == nil }) {
			return fmt.Errorf("%s saw a torn state: %v", what, got)
		}
		return nil
	}
	// readOnce queries once unpinned and twice through one pin, the second
	// time after a commit has landed since the pin.
	readOnce := func(r, drain int) error {
		what := fmt.Sprintf("reader %d drain %d", r, drain)
		got, err := s.QueryCtx(ctx, "u0", "read", q, QueryOptions{})
		if err == nil {
			err = check(what, got)
		}
		if err != nil {
			return err
		}
		sp, err := s.Snapshot()
		if err != nil {
			return err
		}
		defer sp.Close()
		before, err := s.QueryCtx(ctx, "u0", "read", q, QueryOptions{Snapshot: sp})
		if err != nil {
			return err
		}
		for deadline := time.Now().Add(10 * time.Second); s.cur.Load().seq == sp.Seq(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: no commit landed after pin %d", what, sp.Seq())
			}
		}
		after, err := s.QueryCtx(ctx, "u0", "read", q, QueryOptions{Snapshot: sp})
		if err != nil {
			return err
		}
		if !slices.Equal(after, before) {
			return fmt.Errorf("%s: pin %d answered %v, then after a commit %v", what, sp.Seq(), before, after)
		}
		return check(what+" through a pin", before)
	}
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for drains := 0; drains < drainsPer; drains++ {
				if err := readOnce(r, drains); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	rg.Wait()
	close(readersDone)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Version-leak check: with every pin dropped and writers quiescent,
	// exactly the current version must be live and its pins settled.
	if live := gauge(t, s, "snapshot_versions_live"); live != 1 {
		t.Errorf("snapshot_versions_live = %d after all pins dropped, want 1", live)
	}
	m := s.MetricsSnapshot()
	if pins, unpins := m.Get("snapshot_pins"), m.Get("snapshot_unpins"); pins != unpins {
		t.Errorf("snapshot pins %d != unpins %d after quiesce", pins, unpins)
	}
}

// Snapshots pinned across updates keep answering the state of their pin,
// keeping an older version live; a released one refuses queries, and once
// none is pinned only the current version is live. Pins carry a commit
// sequence of at least 1, never below an earlier pin's, and some checks
// must hold a pin to answers the updates since have changed.
func TestSnapshotRepeatableRead(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ms := newModelStore(t, rng, 300, true, StoreOptions{PageSize: 512, PoolPages: 256})
	defer ms.close()
	// The drawn twigs answer nothing on this document; two that do.
	ms.twigs = append(ms.twigs, "//listitem//keyword", "//item//text")
	for op := 0; op < 16; op++ {
		ms.step(rng, fmt.Sprintf("op %d", op), xmlmodel.Pin, xmlmodel.Pin, xmlmodel.Release,
			xmlmodel.SetAccess, xmlmodel.Insert, xmlmodel.Delete, xmlmodel.Move)
	}
	t.Logf("%d checks held a pin to answers that have since changed", ms.repeatable)
	if ms.repeatable == 0 {
		t.Fatal("no check held a pin to answers the updates had changed since; the configuration tests no repeatable read")
	}
}

// TestUpdatesDoNotWaitForReaders is the zero reader-induced writer stalls
// acceptance: with a snapshot pinned and queried, a structural update must
// commit promptly instead of blocking until the pin drops (the pre-MVCC
// behavior), and the snapshot must keep answering from its pinned state —
// the model before the update.
func TestUpdatesDoNotWaitForReaders(t *testing.T) {
	const q = "//listitem//keyword"
	ms := newModelStore(t, rand.New(rand.NewSource(13)), 1200, true, StoreOptions{PageSize: 512, PoolPages: 256})
	defer ms.close()
	s := ms.s
	sp, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pinned := func(what string) {
		t.Helper()
		got, err := s.QueryCtx(context.Background(), "u0", "read", q, QueryOptions{Snapshot: sp})
		if err == nil {
			err = ms.same(ms.md, q, "u0", false, got)
		}
		if err != nil {
			t.Fatalf("the snapshot pinned before the update, %s: %v", what, err)
		}
	}
	pinned("before it")

	// The snapshot is pinned. The update must not block on it.
	done := make(chan error, 1)
	go func() {
		done <- s.Delete(firstNode(t, s, "/site/categories/category/description"))
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("update blocked behind a pinned snapshot")
	}
	pinned("after it")
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if live := gauge(t, s, "snapshot_versions_live"); live != 1 {
		t.Errorf("snapshot_versions_live = %d after the snapshot closed, want 1", live)
	}
}

// TestQueryRacesPoisoningUpdate closes the old lockForQuery TOCTOU window:
// queries race an update whose flush dies and poisons the store. Every
// concurrent query must either fail with the poisoned-store error or
// answer as the model before the update or after it — never from
// half-diverged in-memory state.
func TestQueryRacesPoisoningUpdate(t *testing.T) {
	const q = "//listitem//keyword"
	ms, _, _ := crashStore(t, 6, 1200)
	ms.s = ms.open(ms.dir)
	defer ms.s.Close()
	s, pre := ms.s, ms.md
	_, keywords := ms.want(pre, q, "u0", false)
	toggle := keywords[0]
	post := pre.Clone()
	post.SetAccess(toggle, ms.subject(pre, "g0"), false, false)
	ms.want(post, q, "u0", false) // the readers only read the harness's caches

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				got, err := s.QueryCtx(context.Background(), "u0", "read", q, QueryOptions{})
				if err != nil {
					if !errors.Is(err, errStoreFailed) {
						errs <- fmt.Errorf("reader %d: unexpected error %w", r, err)
					}
					continue
				}
				if ms.same(pre, q, "u0", false, got) != nil && ms.same(post, q, "u0", false, got) != nil {
					errs <- fmt.Errorf("reader %d iteration %d saw a torn state: %v", r, i, got)
					return
				}
			}
		}(r)
	}

	// Let the readers spin up, then poison: the next log write dies, so
	// the update's flush fails after its batch sealed.
	time.Sleep(5 * time.Millisecond)
	ms.ff.Arm(storage.Fault{Op: storage.FaultWrite, N: 1})
	if err := s.SetAccess("g0", "read", NodeID(toggle), false, false); err == nil {
		t.Error("poisoning update reported success")
	}
	if !s.Failed() {
		t.Error("store not poisoned after failed flush")
	}
	// New queries must now fail fast with the poisoned-store error.
	if _, err := s.QueryCtx(context.Background(), "u0", "read", q, QueryOptions{}); !errors.Is(err, errStoreFailed) {
		t.Errorf("query on poisoned store: %v, want errStoreFailed", err)
	}
	close(stop)
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSlowPinLog asserts the slow-pin reporting satellite: a pin held past
// SlowPinThreshold produces one serialized report naming the sequence.
func TestSlowPinLog(t *testing.T) {
	var buf bytes.Buffer
	s := snapStore(t, snapFixtureXML(t, 400), StoreOptions{
		PageSize: 512, PoolPages: 128,
		SlowPinThreshold: time.Nanosecond,
		SlowPinLog:       &buf,
	})
	defer s.Close()
	if _, err := s.QueryCtx(context.Background(), "u", "read", "//listitem//keyword", QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	s.slowMu.Lock()
	out := buf.String()
	s.slowMu.Unlock()
	if !strings.Contains(out, "slow snapshot pin") {
		t.Errorf("slow-pin log missing report, got %q", out)
	}
	if !strings.Contains(out, "seq=") {
		t.Errorf("slow-pin report missing seq, got %q", out)
	}
}
