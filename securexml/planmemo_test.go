package securexml

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// The plan memo never serves one state's plan to another: the same two
// queries — a value predicate answered from the value index, and a
// descendant join whose candidates the semi-join reduces — asked around an
// insert of a person carrying the literal, its delete, an ACL toggle and a
// Vacuum, on the current state and on snapshots pinned along the way, each
// see the state they run against, whichever state filled the memo last.
func TestPlanMemoFollowsItsSnapshot(t *testing.T) {
	s := snapStore(t, snapFixtureXML(t, 4000), StoreOptions{PageSize: 512})
	defer s.Close()
	ctx := context.Background()

	emails, err := s.Query("u", "read", "/site/people/person/emailaddress")
	if err != nil || len(emails) < 2 {
		t.Fatalf("%d email addresses, err %v", len(emails), err)
	}
	literal := emails[len(emails)/2].Value
	qval := fmt.Sprintf("/site/people/person[emailaddress='%s']/name", literal)
	// Not every person has an address; the descendant predicate keeps the
	// query on scans, whose semi-join rejects the others.
	const qjoin = "//person[//city]"
	type counts struct{ val, join int }
	ask := func(what string, sp *Snapshot) counts {
		t.Helper()
		var c counts
		for i, q := range []string{qval, qjoin} {
			for rep := 0; rep < 2; rep++ { // the second time on a warm memo
				ms, err := s.QueryCtx(ctx, "u", "read", q, QueryOptions{Snapshot: sp})
				if err != nil {
					t.Fatalf("%s: %s: %v", what, q, err)
				}
				n := []*int{&c.val, &c.join}[i]
				if rep == 1 && *n != len(ms) {
					t.Fatalf("%s: %s: %d answers, then %d", what, q, *n, len(ms))
				}
				*n = len(ms)
			}
		}
		return c
	}
	// expect asks the current state, then every pinned snapshot again: what
	// the memo holds now was built for another state than theirs.
	type pinned struct {
		sp   *Snapshot
		want counts
	}
	var pins []pinned
	expect := func(what string, want counts) {
		t.Helper()
		if got := ask(what, nil); got != want {
			t.Fatalf("%s: current state answers %+v, want %+v", what, got, want)
		}
		for i, p := range pins {
			if got := ask(what, p.sp); got != p.want {
				t.Fatalf("%s: snapshot %d answers %+v, want %+v", what, i, got, p.want)
			}
		}
		sp, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, pinned{sp, want})
	}
	defer func() {
		for _, p := range pins {
			p.sp.Close()
		}
	}()

	base := ask("sealed", nil)
	if base.val != 1 || base.join < 2 {
		t.Fatalf("sealed state answers %+v; fixture broken", base)
	}
	expect("sealed", base)

	people := firstNode(t, s, "/site/people")
	if err := s.InsertXML(people, InvalidNode, "<person><name>probe</name><emailaddress>"+literal+"</emailaddress><address><city>probe</city></address></person>"); err != nil {
		t.Fatal(err)
	}
	expect("after insert", counts{base.val + 1, base.join + 1})

	if err := s.Delete(people + 1); err != nil {
		t.Fatal(err)
	}
	expect("after delete", base)

	names, err := s.Query("u", "read", qval)
	if err != nil || len(names) != 1 {
		t.Fatal(names, err)
	}
	if err := s.SetAccess("staff", "read", names[0].Node, false, false); err != nil {
		t.Fatal(err)
	}
	expect("after revoke", counts{0, base.join})

	if err := s.SetAccess("staff", "read", names[0].Node, true, false); err != nil {
		t.Fatal(err)
	}
	expect("after grant", base)

	if err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}
	expect("after vacuum", base)

	m := s.MetricsSnapshot()
	if m.Get("query_candidates_rejected_join") == 0 || m.Get("plan_memo_bytes") == 0 {
		t.Errorf("query_candidates_rejected_join = %d, plan_memo_bytes = %d; want both positive",
			m.Get("query_candidates_rejected_join"), m.Get("plan_memo_bytes"))
	}
}

// Sixteen readers share one memo entry while a writer's ACL commits replace
// it under them: every answer is one of the two committed states'. Half the
// readers ask under pruned semantics, whose first query on a memo entry
// builds its guards. Run with -race.
func TestPlanMemoSharedUnderCommits(t *testing.T) {
	const q = "//listitem//keyword"
	s := snapStore(t, snapFixtureXML(t, 1600), StoreOptions{PageSize: 512, PoolPages: 256})
	defer s.Close()
	ctx := context.Background()

	full, err := s.Query("u", "read", q)
	if err != nil || len(full) < 2 {
		t.Fatalf("%d answers, err %v", len(full), err)
	}
	pruned, err := s.QueryCtx(ctx, "u", "read", q, QueryOptions{Pruned: true})
	if err != nil {
		t.Fatal(err)
	}
	toggle := full[len(full)/2].Node

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for allowed := false; ; allowed = !allowed {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.SetAccess("staff", "read", toggle, allowed, false); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var readers sync.WaitGroup
	for g := 0; g < 16; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			opts, want := QueryOptions{Pruned: g%2 == 1}, len(full)
			if opts.Pruned {
				want = len(pruned)
			}
			for r := 0; r < 25; r++ {
				ms, err := s.QueryCtx(ctx, "u", "read", q, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if n := len(ms); n != want && n != want-1 {
					t.Errorf("%d answers (pruned %v); the committed states have %d and %d", n, opts.Pruned, want, want-1)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
