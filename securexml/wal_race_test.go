package securexml

import (
	"context"
	"strings"
	"sync"
	"testing"

	"dolxml/internal/xmark"
)

// Readers racing subtree-access updates on a write-ahead-logged,
// file-backed store must never observe a torn region: the writer keeps
// toggling one subject's access to an entire multi-page subtree, and every
// concurrent answer for a query confined to that subtree has to be either
// the full pre-toggle set or empty — a partial answer would mean a reader
// saw some of the subtree's pages rewritten and others not. Run with
// -race to exercise the store lock and the WAL pager's internal locking.
func TestConcurrentReadersDuringWALUpdates(t *testing.T) {
	dir := t.TempDir()
	doc := xmark.Generate(xmark.Scaled(11, 400))
	var xb strings.Builder
	if err := doc.WriteXML(&xb); err != nil {
		t.Fatal(err)
	}
	s, err := NewBuilder().
		LoadXMLString(xb.String()).
		AddGroup("staff").
		AddUser("u").
		AddMember("staff", "u").
		Grant("staff", "read", "/site").
		Seal(StoreOptions{Path: dir + "/pages.db", PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}

	// The toggled subtree and a query answered entirely inside it.
	regions := firstNode(t, s, "/site/regions")
	const q = "/site/regions//item"
	full, err := s.QueryCtx(context.Background(), "u", "read", q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 {
		t.Fatalf("need a multi-node answer inside the toggled subtree, got %d", len(full))
	}
	fullSet := map[NodeID]bool{}
	for _, m := range full {
		fullSet[m.Node] = true
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	check := func(ms []Match) error {
		if len(ms) != 0 && len(ms) != len(full) {
			t.Errorf("torn answer: %d of %d matches visible", len(ms), len(full))
		}
		for _, m := range ms {
			if !fullSet[m.Node] {
				t.Errorf("answer node %d not in the full set", m.Node)
			}
		}
		return nil
	}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				ms, err := s.QueryCtx(context.Background(), "u", "read", q, QueryOptions{})
				if err != nil {
					errs <- err
					return
				}
				check(ms)
				ms, err = s.QueryCtx(context.Background(), "u", "read", q, QueryOptions{Pruned: true})
				if err != nil {
					errs <- err
					return
				}
				check(ms)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if err := s.SetAccess("staff", "read", regions, i%2 == 1, true); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Failed() {
		t.Fatal("store poisoned by a healthy update sequence")
	}
}
