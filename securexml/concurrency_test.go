package securexml

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// A sealed Store must serve the same query to many goroutines at once and
// give each of them the same answer (run under -race in CI).
func TestConcurrentQueries(t *testing.T) {
	s := hospitalStore(t, StoreOptions{PageSize: 256})
	defer s.Close()

	type q struct{ user, mode, expr string }
	queries := []q{
		{"dave", "read", "//patient"},
		{"dave", "read", "//billing/amount"},
		{"betty", "read", "//billing/amount"},
		{"alice", "read", "//patient/name"},
	}
	want := make([][]Match, len(queries))
	for i, qu := range queries {
		var err error
		want[i], err = s.QueryCtx(context.Background(), qu.user, qu.mode, qu.expr, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 16
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(queries)
				got, err := s.QueryCtx(context.Background(), queries[i].user, queries[i].mode, queries[i].expr, QueryOptions{})
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: %s as %s = %v, want %v",
						g, queries[i].expr, queries[i].user, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Queries racing with both secure semantics and an unrestricted reader
// must all stay consistent on one shared store.
func TestConcurrentMixedSemantics(t *testing.T) {
	s := hospitalStore(t, StoreOptions{})
	defer s.Close()

	wantCho, err := s.QueryCtx(context.Background(), "dave", "read", "//patient", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantGB, err := s.QueryCtx(context.Background(), "dave", "read", "//patient", QueryOptions{Pruned: true})
	if err != nil {
		t.Fatal(err)
	}
	wantAll, err := s.QueryUnrestricted("//patient")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 15; r++ {
				switch g % 3 {
				case 0:
					got, err := s.QueryCtx(context.Background(), "dave", "read", "//patient", QueryOptions{})
					if err != nil || !reflect.DeepEqual(got, wantCho) {
						t.Errorf("bindings query diverged: %v %v", got, err)
						return
					}
				case 1:
					got, err := s.QueryCtx(context.Background(), "dave", "read", "//patient", QueryOptions{Pruned: true})
					if err != nil || !reflect.DeepEqual(got, wantGB) {
						t.Errorf("pruned query diverged: %v %v", got, err)
						return
					}
				default:
					got, err := s.QueryUnrestricted("//patient")
					if err != nil || !reflect.DeepEqual(got, wantAll) {
						t.Errorf("unrestricted query diverged: %v %v", got, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
