package storage

import (
	"context"
	"sync"
	"testing"

	"dolxml/internal/obs"
)

// TestPoolStatsConcurrentReaders is the -race regression test for the
// stats migration: Stats() used to copy a mutex-guarded struct, and a
// caller reading it while workers updated the counters was only safe by
// accident of every path honoring bp.mu. Now each field is an obs atomic;
// this test hammers Get/Unpin from many goroutines while other goroutines
// poll Stats and a registry snapshot, and then checks the totals add up.
func TestPoolStatsConcurrentReaders(t *testing.T) {
	pager := NewMemPager(128)
	const pages = 32
	for i := 0; i < pages; i++ {
		if _, err := pager.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(pager, 8)
	reg := obs.NewRegistry()
	if err := bp.RegisterMetrics(reg, "pool"); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const getsPerWorker = 500
	var wg, pollWg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		pollWg.Add(1)
		go func() {
			defer pollWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := bp.Stats()
				if s.Hits+s.Misses > s.Gets {
					t.Errorf("hits+misses %d > gets %d", s.Hits+s.Misses, s.Gets)
					return
				}
				reg.Snapshot()
			}
		}()
	}
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < getsPerWorker; i++ {
				id := PageID((w*getsPerWorker + i) % pages)
				f, err := bp.GetCtx(ctx, id)
				if err != nil {
					t.Error(err)
					return
				}
				if err := bp.Unpin(f.ID(), false); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pollWg.Wait()

	s := bp.Stats()
	if s.Gets != workers*getsPerWorker {
		t.Fatalf("Gets = %d, want %d", s.Gets, workers*getsPerWorker)
	}
	if s.Hits+s.Misses != s.Gets {
		t.Fatalf("hits %d + misses %d != gets %d", s.Hits, s.Misses, s.Gets)
	}
	snap := reg.Snapshot()
	if snap.Counters["pool_gets"] != s.Gets || snap.Counters["pool_hits"] != s.Hits {
		t.Fatalf("registry disagrees with Stats(): %+v vs %+v", snap.Counters, s)
	}
	if snap.Gauges["pool_pinned"] != 0 {
		t.Fatalf("pool_pinned = %d after all unpins", snap.Gauges["pool_pinned"])
	}
	if snap.Gauges["pool_capacity"] != 8 {
		t.Fatalf("pool_capacity = %d", snap.Gauges["pool_capacity"])
	}
}

// TestPoolTracePinAccounting asserts the contract the query-level
// invariant tests build on: one trace pin event per pool Get performed
// under a traced context, with the hit flag matching the pool's own
// hit/miss classification.
func TestPoolTracePinAccounting(t *testing.T) {
	pager := NewMemPager(128)
	for i := 0; i < 4; i++ {
		if _, err := pager.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(pager, 4)
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	before := bp.Stats()
	for pass := 0; pass < 2; pass++ {
		for id := PageID(0); id < 4; id++ {
			f, err := bp.GetCtx(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if err := bp.Unpin(f.ID(), false); err != nil {
				t.Fatal(err)
			}
		}
	}
	d := bp.Stats()
	d.Gets, d.Hits, d.Misses = d.Gets-before.Gets, d.Hits-before.Hits, d.Misses-before.Misses
	if tr.PageReads() != d.Gets {
		t.Fatalf("trace pins %d != pool gets %d", tr.PageReads(), d.Gets)
	}
	hits, misses := 0, 0
	for _, e := range tr.Events() {
		if e.Kind != obs.EvPagePin {
			continue
		}
		if e.Hit {
			hits++
		} else {
			misses++
		}
	}
	if int64(hits) != d.Hits || int64(misses) != d.Misses {
		t.Fatalf("trace hit/miss %d/%d != pool %d/%d", hits, misses, d.Hits, d.Misses)
	}
}
