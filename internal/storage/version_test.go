package storage

import (
	"sync"
	"testing"
	"time"
)

// pin pins the current version as a reader does: TryPin, and load the
// current version again when a publish retired the one loaded.
func pin(vt *VersionTable) *Version {
	for {
		if v := vt.Current(); v.TryPin() {
			return v
		}
	}
}

func TestVersionTablePublishRetiresUnpinned(t *testing.T) {
	vt := NewVersionTable()
	if got := vt.LiveVersions(); got != 1 {
		t.Fatalf("fresh table: LiveVersions = %d, want 1", got)
	}
	v2 := vt.Publish([]PageID{7, 8})
	if v2.Seq() != 2 {
		t.Fatalf("Seq = %d, want 2", v2.Seq())
	}
	// No readers pinned version 1, so it retires at publish and the freed
	// pages become reusable immediately.
	if got := vt.LiveVersions(); got != 1 {
		t.Fatalf("after publish: LiveVersions = %d, want 1", got)
	}
	got := vt.Harvest()
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("Harvest = %v, want [7 8]", got)
	}
	if vt.Harvest() != nil {
		t.Fatalf("second Harvest should be empty")
	}
}

func TestVersionTablePinDefersReuse(t *testing.T) {
	vt := NewVersionTable()
	v1 := pin(vt)
	if v1.Seq() != 1 {
		t.Fatalf("pinned Seq = %d, want 1", v1.Seq())
	}
	vt.Publish([]PageID{3})
	if got := vt.LiveVersions(); got != 2 {
		t.Fatalf("LiveVersions with pinned reader = %d, want 2", got)
	}
	// Page 3 was freed by version 2's commit; version 1's reader may still
	// need it, so it must stay quarantined.
	if got := vt.Harvest(); got != nil {
		t.Fatalf("Harvest while v1 pinned = %v, want nil", got)
	}
	if vt.OldestPinnedAge(time.Now().Add(time.Second)) <= 0 {
		t.Fatalf("OldestPinnedAge should be positive while v1 pinned")
	}
	v1.Unpin()
	if got := vt.LiveVersions(); got != 1 {
		t.Fatalf("after unpin: LiveVersions = %d, want 1", got)
	}
	if got := vt.Harvest(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Harvest after unpin = %v, want [3]", got)
	}
	if vt.OldestPinnedAge(time.Now()) != 0 {
		t.Fatalf("OldestPinnedAge should be 0 with only the current version live")
	}
}

func TestVersionTableQuarantineOrdering(t *testing.T) {
	vt := NewVersionTable()
	r1 := pin(vt) // pins seq 1
	vt.Publish([]PageID{10})
	r2 := pin(vt) // pins seq 2
	vt.Publish([]PageID{20})
	// minLive is 1: nothing reusable.
	if got := vt.Harvest(); got != nil {
		t.Fatalf("Harvest = %v, want nil", got)
	}
	r1.Unpin()
	// minLive is now 2: page 10 (freed at seq 2) is safe, page 20 (freed at
	// seq 3) still waits on r2.
	if got := vt.Harvest(); len(got) != 1 || got[0] != 10 {
		t.Fatalf("Harvest after r1 unpin = %v, want [10]", got)
	}
	r2.Unpin()
	if got := vt.Harvest(); len(got) != 1 || got[0] != 20 {
		t.Fatalf("Harvest after r2 unpin = %v, want [20]", got)
	}
	if got := vt.LiveVersions(); got != 1 {
		t.Fatalf("LiveVersions = %d, want 1", got)
	}
}

func TestVersionTryPinRetiredFails(t *testing.T) {
	vt := NewVersionTable()
	v1 := vt.Current()
	vt.Publish(nil) // retires v1 (no reader refs)
	if v1.TryPin() {
		t.Fatalf("TryPin on retired version should fail")
	}
	if vt.Current().TryPin() != true {
		t.Fatalf("TryPin on current version should succeed")
	}
}

func TestVersionTableConcurrentPinUnpin(t *testing.T) {
	vt := NewVersionTable()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := pin(vt)
				_ = v.Seq()
				v.Unpin()
			}
		}()
	}
	var harvested []PageID
	for i := 0; i < 200; i++ {
		vt.Publish([]PageID{PageID(i)})
		harvested = append(harvested, vt.Harvest()...)
	}
	close(stop)
	wg.Wait()
	if got := vt.LiveVersions(); got != 1 {
		t.Fatalf("LiveVersions after drain = %d, want 1", got)
	}
	// With every reader gone, nothing stays quarantined: each page the
	// publishes freed comes out of Harvest exactly once.
	vt.Publish(nil)
	seen := make(map[PageID]bool, 200)
	for _, p := range append(harvested, vt.Harvest()...) {
		if seen[p] {
			t.Fatalf("page %d harvested twice", p)
		}
		seen[p] = true
	}
	if len(seen) != 200 || len(vt.pending) != 0 {
		t.Fatalf("%d of 200 pages harvested, %d still pending", len(seen), len(vt.pending))
	}
}
