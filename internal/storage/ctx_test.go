package storage

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// GetCtx must refuse a cancelled context before pinning anything, so a
// cancelled query can never leak a pinned frame.
func TestGetCtxCancelled(t *testing.T) {
	p := NewMemPager(64)
	bp := NewBufferPool(p, 4)
	f, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	if err := bp.Unpin(id, false); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bp.GetCtx(ctx, id); !errors.Is(err, context.Canceled) {
		t.Fatalf("GetCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	if got := bp.Pinned(); got != 0 {
		t.Fatalf("Pinned = %d after refused GetCtx, want 0", got)
	}

	// A live context behaves exactly like Get.
	fr, err := bp.GetCtx(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if fr.ID() != id {
		t.Fatalf("GetCtx returned frame %v, want %v", fr.ID(), id)
	}
	if got := bp.Pinned(); got != 1 {
		t.Fatalf("Pinned = %d with one frame held, want 1", got)
	}
	if err := bp.Unpin(id, false); err != nil {
		t.Fatal(err)
	}
	if got := bp.Pinned(); got != 0 {
		t.Fatalf("Pinned = %d after Unpin, want 0", got)
	}
}

// waitForPinWaits blocks until n admissions have registered as waiting for
// an unpin — the event the back-pressure tests synchronize on.
func waitForPinWaits(t *testing.T, bp *BufferPool, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		bp.mu.Lock()
		waiting := bp.pinWaits.Load() >= n && bp.waiters > 0
		bp.mu.Unlock()
		if waiting {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pin waits = %d, want %d", bp.pinWaits.Load(), n)
		}
		runtime.Gosched()
	}
}

// A miss on a pool whose every frame is pinned waits for an Unpin instead of
// failing, and a cancelled wait returns ctx's error holding no pin.
func TestBufferPoolWaitsForUnpin(t *testing.T) {
	bp := NewBufferPool(stressPager(t, 64, 3), 2)
	for id := PageID(0); id < 2; id++ {
		if _, err := bp.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	type got struct {
		f   *Frame
		err error
	}
	get := func(ctx context.Context) chan got {
		ch := make(chan got, 1)
		go func() {
			f, err := bp.GetCtx(ctx, 2)
			ch <- got{f, err}
		}()
		return ch
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := get(ctx)
	waitForPinWaits(t, bp, 1)
	before := bp.Stats()
	cancel()
	if g := <-cancelled; !errors.Is(g.err, context.Canceled) {
		t.Fatalf("cancelled wait = %v, want context.Canceled", g.err)
	}
	if got := bp.Pinned(); got != 2 {
		t.Fatalf("Pinned = %d after a cancelled wait, want the 2 held pins", got)
	}
	if st := bp.Stats(); st != before {
		t.Fatalf("a cancelled wait moved the counters: %+v -> %+v", before, st)
	}

	blocked := get(context.Background())
	waitForPinWaits(t, bp, 2)
	select {
	case g := <-blocked:
		t.Fatalf("GetCtx returned (%v, %v) with every frame pinned", g.f, g.err)
	default:
	}
	if err := bp.Unpin(0, false); err != nil {
		t.Fatal(err)
	}
	g := <-blocked
	if g.err != nil {
		t.Fatalf("GetCtx after unpin: %v", g.err)
	}
	if g.f.ID() != 2 || g.f.Data[0] != 2 {
		t.Fatalf("frame %d byte %d, want page 2", g.f.ID(), g.f.Data[0])
	}
	if st := bp.Stats(); st.Gets != st.Hits+st.Misses {
		t.Fatalf("Gets (%d) != Hits (%d) + Misses (%d)", st.Gets, st.Hits, st.Misses)
	}
	if got := bp.Pinned(); got != 2 {
		t.Fatalf("Pinned = %d, want 2", got)
	}
}
