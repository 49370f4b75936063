package storage

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func pagers(t *testing.T) map[string]Pager {
	t.Helper()
	fp, err := OpenFilePager(filepath.Join(t.TempDir(), "pages.db"), 256)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fp.Close() })
	return map[string]Pager{
		"mem":  NewMemPager(256),
		"file": fp,
	}
}

func TestPagerBasics(t *testing.T) {
	for name, p := range pagers(t) {
		t.Run(name, func(t *testing.T) {
			if p.PageSize() != 256 {
				t.Fatalf("PageSize = %d", p.PageSize())
			}
			if p.NumPages() != 0 {
				t.Fatalf("NumPages = %d, want 0", p.NumPages())
			}
			id, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id != 0 || p.NumPages() != 1 {
				t.Fatalf("first page id=%d num=%d", id, p.NumPages())
			}
			buf := make([]byte, 256)
			if err := p.ReadPage(id, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, make([]byte, 256)) {
				t.Fatal("new page not zeroed")
			}
			for i := range buf {
				buf[i] = byte(i)
			}
			if err := p.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 256)
			if err := p.ReadPage(id, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, buf) {
				t.Fatal("read back mismatch")
			}
			st := p.Stats()
			if st.Reads != 2 || st.Writes != 1 || st.Allocs != 1 {
				t.Fatalf("stats = %v", st)
			}
		})
	}
}

func TestPagerErrors(t *testing.T) {
	for name, p := range pagers(t) {
		t.Run(name, func(t *testing.T) {
			buf := make([]byte, 256)
			if err := p.ReadPage(5, buf); err == nil {
				t.Error("read out of range should fail")
			}
			if err := p.WritePage(5, buf); err == nil {
				t.Error("write out of range should fail")
			}
			id, _ := p.Allocate()
			if err := p.ReadPage(id, make([]byte, 10)); err == nil {
				t.Error("short buffer read should fail")
			}
			if err := p.WritePage(id, make([]byte, 10)); err == nil {
				t.Error("short buffer write should fail")
			}
		})
	}
}

func TestFilePagerPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.db")
	p, err := OpenFilePager(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := p.Allocate()
	data := bytes.Repeat([]byte{0xAB}, 128)
	if err := p.WritePage(id, data); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := OpenFilePager(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.NumPages() != 1 {
		t.Fatalf("NumPages after reopen = %d", p2.NumPages())
	}
	got := make([]byte, 128)
	if err := p2.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across reopen")
	}
}

func TestFilePagerRejectsBadSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "odd.db")
	p, err := OpenFilePager(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	p.Allocate()
	p.Close()
	if _, err := OpenFilePager(path, 100); err == nil {
		t.Fatal("mismatched page size should fail to open")
	}
}

func TestMemPagerClosed(t *testing.T) {
	p := NewMemPager(64)
	p.Close()
	if _, err := p.Allocate(); err == nil {
		t.Fatal("allocate after close should fail")
	}
}

func TestDefaultPageSize(t *testing.T) {
	if NewMemPager(0).PageSize() != DefaultPageSize {
		t.Fatal("zero page size should default")
	}
}

func TestBufferPoolHitAndMiss(t *testing.T) {
	p := NewMemPager(64)
	bp := NewBufferPool(p, 4)
	f, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	f.Data[0] = 42
	if err := bp.Unpin(f.ID(), true); err != nil {
		t.Fatal(err)
	}

	g, err := bp.Get(f.ID())
	if err != nil {
		t.Fatal(err)
	}
	if g.Data[0] != 42 {
		t.Fatal("buffered data lost")
	}
	bp.Unpin(g.ID(), false)

	st := bp.Stats()
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
	if p.Stats().Reads != 0 {
		t.Fatal("hit should not touch the pager")
	}
}

func TestBufferPoolEvictionWritesDirty(t *testing.T) {
	p := NewMemPager(64)
	bp := NewBufferPool(p, 2)
	var ids []PageID
	for i := 0; i < 3; i++ {
		f, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		f.Data[0] = byte(i + 1)
		ids = append(ids, f.ID())
		if err := bp.Unpin(f.ID(), true); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 2, three pages: page 0 must have been evicted and flushed.
	if bp.Buffered() > 2 {
		t.Fatalf("buffered = %d, want <= 2", bp.Buffered())
	}
	buf := make([]byte, 64)
	if err := p.ReadPage(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatal("evicted dirty page not written back")
	}
	st := bp.Stats()
	if st.Evictions == 0 || st.Flushes == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBufferPoolPinnedNotEvicted(t *testing.T) {
	p := NewMemPager(64)
	bp := NewBufferPool(p, 1)
	f, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	f.Data[0] = 7
	// Pool full with a pinned page: the next allocation waits for the unpin
	// and never takes the pinned frame.
	done := make(chan error, 1)
	go func() {
		_, err := bp.Allocate()
		done <- err
	}()
	waitForPinWaits(t, bp, 1)
	if got := bp.Buffered(); got != 1 || f.Data[0] != 7 {
		t.Fatalf("Buffered = %d, byte = %d while the frame is pinned", got, f.Data[0])
	}
	bp.Unpin(f.ID(), true)
	if err := <-done; err != nil {
		t.Fatalf("allocation after unpin: %v", err)
	}
	buf := make([]byte, 64)
	if err := p.ReadPage(f.ID(), buf); err != nil || buf[0] != 7 {
		t.Fatalf("dirty page not written back before eviction: %v, byte %d", err, buf[0])
	}
}

func TestBufferPoolUnpinErrors(t *testing.T) {
	bp := NewBufferPool(NewMemPager(64), 2)
	if err := bp.Unpin(0, false); err == nil {
		t.Fatal("unpin unbuffered should fail")
	}
	f, _ := bp.Allocate()
	bp.Unpin(f.ID(), false)
	if err := bp.Unpin(f.ID(), false); err == nil {
		t.Fatal("double unpin should fail")
	}
}

func TestBufferPoolFlushAll(t *testing.T) {
	p := NewMemPager(64)
	bp := NewBufferPool(p, 4)
	f, _ := bp.Allocate()
	f.Data[5] = 99
	bp.Unpin(f.ID(), true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	p.ReadPage(f.ID(), buf)
	if buf[5] != 99 {
		t.Fatal("FlushAll did not persist dirty page")
	}
}

func TestBufferPoolDropAll(t *testing.T) {
	p := NewMemPager(64)
	bp := NewBufferPool(p, 4)
	f, _ := bp.Allocate()
	f.Data[1] = 7
	bp.Unpin(f.ID(), true)
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	if bp.Buffered() != 0 {
		t.Fatal("DropAll left frames")
	}
	// Data must have been flushed before dropping.
	buf := make([]byte, 64)
	p.ReadPage(f.ID(), buf)
	if buf[1] != 7 {
		t.Fatal("DropAll lost dirty data")
	}
	// Re-read counts as a miss and physical read.
	before := p.Stats().Reads
	g, err := bp.Get(f.ID())
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(g.ID(), false)
	if p.Stats().Reads != before+1 {
		t.Fatal("cold read should hit the pager")
	}
}

func TestBufferPoolDropAllPinned(t *testing.T) {
	bp := NewBufferPool(NewMemPager(64), 4)
	bp.Allocate() // stays pinned
	if err := bp.DropAll(); err == nil {
		t.Fatal("DropAll with pinned frame should fail")
	}
}

func TestPoolStatsHitRatioAndSub(t *testing.T) {
	var s PoolStats
	if s.HitRatio() != 0 {
		t.Fatal("empty HitRatio should be 0")
	}
	a := PoolStats{Gets: 10, Hits: 5, Misses: 5}
	b := PoolStats{Gets: 4, Hits: 2, Misses: 2}
	d := a.Sub(b)
	if d.Gets != 6 || d.Hits != 3 {
		t.Fatalf("Sub = %+v", d)
	}
	if a.HitRatio() != 0.5 {
		t.Fatalf("HitRatio = %v", a.HitRatio())
	}
}

func TestIOStatsSubString(t *testing.T) {
	a := IOStats{Reads: 5, Writes: 3, Allocs: 1}
	d := a.Sub(IOStats{Reads: 2})
	if d.Reads != 3 || d.Writes != 3 {
		t.Fatalf("Sub = %+v", d)
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}

// Property: under random workloads the buffer pool is transparent — reads
// through the pool always observe the most recent write through the pool.
func TestBufferPoolTransparency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewMemPager(32)
		bp := NewBufferPool(p, 3)
		const numPages = 8
		shadow := make(map[PageID]byte)
		for i := 0; i < numPages; i++ {
			fr, err := bp.Allocate()
			if err != nil {
				return false
			}
			shadow[fr.ID()] = 0
			bp.Unpin(fr.ID(), false)
		}
		for step := 0; step < 200; step++ {
			id := PageID(rng.Intn(numPages))
			fr, err := bp.Get(id)
			if err != nil {
				return false
			}
			if fr.Data[0] != shadow[id] {
				return false
			}
			if rng.Intn(2) == 0 {
				v := byte(rng.Intn(256))
				fr.Data[0] = v
				shadow[id] = v
				bp.Unpin(id, true)
			} else {
				bp.Unpin(id, false)
			}
		}
		if err := bp.FlushAll(); err != nil {
			return false
		}
		buf := make([]byte, 32)
		for id, v := range shadow {
			if err := p.ReadPage(id, buf); err != nil {
				return false
			}
			if buf[0] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBufferPoolGetHit(b *testing.B) {
	bp := NewBufferPool(NewMemPager(4096), 16)
	f, _ := bp.Allocate()
	bp.Unpin(f.ID(), false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := bp.Get(f.ID())
		if err != nil {
			b.Fatal(err)
		}
		bp.Unpin(fr.ID(), false)
	}
}

func BenchmarkBufferPoolChurn(b *testing.B) {
	bp := NewBufferPool(NewMemPager(4096), 4)
	var ids []PageID
	for i := 0; i < 32; i++ {
		f, _ := bp.Allocate()
		ids = append(ids, f.ID())
		bp.Unpin(f.ID(), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		f, err := bp.Get(id)
		if err != nil {
			b.Fatal(err)
		}
		bp.Unpin(f.ID(), false)
	}
}
