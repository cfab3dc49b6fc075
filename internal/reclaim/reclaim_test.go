package reclaim

import (
	"errors"
	"testing"
	"time"

	"bonsai/internal/pagecache"
	"bonsai/internal/physmem"
	"bonsai/internal/rcu"
)

func newTestMachine(t *testing.T, frames, low, high uint64) (*physmem.Allocator, *rcu.Domain, *Reclaimer, *pagecache.Cache) {
	t.Helper()
	alloc := physmem.New(physmem.Config{
		Frames: frames, CPUs: 1, MagazineSize: 4,
		LowWater: low, HighWater: high,
	})
	dom := rcu.NewDomain(rcu.Options{})
	r := New(alloc, dom, Config{BatchPages: 16, Interval: 5 * time.Millisecond})
	c := pagecache.New(1, "test.dat#1", alloc, dom, pagecache.NewRegistry(alloc.NumFrames()))
	r.Register(c)
	t.Cleanup(func() {
		r.Close()
		c.DropAll()
		dom.Close()
		if n := alloc.InUse(); n != 0 {
			t.Errorf("%d frames leaked", n)
		}
	})
	return alloc, dom, r, c
}

// fill populates the cache, letting direct reclaim absorb pool
// exhaustion the way the VM fault path does.
func fill(t *testing.T, r *Reclaimer, c *pagecache.Cache, pages uint64) {
	t.Helper()
	for i := uint64(0); i < pages; i++ {
		for {
			_, err := c.FindOrCreate(0, i*physmem.PageSize, nil)
			if err == nil {
				break
			}
			if !errors.Is(err, physmem.ErrOutOfMemory) {
				t.Fatal(err)
			}
			evicted := r.Stats().DirectEvicted
			r.DirectReclaim()
			if r.Stats().DirectEvicted == evicted && r.alloc.FreeFrames() == 0 {
				t.Fatalf("page %d: pool exhausted and direct reclaim evicted nothing and freed no frame", i)
			}
		}
	}
}

// TestKswapdBalancesToHighWatermark: crossing the low watermark wakes
// the background reclaimer, which evicts until free frames exceed the
// high watermark.
func TestKswapdBalancesToHighWatermark(t *testing.T) {
	alloc, _, r, c := newTestMachine(t, 128, 32, 64)
	fill(t, r, c, 110) // free drops to ~18, well below low=32
	deadline := time.Now().Add(10 * time.Second)
	for alloc.FreeFrames() < int64(alloc.HighWater()) {
		if time.Now().After(deadline) {
			t.Fatalf("kswapd never lifted free frames (%d) above the high watermark (%d); stats %+v",
				alloc.FreeFrames(), alloc.HighWater(), r.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	st := r.Stats()
	if st.KswapdCycles == 0 || st.KswapdEvicted == 0 {
		t.Fatalf("background reclaimer recorded no work: %+v", st)
	}
	if cs := c.Stats(); cs.Evictions == 0 {
		t.Fatalf("cache recorded no evictions: %+v", cs)
	}
}

// TestDirectReclaimMakesProgress: with no watermarks (kswapd idle), a
// failed allocation is answered by direct reclaim evicting clean
// cache pages; with nothing evictable it evicts nothing and frees no
// frame.
func TestDirectReclaimMakesProgress(t *testing.T) {
	alloc, dom, r, c := newTestMachine(t, 64, 0, 0)
	// Saturate the pool through the cache.
	var i uint64
	for ; ; i++ {
		if _, err := c.FindOrCreate(0, i*physmem.PageSize, nil); err != nil {
			break
		}
	}
	if i == 0 {
		t.Fatal("no pages filled")
	}
	r.DirectReclaim()
	st := r.Stats()
	if st.DirectRuns != 1 || st.DirectEvicted == 0 || alloc.FreeFrames() == 0 {
		t.Fatalf("direct reclaim with %d clean resident pages left %d frames free; stats %+v", i, alloc.FreeFrames(), st)
	}
	if _, err := c.FindOrCreate(0, i*physmem.PageSize, nil); err != nil {
		t.Fatalf("fill after direct reclaim: %v", err)
	}
	// Genuinely nothing to reclaim: empty the cache, settle the pool,
	// then pin every frame with raw (anonymous-style) allocations that
	// no scan can evict. Only then may DirectReclaim come back empty —
	// with free frames or resident cache pages it always frees some.
	c.DropAll()
	dom.Synchronize()
	var pinned []physmem.Frame
	for {
		f, err := alloc.Alloc(0)
		if err != nil {
			break
		}
		pinned = append(pinned, f)
	}
	if len(pinned) == 0 {
		t.Fatal("nothing to pin")
	}
	evicted := r.Stats().DirectEvicted
	r.DirectReclaim()
	if got := r.Stats().DirectEvicted - evicted; got != 0 || alloc.FreeFrames() != 0 {
		t.Fatalf("direct reclaim evicted %d pages and left %d frames free with an empty cache and a fully pinned pool",
			got, alloc.FreeFrames())
	}
	for _, f := range pinned {
		alloc.Free(0, f)
	}
}

// TestDirectReclaimWaitsOutTheBacklog: with nothing evictable and most
// of the pool queued behind a grace period on a domain that runs
// callbacks only when asked, direct reclaim's scan must still end with
// a grace period before it returns, so the caller's retry
// finds the queued frames free. A few free frames are not enough for a caller
// that needs more: reporting them as such, without the wait, sent a
// fork needing more than the free frames through every retry of its
// budget while its frames sat in the queue.
func TestDirectReclaimWaitsOutTheBacklog(t *testing.T) {
	alloc := physmem.New(physmem.Config{Frames: 64, CPUs: 1, MagazineSize: 4})
	dom := rcu.NewDomain(rcu.Options{BatchSize: -1})
	r := New(alloc, dom, Config{BatchPages: 16})
	defer dom.Close()
	defer r.Close()
	var backlog []physmem.Frame
	for range 60 {
		f, err := alloc.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		backlog = append(backlog, f)
	}
	dom.DeferOn(0, len(backlog), func() { alloc.FreeBatch(backlog) })
	free := alloc.FreeFrames()
	r.DirectReclaim()
	if got := alloc.FreeFrames(); got < free+int64(len(backlog)) {
		t.Fatalf("%d frames free after direct reclaim, %d before it with %d queued: the backlog is still queued",
			got, free, len(backlog))
	}
}
