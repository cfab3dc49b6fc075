package tlb

import (
	"testing"
	"time"

	"bonsai/internal/fail"
	"bonsai/internal/physmem"
	"bonsai/internal/race"
	"bonsai/internal/rcu"
	"bonsai/internal/trace"
)

func newTestDomain(t *testing.T, cost CostModel) (*Domain, *physmem.Allocator, *rcu.Domain) {
	t.Helper()
	alloc := physmem.New(physmem.Config{Frames: 1 << 10, CPUs: 2})
	dom := rcu.NewDomain(rcu.Options{})
	t.Cleanup(dom.Close)
	return NewDomain(alloc, dom, cost), alloc, dom
}

// TestFlushBatchesFrames: one flush releases every gathered frame in a
// batch, only after a grace period, and counts one flush for the whole
// batch.
func TestFlushBatchesFrames(t *testing.T) {
	d, alloc, dom := newTestDomain(t, CostModel{})
	g := d.Gather(0)
	var frames []physmem.Frame
	for i := 0; i < 16; i++ {
		f, err := alloc.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
		g.Page(uint64(i)*4096, f)
	}
	if g.Pages() != 16 {
		t.Fatalf("Pages() = %d, want 16", g.Pages())
	}
	if lo, hi := g.Span(); lo != 0 || hi != 15*4096+1 {
		t.Fatalf("Span() = [%#x, %#x)", lo, hi)
	}
	g.Flush()
	dom.Synchronize()
	for _, f := range frames {
		if alloc.Allocated(f) {
			t.Fatalf("frame %d still allocated after flush + grace period", f)
		}
	}
	if st := d.Stats(); st.Flushes != 1 || st.PagesFlushed != 16 {
		t.Fatalf("stats %+v, want one flush covering 16 pages", st)
	}
	if st := d.Stats(); st.PagesPerFlush() != 16 {
		t.Fatalf("PagesPerFlush = %v, want 16", st.PagesPerFlush())
	}
}

// TestRunEntry: a run entry counts its 1<<order pages in the flush
// counters and the span, and the batch returns the run as the one block
// it was allocated as, with no coalescing.
func TestRunEntry(t *testing.T) {
	d, alloc, dom := newTestDomain(t, CostModel{})
	runs := alloc.FreeRuns(physmem.MaxOrder)
	run, err := alloc.AllocRun(0, physmem.MaxOrder)
	if err != nil {
		t.Fatal(err)
	}
	coalesces := alloc.Stats().BuddyCoalesces
	g := d.Gather(0)
	const addr = 0x40000000
	g.Run(addr, run, physmem.MaxOrder)
	if g.Pages() != 512 {
		t.Fatalf("Pages() = %d, want 512", g.Pages())
	}
	if lo, hi := g.Span(); lo != addr || hi != addr+511*4096+1 {
		t.Fatalf("Span() = [%#x, %#x)", lo, hi)
	}
	g.Flush()
	dom.Synchronize()
	if alloc.InUse() != 0 || alloc.FreeRuns(physmem.MaxOrder) != runs {
		t.Fatalf("InUse %d, order-9 blocks %d after the batch ran; want 0, %d",
			alloc.InUse(), alloc.FreeRuns(physmem.MaxOrder), runs)
	}
	if got := alloc.Stats().BuddyCoalesces - coalesces; got != 0 {
		t.Fatalf("run entry took %d coalesce steps, want 0", got)
	}
	if st := d.Stats(); st.Flushes != 1 || st.PagesFlushed != 512 {
		t.Fatalf("stats %+v, want one flush covering 512 pages", st)
	}
}

// TestFlushEmptyIsFree: flushing a gather with nothing revoked charges
// nothing and counts nothing.
func TestFlushEmptyIsFree(t *testing.T) {
	d, _, _ := newTestDomain(t, CostModel{Base: time.Second})
	g := d.Gather(0)
	start := time.Now()
	g.Flush()
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("empty flush spun for %v", el)
	}
	if st := d.Stats(); st.Flushes != 0 {
		t.Fatalf("empty flush counted: %+v", st)
	}
}

// TestRevokeChargesWithoutFrames: Revoke-only batches (mprotect
// downgrades, fork's COW pass) still pay exactly one flush.
func TestRevokeChargesWithoutFrames(t *testing.T) {
	d, _, _ := newTestDomain(t, CostModel{})
	g := d.Gather(0)
	g.Revoke(37)
	g.Flush()
	if st := d.Stats(); st.Flushes != 1 || st.PagesFlushed != 37 {
		t.Fatalf("stats %+v, want one flush covering 37 revocations", st)
	}
}

// TestGatherReusableAfterFlush: a flushed gather accumulates a fresh
// batch.
func TestGatherReusableAfterFlush(t *testing.T) {
	d, alloc, dom := newTestDomain(t, CostModel{})
	g := d.Gather(0)
	f1, _ := alloc.Alloc(0)
	g.Page(0x1000, f1)
	g.Flush()
	f2, _ := alloc.Alloc(0)
	g.Page(0x2000, f2)
	g.Flush()
	dom.Synchronize()
	if alloc.InUse() != 0 {
		t.Fatalf("%d frames leaked across reuse", alloc.InUse())
	}
	if st := d.Stats(); st.Flushes != 2 || st.PagesFlushed != 2 {
		t.Fatalf("stats %+v, want two one-page flushes", st)
	}
}

// TestCostModelCharge: the flush spin is Base + PerCore×Cores.
func TestCostModelCharge(t *testing.T) {
	d, _, _ := newTestDomain(t, CostModel{Base: 2 * time.Millisecond, PerCore: time.Millisecond, Cores: 3})
	g := d.Gather(0)
	g.Revoke(1)
	start := time.Now()
	g.Flush()
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Fatalf("flush spun %v, want >= 5ms (base 2ms + 3 cores x 1ms)", el)
	}
}

// TestFlushTraceShowsInjectedDelay: a flush stalled by tlb.flush-delay
// reports the stall in its trace event's spin, so a trace of a slow
// acknowledgement shows where the time went.
func TestFlushTraceShowsInjectedDelay(t *testing.T) {
	const delay = 2 * time.Millisecond
	if err := fail.Enable(1, "tlb.flush-delay", fail.Config{OneIn: 1, Delay: delay}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fail.Disable("tlb.flush-delay") })
	tr := trace.Arm(1, 0)
	t.Cleanup(func() { trace.Disarm() })
	d, _, _ := newTestDomain(t, CostModel{})
	g := d.Gather(0)
	g.Revoke(1)
	g.Flush()
	var spins []time.Duration
	for _, ev := range tr.Snapshot().Merged() {
		if ev.Type == trace.EvTLBFlush {
			spins = append(spins, time.Duration(ev.C))
		}
	}
	if len(spins) != 1 || spins[0] < delay {
		t.Fatalf("flush events record spins %v, want one of at least %v", spins, delay)
	}
}

// TestFlushRecyclesBatches: once a batch has been round the domain's
// pool, gathering into a caller-owned Gather and flushing it allocates
// nothing — no gather, no frame slice, no closure — and a batch far
// larger than any before it (one munmap retiring a huge-page arena)
// grows the pooled buffer without losing a frame.
func TestFlushRecyclesBatches(t *testing.T) {
	alloc := physmem.New(physmem.Config{Frames: 1 << 15, CPUs: 1})
	dom := rcu.NewDomain(rcu.Options{BatchSize: -1}) // no poller: nothing else allocates
	defer dom.Close()
	d := NewDomain(alloc, dom, CostModel{})
	var g Gather
	zap := func(pages int) {
		d.Init(&g, 1)
		for i := 0; i < pages; i++ {
			f, err := alloc.Alloc(0)
			if err != nil {
				t.Fatal(err)
			}
			g.Page(uint64(i)*4096, f)
		}
		g.Flush()
		dom.Synchronize()
	}
	zap(4) // builds the one batch this test ever needs
	if avg := testing.AllocsPerRun(200, func() { zap(4) }); avg != 0 && !race.Enabled {
		t.Errorf("a steady-state gather and flush allocates %.1f times, want 0", avg)
	}
	zap(16384)
	zap(4)
	if n := alloc.InUse(); n != 0 {
		t.Fatalf("%d frames lost", n)
	}
	if st := d.Stats(); st.PagesFlushed != 4+201*4+16384+4 {
		t.Fatalf("stats %+v", st)
	}
}
