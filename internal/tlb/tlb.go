// Package tlb implements mmu_gather-style batched TLB shootdown: the
// single pipeline every translation-revoking path in the VM system
// (munmap, MADV_DONTNEED, mprotect downgrades, COW breaks, fork's
// write-protect pass, page reclaim) feeds instead of charging the
// shootdown cost and releasing frames one page at a time.
//
// A zap operation creates a Gather, accumulates into it while it walks
// page tables — revoked translations, frames whose references the
// revocations released, detached page-table structures — and then
// calls Flush exactly once per batch. An unsplit
// huge mapping is one run entry (Run): a base frame, an order and the
// span it revoked, counted as its 1<<order pages in the flush counters
// and the shootdown charge, and returned to the allocator as one unit
// by FreeRun rather than as 512 frames. A reclaim
// scan uses one gather for its whole batch the same way: the revoked
// PTEs of every evicted page and then each evicted page's own cache
// reference (Release), so however many pages a scan evicts, it queues
// one RCU callback and returns its frames in one FreeBatch. Flush pays
// one shootdown charge for the whole batch — the CostModel's Base +
// PerCore × Cores, the cost shape internal/sim uses, which is zero on
// every vm machine, plus whatever the tlb.flush-delay failpoint injects
// as a straggling core's acknowledgement; a flush that revoked nothing
// is free — and only then queues the batch's frames for release: a single RCU callback that returns every
// frame to the allocator in one FreeBatch call, one allocator-lock
// acquisition per batch instead of one per page, and each run in one
// FreeRun call. The batch's buffers
// and its callback are recycled once it has run, so a flush allocates
// nothing in the steady state.
//
// The hard invariant the ordering enforces: no frame is reusable while
// any translation to it may be live. A frame recorded in a gather
// becomes allocatable only after (a) the batch's flush has completed —
// in a real kernel, after every core acknowledged the invalidation IPI
// — and (b) an RCU grace period has elapsed, so lock-free page-table
// walkers that loaded the PTE before it was cleared have drained too.
// Every reference to a frame whose translations a batch revokes must
// therefore ride that batch: a reference handed to the RCU domain on its
// own, before the flush, could be dropped by a grace period that ends
// while a stale translation is still cached.
//
// There is one flush per munmap, MADV_DONTNEED, MAP_FIXED replace or
// teardown zap, per mprotect downgrade, per COW break, per fork (one for
// the whole clone, like flush_tlb_mm at the end of dup_mmap) and per
// reclaim scan. Each runs inside its operation's mapping exclusion: the
// paper's long-holder regime, which the global designs serialize on
// mmap_sem and the range-locked designs overlap across disjoint ranges.
// The range-lock tests arm tlb.flush-delay to reproduce it.
// TestTLBGatherFlushInvariant storms the invariant above with
// allocation generations (physmem.Gen) across all four designs.
//
// Ownership: a Gather is owned by the zapping thread and is not safe
// for concurrent use. It may be filled while PTE locks are held
// (recording is an append), but Flush — which spins out the simulated
// IPI wait — must only be called after every PTE lock is released,
// inside whatever mapping-operation exclusion the zap holds; a gather
// is never held across a blocking lock acquisition.
package tlb

import (
	"runtime"
	"sync"
	"time"

	"bonsai/internal/fail"
	"bonsai/internal/physmem"
	"bonsai/internal/rcu"
	"bonsai/internal/stats"
	"bonsai/internal/trace"
)

// failFlushDelay inflates a flush's shootdown charge (armed only by
// fault injection; see internal/fail) — a straggling core sitting on
// the invalidation acknowledgement. The spin runs inside whatever
// exclusion the zapping caller holds, so the stall propagates exactly
// the way a real slow IPI round would.
var failFlushDelay = fail.NewPoint("tlb.flush-delay")

// CostModel parameterizes the per-flush shootdown charge, mirroring
// internal/sim's analytical model: a fixed dispatch cost plus a cost
// per core that may hold a live translation of the flushed range. This
// user-space VM does not track which cores actually cached a
// translation, so Cores is the machine's fault-context count — the
// conservative set a real kernel's mm_cpumask approximates.
type CostModel struct {
	// Base is the fixed IPI-broadcast dispatch cost per flush.
	Base time.Duration
	// PerCore is the additional cost per core that must acknowledge
	// the invalidation.
	PerCore time.Duration
	// Cores is the number of cores charged the PerCore cost.
	Cores int
}

// perFlush returns the wall-clock charge of one flush.
func (c CostModel) perFlush() time.Duration {
	return c.Base + c.PerCore*time.Duration(c.Cores)
}

// Domain ties gathers to one simulated machine: the allocator batched
// frees return to, the RCU domain that delays them past a grace
// period, the cost model, and the machine-wide flush counters.
type Domain struct {
	alloc *physmem.Allocator
	dom   *rcu.Domain
	cost  time.Duration // precomputed per-flush charge

	// One cell per shard hint (masked): concurrent flushes from
	// different shards count on lines of their own.
	flushes stats.Counter
	pages   stats.Counter

	batches sync.Pool // *batch, back from their callbacks
}

// NewDomain returns a gather domain for the machine.
func NewDomain(alloc *physmem.Allocator, dom *rcu.Domain, cost CostModel) *Domain {
	cells := runtime.GOMAXPROCS(0)
	return &Domain{alloc: alloc, dom: dom, cost: cost.perFlush(),
		flushes: stats.NewCounter(cells), pages: stats.NewCounter(cells)}
}

// Gather returns an empty gather. shard is the RCU shard hint the
// batch's deferred release is queued on.
func (d *Domain) Gather(shard int) *Gather {
	g := new(Gather)
	d.Init(g, shard)
	return g
}

// Init makes g, a gather the caller owns (an empty or a flushed one),
// an empty gather of this domain.
func (d *Domain) Init(g *Gather, shard int) {
	*g = Gather{d: d, shard: shard}
}

// InitDeferred is Init for a gather flushed inside an exclusion other
// threads wait on (a mapping operation's range lock, the whole-space
// exclusion): a Flush that takes the RCU shard past its share of the
// batch leaves the grace-period work (rcu.Domain.Poll) to Settle, which
// the owner calls once it has released the exclusion, instead of
// freeing a batch of frames inside it.
func (d *Domain) InitDeferred(g *Gather, shard int) {
	*g = Gather{d: d, shard: shard, deferred: true}
}

// Settle does the grace-period work the deferred gather's flushes left
// owing, if any.
func (g *Gather) Settle() {
	if g.owed {
		g.owed = false
		g.d.dom.Poll(g.shard)
	}
}

// Gather accumulates one zap operation's revocations. See the package
// comment for the ownership and ordering rules.
type Gather struct {
	d     *Domain
	shard int

	// lo, hi span the revoked virtual addresses (see Span).
	lo, hi uint64
	// pages counts revoked or narrowed translations; any non-zero
	// count makes the next Flush pay the shootdown charge.
	pages int

	// b holds what the batch releases after its grace period; nil until
	// the batch has something to release.
	b *batch

	// deferred: Settle pays the grace-period work a Flush owes (owed).
	deferred, owed bool
}

// batch is one flush's deferred release: the frames and runs to return
// once the flush's grace period has elapsed. The domain's RCU callback for it is its bound release method, built
// once; the batch and its buffers return to the domain's pool when it
// has run.
type batch struct {
	d       *Domain
	frames  []physmem.Frame
	runs    []runEntry
	release func()
}

// runEntry is a run entry: an unsplit frame run allocated by AllocRun.
type runEntry struct {
	base  physmem.Frame
	order int
}

func (g *Gather) batch() *batch {
	if g.b == nil {
		b, _ := g.d.batches.Get().(*batch)
		if b == nil {
			b = &batch{d: g.d}
			b.release = b.run
		}
		g.b = b
	}
	return g.b
}

// pages counts the pages the batch releases: its frames, and every page
// of its runs.
func (b *batch) pages() int {
	n := len(b.frames)
	for _, r := range b.runs {
		n += 1 << r.order
	}
	return n
}

// run releases the batch. FreeBatch is done with the frame buffer when
// it returns, so the batch can go straight back to the pool.
func (b *batch) run() {
	b.d.alloc.FreeBatch(b.frames)
	for _, r := range b.runs {
		b.d.alloc.FreeRun(r.base, r.order)
	}
	b.frames = b.frames[:0]
	b.runs = b.runs[:0]
	b.d.batches.Put(b)
}

// Page records a revoked translation at addr that held a reference to
// frame f: the reference is released after the batch's flush and a
// grace period.
func (g *Gather) Page(addr uint64, f physmem.Frame) {
	g.span(addr)
	g.pages++
	b := g.batch()
	b.frames = append(b.frames, f)
}

// Run records the revoked translations of an unsplit run mapped at addr:
// 1<<order pages, each holding a reference to its frame of the run
// AllocRun handed out at base. The pages count like 1<<order Page calls;
// the references are released after the batch's flush and a grace
// period by one FreeRun.
func (g *Gather) Run(addr uint64, base physmem.Frame, order int) {
	n := 1 << order
	g.span(addr)
	g.span(addr + uint64(n-1)*physmem.PageSize)
	g.pages += n
	b := g.batch()
	b.runs = append(b.runs, runEntry{base, order})
}

// Revoke records n translations revoked or narrowed (an mprotect
// write-protect downgrade, fork's COW downgrade pass) with no frame
// reference to release.
func (g *Gather) Revoke(n int) { g.pages += n }

// Release records a frame reference that no revoked translation holds:
// a detached page-table structure (lock-free walkers may still be
// descending through it) or an evicted page-cache page's own reference
// (a lock-free lookup may still be taking a mapping reference on it).
// It is dropped after the batch's flush and grace period, riding the
// same batched free as the page frames.
func (g *Gather) Release(f physmem.Frame) {
	b := g.batch()
	b.frames = append(b.frames, f)
}

// Pages returns the number of revoked translations accumulated since
// the last flush.
func (g *Gather) Pages() int { return g.pages }

// Span returns the virtual-address interval [lo, hi) covering every
// Page- or Run-recorded revocation of the current batch (diagnostics; a
// finer-grained cost model could intersect it with per-core TLB
// contents). Zero-length until the first Page call.
func (g *Gather) Span() (lo, hi uint64) { return g.lo, g.hi }

func (g *Gather) span(addr uint64) {
	if g.hi == 0 || addr < g.lo {
		g.lo = addr
	}
	if addr >= g.hi {
		g.hi = addr + 1
	}
}

// Flush completes the batch: if any translation was revoked it pays
// one shootdown charge — spinning out the simulated IPI round inside
// whatever exclusion the caller holds, exactly where a kernel waits
// for acknowledgements — and then queues the accumulated frames for a
// single batched release past an RCU grace period, counting their pages
// against the shard's share (rcu.Domain.Queue). A gather may be reused
// after Flush; flushing an empty gather is a no-op.
func (g *Gather) Flush() {
	if g.pages > 0 {
		g.d.flushes.Add(g.shard, 1)
		g.d.pages.Add(g.shard, uint64(g.pages))
		spin := g.d.cost + failFlushDelay.FireDelay()
		trace.Emit(g.shard, trace.EvTLBFlush, uint64(g.pages), g.hi-g.lo, uint64(spin))
		spinWait(spin)
		g.pages = 0
		g.lo, g.hi = 0, 0
	}
	if b := g.b; b != nil {
		g.b = nil
		if g.d.dom.Queue(g.shard, b.pages(), b.release) {
			if g.deferred {
				g.owed = true
			} else {
				g.d.dom.Poll(g.shard)
			}
		}
	}
}

// spinWait charges a simulated IPI wait: a calibrated wall-clock spin
// that yields its timeslice (a kernel spinning on IPI acks with
// interrupts enabled), not time.Sleep — the timer wheel's wake-up
// latency is orders of magnitude coarser than microsecond-scale IPI
// costs and would swamp the measurement.
func spinWait(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// Stats is a snapshot of the domain's flush counters.
type Stats struct {
	Flushes      uint64 // batched shootdown flushes paid
	PagesFlushed uint64 // translations revoked across those flushes
}

// PagesPerFlush returns the mean batch size — the factor by which
// batching divided the shootdown count.
func (s Stats) PagesPerFlush() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.PagesFlushed) / float64(s.Flushes)
}

// Stats returns a snapshot of the domain's counters.
func (d *Domain) Stats() Stats {
	return Stats{Flushes: d.flushes.Load(), PagesFlushed: d.pages.Load()}
}

// CountsOn returns the flushes and pages counted in shard's own cells
// (the shared-write audit reads them to prove where a flush counted).
func (d *Domain) CountsOn(shard int) (flushes, pages uint64) {
	return d.flushes.CPU(shard), d.pages.CPU(shard)
}
