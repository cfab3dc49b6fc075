// Package reclaim implements memory-pressure page reclaim for one
// simulated machine: the layer that turns the frame pool from a hard
// ceiling into a working set. Under pressure, cache pages are evicted
// and refaulted on demand:
//
//  1. Watermarks (physmem): free frames below the low watermark publish
//     a wake-up token, and a kswapd-style goroutine evicts until free
//     frames exceed the high one. An allocation that fails outright first
//     steals frames stranded in other CPUs' magazines, then surfaces as
//     the VM's typed, retryable ErrFrameShortage: the fault or fork
//     unwinds completely and calls DirectReclaim before it retries, so
//     faults never see out-of-memory while reclaimable pages exist.
//  2. Clock scan (pagecache.Cache.ReclaimScan): a second-chance sweep
//     from each cache's clock hand. The accessed bit, set by lock-free
//     lookups, buys a page one pass; direct reclaim's final pass ignores
//     it, which is its progress guarantee. Tenants over their limits pay
//     first, and ReclaimAccount scans one tenant's pages alone, each with
//     its own clock hand.
//  3. Rmap unmap: each page's reverse map records every PTE mapping it,
//     generation-stamped, and the scan revokes each under the owner's PTE
//     lock (EvictPTE) into the scan's one TLB gather. A refault landing
//     between the scan's phases aborts that page's eviction.
//  4. Writeback: a dirty page is copied to the cache's backing store
//     first, and a later fill of the offset restores it.
//  5. Batched free: the evicted page is unlinked like pagecache.Drop, and
//     its cache reference rides the gather behind the revoked PTEs'. One
//     flush, one RCU callback and one FreeBatch per scan return them all,
//     so no evicted frame is reusable before its shootdown is paid
//     (TestEvictionReleasesAfterScanFlush). A fill of an evicted offset
//     counts a refault; TestRefaultEvictAllocs counts the path's
//     allocations, and TestMemoryPressureAllDesigns drives a working set
//     twice the pool through it under every policy.
//
// Locking: the scan lock serializes eviction scans machine-wide
// (kswapd or a direct reclaimer — never both). It is only ever
// acquired with no page-table or cache lock held; under it the scan
// takes PTE locks (revocation phase) and per-file cache mutexes
// (bookkeeping phases) in separate, non-overlapping phases, so it
// slots into the VM lock hierarchy above both without inverting the
// fault path's PTE-lock-then-cache-mutex order. The scan holds an RCU
// read-side critical section across the revocation phase (page-table
// walks are lock-free) and drops it before flushing the domain, so the
// blocking grace period it pays to make evicted frames allocatable can
// always complete.
package reclaim

import (
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/contention"
	"bonsai/internal/fail"
	"bonsai/internal/pagecache"
	"bonsai/internal/physmem"
	"bonsai/internal/rcu"
	"bonsai/internal/stats"
	"bonsai/internal/tlb"
	"bonsai/internal/trace"
)

// failStall makes a direct-reclaim run report zero progress (armed
// only by fault injection; see internal/fail) — the scan found nothing
// evictable, every cache cold and pinned — which is exactly the
// verdict that drives the VM layer's no-progress absorption, its retry
// budget, and ultimately the typed ErrNoMemory unwind.
var failStall = fail.NewPoint("reclaim.stall")

// Config tunes a Reclaimer.
type Config struct {
	// BatchPages bounds the eviction candidates per scan pass. Zero
	// means 64.
	BatchPages int
	// Interval is the background reclaimer's pacing: while balancing
	// toward the high watermark it runs one gentle clock pass per
	// interval (the gap is what lets faulters re-set their pages'
	// accessed bits between passes — second chance needs wall-clock
	// distance), and when idle it doubles as a periodic pressure
	// re-check under the channel wake-up. Zero means 20ms.
	Interval time.Duration
	// TLB is the machine's shootdown-gather domain: each reclaim batch
	// accumulates its revocations into one gather and flushes it once —
	// a single shootdown charge per batch, the same pipeline the VM
	// layer's zap paths use. Nil means a zero-cost private domain
	// (tests without a VM layer).
	TLB *tlb.Domain
}

// Reclaimer drives page reclaim for one machine (one physmem pool, one
// RCU domain, any number of page caches).
type Reclaimer struct {
	alloc *physmem.Allocator
	dom   *rcu.Domain
	cfg   Config

	// scanMu is the reclaim scan lock (see the package comment). rd,
	// handCache, g and scanCaches are only touched under it.
	scanMu    sync.Mutex
	rd        *rcu.Reader
	handCache int // round-robin cursor over the cache list

	// g is the scans' batch gather and scanCaches their snapshot of the
	// cache rotation, both reused from scan to scan: a scan allocates
	// nothing of its own, however many pages it evicts.
	g          tlb.Gather
	scanCaches []*pagecache.Cache

	cachesMu sync.Mutex
	caches   []*pagecache.Cache

	// accounts are the machine's registered tenant charge accounts.
	// kswapd and direct reclaim scan over-limit accounts' pages first,
	// so a tenant paying for its own thrash shields its neighbors.
	accountsMu sync.Mutex
	accounts   []*physmem.Account

	stop chan struct{}
	wg   sync.WaitGroup

	kswapdCycles   atomic.Uint64
	kswapdEvicted  atomic.Uint64
	directRuns     atomic.Uint64
	directEvicted  atomic.Uint64
	accountRuns    atomic.Uint64
	accountEvicted atomic.Uint64
	writebacks     atomic.Uint64
	scanPasses     atomic.Uint64
	stalls         atomic.Uint64

	// scanSeq numbers scans for trace start/end pairing; scanHist is
	// the always-on scan-duration histogram (time under the scan lock).
	scanSeq  atomic.Uint64
	scanHist stats.LatencyHist
}

// New returns a running Reclaimer: its background goroutine is parked
// on the allocator's pressure channel until the low watermark is
// crossed (if the allocator has no watermarks, it only ever runs
// direct reclaim). Close must be called before the domain is closed.
func New(alloc *physmem.Allocator, dom *rcu.Domain, cfg Config) *Reclaimer {
	if cfg.BatchPages <= 0 {
		cfg.BatchPages = 64
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 20 * time.Millisecond
	}
	if cfg.TLB == nil {
		cfg.TLB = tlb.NewDomain(alloc, dom, tlb.CostModel{})
	}
	r := &Reclaimer{
		alloc: alloc,
		dom:   dom,
		cfg:   cfg,
		rd:    dom.Register(),
		stop:  make(chan struct{}),
	}
	cfg.TLB.Init(&r.g, 0)
	r.wg.Add(1)
	go r.kswapd()
	return r
}

// Register adds a page cache to the eviction scan's rotation. The VM
// layer calls it when a file's cache is created.
func (r *Reclaimer) Register(c *pagecache.Cache) {
	r.cachesMu.Lock()
	r.caches = append(r.caches, c)
	r.cachesMu.Unlock()
}

// Unregister removes a page cache from the scan rotation (tenant
// teardown: under arrival/departure churn the rotation must not
// accumulate dead caches). Removing a cache mid-scan is safe — the
// running scan works on its own snapshot of the list.
func (r *Reclaimer) Unregister(c *pagecache.Cache) {
	r.cachesMu.Lock()
	for i, have := range r.caches {
		if have == c {
			r.caches = append(r.caches[:i], r.caches[i+1:]...)
			break
		}
	}
	r.cachesMu.Unlock()
}

// RegisterAccount adds a tenant charge account to the reclaim policy:
// while the account is over its limit, kswapd and direct reclaim evict
// its pages before touching anyone else's.
func (r *Reclaimer) RegisterAccount(ac *physmem.Account) {
	r.accountsMu.Lock()
	r.accounts = append(r.accounts, ac)
	r.accountsMu.Unlock()
}

// UnregisterAccount removes a departing tenant's account and drops the
// per-account clock hands the caches kept for it.
func (r *Reclaimer) UnregisterAccount(ac *physmem.Account) {
	r.accountsMu.Lock()
	for i, have := range r.accounts {
		if have == ac {
			r.accounts = append(r.accounts[:i], r.accounts[i+1:]...)
			break
		}
	}
	r.accountsMu.Unlock()
	r.ForgetAccount(ac)
}

// ForgetAccount drops the per-account clock hand every registered cache
// keeps for ac. Any ReclaimAccount scan recreates the hand it uses, so
// the final scan over a departing account — the post-unregister drain —
// must sweep again, or surviving caches accumulate one dead map entry
// per departed tenant under admission churn.
func (r *Reclaimer) ForgetAccount(ac *physmem.Account) {
	r.cachesMu.Lock()
	caches := make([]*pagecache.Cache, len(r.caches))
	copy(caches, r.caches)
	r.cachesMu.Unlock()
	for _, c := range caches {
		c.ForgetAccount(ac)
	}
}

// overLimitAccounts snapshots the registered accounts currently at or
// above their limits.
func (r *Reclaimer) overLimitAccounts() []*physmem.Account {
	r.accountsMu.Lock()
	defer r.accountsMu.Unlock()
	var over []*physmem.Account
	for _, ac := range r.accounts {
		if ac.OverLimit() {
			over = append(over, ac)
		}
	}
	return over
}

// Close stops the background reclaimer and waits for any scan in
// flight. Direct reclaim must no longer be invoked (the VM layer calls
// Close when the last address space of the machine closes, with no
// operation in flight).
func (r *Reclaimer) Close() {
	close(r.stop)
	r.wg.Wait()
	r.scanMu.Lock() // any straggling direct scan has finished
	r.scanMu.Unlock()
	r.dom.Unregister(r.rd)
}

// Quiesce runs fn with the scan lock held: no eviction scan (kswapd or
// direct) starts or is in flight while fn runs. Consistency audits use
// it — a scan's revocation and bookkeeping phases are separated by
// design, so only a scan-free window shows settled rmap state.
func (r *Reclaimer) Quiesce(fn func()) {
	r.scanMu.Lock()
	defer r.scanMu.Unlock()
	fn()
}

// kswapd is the background reclaimer: woken by the allocator's
// low-watermark signal (or the periodic re-check), it evicts in
// batches until free frames exceed the high watermark. Like its
// namesake it is gentle — it respects the clock's accessed bits, so a
// fully hot working set stalls it rather than being thrashed; direct
// reclaim is the path with the progress guarantee.
func (r *Reclaimer) kswapd() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.Interval)
	defer tick.Stop()
	// balancing is set by a low-watermark crossing and cleared once
	// free frames reach the high watermark (or a pass evicts nothing).
	// While set, each tick runs exactly one gentle clock pass: the
	// full interval between passes is what gives every page its
	// second chance — running passes back to back would clear the
	// accessed bits and immediately evict on the next pass, turning
	// clock into round-robin eviction of the hot set. Drained magazine
	// frames are never progress here: draining cannot raise FreeFrames
	// (those frames were already free, just stranded).
	balancing := false
	for {
		select {
		case <-r.stop:
			return
		case <-r.alloc.Pressure():
			balancing = true
		case <-tick.C:
			if !balancing {
				if r.alloc.LowWater() == 0 || r.alloc.FreeFrames() >= int64(r.alloc.LowWater()) {
					continue
				}
				balancing = true
			}
		}
		if r.alloc.FreeFrames() >= int64(r.alloc.HighWater()) {
			balancing = false
			continue
		}
		r.kswapdCycles.Add(1)
		_, evicted := r.reclaim(r.cfg.BatchPages, false)
		r.kswapdEvicted.Add(uint64(evicted))
		if evicted == 0 {
			balancing = false // nothing evictable; wait for the next low crossing
		}
	}
}

// DirectReclaim reclaims on behalf of a failed allocation and reports
// whether it made progress (the caller should retry the allocation).
// Unlike kswapd it ends with a forced pass that ignores accessed bits,
// so it fails only when genuinely nothing is evictable — every cache
// page is gone or pinned by a mid-scan refault.
func (r *Reclaimer) DirectReclaim() bool {
	r.directRuns.Add(1)
	if failStall.Fire() {
		r.stalls.Add(1)
		return false
	}
	// A failed allocation needs a handful of frames, not a purge:
	// over-evicting here just converts other spaces' resident sets into
	// refaults (the clock hand already spreads successive scans).
	target := r.cfg.BatchPages
	if target > 32 {
		target = 32
	}
	drained, evicted := r.reclaim(target, true)
	r.directEvicted.Add(uint64(evicted))
	if drained+evicted > 0 {
		return true
	}
	// Concurrent reclaimers serialize on the scan lock: by the time our
	// scan ran, the winner ahead of us may have evicted everything
	// evictable and already refilled the pool. Free frames now are
	// progress — the caller's retry will allocate them.
	if r.alloc.FreeFrames() > 0 {
		return true
	}
	// A concurrent scan's evicted frames may still be sitting in the
	// RCU queue: a scan releases the scan lock before its blocking
	// grace period, so our scan can find an empty cache while the
	// frames it needs are seconds from the free list. Wait out the
	// grace period and re-check before declaring defeat.
	r.dom.Synchronize()
	return r.alloc.FreeFrames() > 0
}

// reclaim runs eviction passes under the scan lock until something is
// freed (or the passes are exhausted) and returns the magazine frames
// drained and the pages evicted, separately — both are progress, but
// only evictions are reclaim work. Draining counts because frames
// stranded in per-CPU magazines are free, just unreachable from an
// empty global pool.
func (r *Reclaimer) reclaim(target int, force bool) (drained, evicted int) {
	kind := trace.ScanGlobal
	if force {
		kind = trace.ScanDirect
	}
	return r.scan(target, kind, func() (evicted, written int) {
		// Tenants over their limits pay first: one gentle pass over each
		// over-limit account's own pages (their private clock hands)
		// before the machine-wide clock runs, so global pressure caused
		// by a thrashing tenant lands on that tenant's working set, not
		// its neighbors'.
		for _, ac := range r.overLimitAccounts() {
			if evicted >= target {
				break
			}
			ev, wr := r.scanOnce(ac, target-evicted, false)
			evicted += ev
			written += wr
		}
		// One gentle machine-wide clock pass per call: a pass over a
		// fully hot set only clears accessed bits, and the bits must
		// survive until the *next* call (kswapd's next wake) so pages
		// re-touched in between keep their second chance — two
		// back-to-back passes would degenerate clock into round-robin
		// eviction of hot pages. A forced final pass gives direct
		// reclaim its progress guarantee when even the second chances
		// are exhausted.
		if evicted < target {
			ev, wr := r.scanOnce(nil, target-evicted, false)
			evicted += ev
			written += wr
		}
		if evicted == 0 && force {
			evicted, written = r.scanOnce(nil, target, true)
		}
		return evicted, written
	})
}

// ReclaimAccount runs tenant-local reclaim: one clock pass (gentle,
// then forced if nothing moved) over only the pages charged to ac,
// under the machine's scan lock, flushing the batch gather and the RCU
// domain so the evicted frames' charges have actually dropped by the
// time it returns — the caller's retry must observe the headroom. It
// returns the number of pages evicted; zero means nothing of this
// account's is evictable (its charge is all anonymous memory or
// pinned pages), which is when the caller escalates to per-tenant OOM.
func (r *Reclaimer) ReclaimAccount(ac *physmem.Account, target int) int {
	if target <= 0 {
		target = r.cfg.BatchPages
	}
	r.accountRuns.Add(1)
	_, evicted := r.scan(target, trace.ScanTenant, func() (evicted, written int) {
		evicted, written = r.scanOnce(ac, target, false)
		if evicted == 0 {
			evicted, written = r.scanOnce(ac, target, true)
		}
		return evicted, written
	})
	r.accountEvicted.Add(uint64(evicted))
	return evicted
}

// scan is every eviction scan's bracket: trace start and end, the scan
// lock, the cache snapshot, the read section, the gather flush, the
// scan histogram and the closing grace period. passes runs the scan's
// clock passes (scanOnce) inside it. A global scan (every kind but
// ScanTenant) first drains the magazines, and returns what it drained.
func (r *Reclaimer) scan(target int, kind uint64, passes func() (evicted, written int)) (drained, evicted int) {
	scanID := r.scanSeq.Add(1)
	trace.Emit(trace.AuxCPU, trace.EvReclaimScanStart, scanID, uint64(target), kind)
	scanStart := time.Now()
	contention.Lock(&r.scanMu, "reclaim.scan")
	if kind != trace.ScanTenant {
		drained = r.alloc.DrainMagazines()
	}
	// The scans' snapshot of the rotation, reused from scan to scan: a
	// cache unregistered mid-scan is still scanned safely, and the clear
	// below keeps no unregistered cache alive.
	r.cachesMu.Lock()
	r.scanCaches = append(r.scanCaches[:0], r.caches...)
	r.cachesMu.Unlock()
	written := 0
	if len(r.scanCaches) > 0 {
		// The batch gather: every PTE the scan revokes and every evicted
		// page's cache reference lands in r.g, and one flush pays one
		// shootdown and queues one release for the whole batch.
		r.rd.Lock()
		evicted, written = passes()
		r.rd.Unlock()
		// Flush outside the read section (the spin must not extend a
		// grace period the deferred frees below wait on) but before the
		// domain flush: the batched release has to be queued for that
		// grace period to drain it.
		r.g.Flush()
		clear(r.scanCaches)
	}
	r.scanMu.Unlock()
	elapsed := time.Since(scanStart)
	r.scanHist.Record(elapsed)
	trace.Emit(trace.AuxCPU, trace.EvReclaimScanEnd, scanID, uint64(evicted),
		uint64(elapsed))

	if evicted > 0 {
		r.writebacks.Add(uint64(written))
		// The evictions' frame frees (and with them the uncharges) are
		// deferred past a grace period; flush so the caller's retry can
		// allocate them. The scan lock and read section are released: a
		// reclaimer never blocks a grace period on itself, and a parked
		// kswapd never holds the lock against a direct reclaimer.
		r.dom.Synchronize()
	}
	return drained, evicted
}

// scanOnce runs one clock pass over the scan's cache snapshot into the
// batch gather, restricted to ac's pages (nil: machine-wide), round-robin
// from the rotation cursor so one hot file cannot shadow the others.
func (r *Reclaimer) scanOnce(ac *physmem.Account, target int, force bool) (evicted, written int) {
	caches := r.scanCaches
	r.scanPasses.Add(1)
	for i := 0; i < len(caches) && evicted < target; i++ {
		c := caches[(r.handCache+i)%len(caches)]
		ev, wr := c.ReclaimScan(ac, target-evicted, force, &r.g)
		evicted += ev
		written += wr
	}
	r.handCache++
	return evicted, written
}

// Stats is a snapshot of reclaim activity.
type Stats struct {
	KswapdCycles   uint64 // background wake-ups that found pressure
	KswapdEvicted  uint64 // pages evicted by the background reclaimer
	DirectRuns     uint64 // direct-reclaim invocations (failed allocations)
	DirectEvicted  uint64 // pages evicted by direct reclaim
	AccountRuns    uint64 // tenant-local reclaim invocations (over-limit charges)
	AccountEvicted uint64 // pages evicted by tenant-local reclaim
	Writebacks     uint64 // dirty pages written back before eviction
	ScanPasses     uint64 // clock passes over the cache rotation
	InjectedStalls uint64 // direct-reclaim runs failed by the stall failpoint

	Scan stats.LatencyStats // scan-duration percentiles (time under the scan lock)
}

// Stats returns a snapshot of the reclaimer's counters.
func (r *Reclaimer) Stats() Stats {
	return Stats{
		KswapdCycles:   r.kswapdCycles.Load(),
		KswapdEvicted:  r.kswapdEvicted.Load(),
		DirectRuns:     r.directRuns.Load(),
		DirectEvicted:  r.directEvicted.Load(),
		AccountRuns:    r.accountRuns.Load(),
		AccountEvicted: r.accountEvicted.Load(),
		Writebacks:     r.writebacks.Load(),
		ScanPasses:     r.scanPasses.Load(),
		InjectedStalls: r.stalls.Load(),
		Scan:           r.scanHist.Stats(),
	}
}
