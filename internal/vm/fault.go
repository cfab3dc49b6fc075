package vm

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"bonsai/internal/pagecache"
	"bonsai/internal/pagetable"
	"bonsai/internal/physmem"
	"bonsai/internal/tlb"
	"bonsai/internal/trace"
	"bonsai/internal/vma"
)

// Fault handles a soft page fault at addr (write indicates the access
// type), installing a page-table entry so the access can proceed. It
// returns ErrSegv if no mapping covers addr and ErrAccess on a
// protection violation.
//
// A fault that loses a race with frame-pool exhaustion does not fail:
// the attempt unwinds completely (typed as ErrFrameShortage, with
// every lock released and nothing half-installed), direct reclaim
// evicts page-cache pages, and the fault retries. ErrNoMemory escapes
// only when reclaim reports nothing left to evict — no clean or
// write-backable cache page anywhere on the machine.
//
// What the attempt holds while it runs is the address space's
// synchronization policy's business (sync.go), not this file's.
func (c *CPU) Fault(addr uint64, write bool) error {
	as := c.as
	if addr >= MaxAddress {
		return ErrSegv
	}
	page := pageDown(addr)
	atomic.AddUint64(&c.st.Faults, 1)
	c.pathFlags = 0
	armed := trace.Armed()
	if armed {
		var w uint64
		if write {
			w = 1
		}
		trace.Emit(c.id, trace.EvFaultEnter, page, w, uint64(as.cfg.Design))
	}
	// Every fault is counted; only a sample is timed (every one while
	// the tracer is armed, whose exit event carries the duration).
	timed := armed || c.sampleDue()
	var start time.Time
	if timed {
		start = time.Now()
	}
	err := as.retryShortage(func() error {
		err := c.fault(page, write)
		if err != nil && (errors.Is(err, ErrFrameShortage) || errors.Is(err, ErrTenantShortage)) {
			c.pathFlags |= trace.FaultShortageRetry
		}
		return err
	})
	if !timed {
		return err
	}
	elapsed := time.Since(start)
	c.st.hist.Record(elapsed)
	if armed {
		flags := c.pathFlags
		if flags&trace.FaultSlow == 0 {
			flags |= trace.FaultFast
		}
		if err != nil {
			flags |= trace.FaultError
		}
		trace.Emit(c.id, trace.EvFaultExit, page, flags, uint64(elapsed))
	}
	return err
}

// faultSampleGap bounds the gap between timed faults while the tracer
// is disarmed: uniform on 1…31, so 1 fault in 16 is timed. The clock
// pair measured ~90 ns of a ~290 ns fast-path fault on the 2-core host;
// a fixed stride would alias with the 512-entry leaf-table period.
const faultSampleGap = 31

// sampleDue reports whether this fault is one of the timed sample,
// drawing the next gap from the CPU's own xorshift state (seeded from
// its id, so a run's sample positions repeat).
func (c *CPU) sampleDue() bool {
	c.untilSample--
	if c.untilSample > 0 {
		return false
	}
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	c.untilSample = 1 + int(c.rng%faultSampleGap)
	return true
}

// oomRetries bounds consecutive no-progress direct-reclaim attempts
// before an operation reports ErrNoMemory.
const oomRetries = 16

// shortageRetryBudget bounds how many times one operation may answer
// ErrFrameShortage with a successful direct reclaim and retry. Without
// it the retry loop is unbounded: DirectReclaim reports progress
// whenever free frames exist (a concurrent reclaimer's work counts),
// so an operation whose own allocations keep failing — competing
// faulters winning every freed frame, or an injected allocation fault
// — would spin forever instead of surfacing ErrNoMemory. The budget is
// generous: a legitimately thrashing operation needs a handful of
// retries, not sixty-four.
const shortageRetryBudget = 64

// retryShortage runs op under the VM's graceful-degradation ladder.
//
// Pool exhaustion (ErrFrameShortage):
//
//  1. direct reclaim, retry — up to shortageRetryBudget times, each
//     retry backed by a reclaim run that reported progress;
//  2. budget exhausted (or reclaim out of progress) → the machine's
//     OOM killer of last resort reaps the largest member — this
//     tenant's first, any tenant's as fallback — and the budget
//     resets, once;
//  3. nothing left → typed ErrNoMemory, with op fully unwound (its
//     contract: a shortage failure leaks nothing and holds nothing).
//
// Tenant-limit exhaustion (ErrTenantShortage) climbs the tenant-local
// rung of the same ladder first: reclaim scans restricted to this
// tenant's own pages (neighbors' pages and their accessed bits are
// untouched), then a per-tenant OOM kill confined to this tenant —
// reaping a neighbor cannot lower this tenant's charge — then
// ErrNoMemory. The machine-wide pool is never touched on this path,
// so a thrashing tenant degrades alone.
//
// Any non-shortage outcome — success, ErrSegv, I/O errors — returns
// immediately.
func (as *AddressSpace) retryShortage(op func() error) error {
	kills := 0
	for attempt := 0; ; attempt++ {
		err := op()
		tenant := errors.Is(err, ErrTenantShortage)
		if !tenant && !errors.Is(err, ErrFrameShortage) {
			return err
		}
		atomic.AddUint64(&as.stats.unslotted().ReclaimRetries, 1)
		var tb uint64
		if tenant {
			tb = 1
		}
		if attempt < shortageRetryBudget && as.reclaimForShortage(tenant) {
			trace.Emit(trace.AuxCPU, trace.EvOOMKill, trace.OomDirectReclaim, tb, uint64(attempt+1))
			continue
		}
		if kills == 0 && as.oomKill(tenant) {
			kills++
			attempt = -1 // fresh budget against the reaped memory
			continue
		}
		trace.Emit(trace.AuxCPU, trace.EvOOMKill, trace.OomGiveUp, tb, uint64(attempt+1))
		if tenant {
			return fmt.Errorf("%w: tenant frame limit exhausted after %d attempts and nothing evictable in-tenant", ErrNoMemory, attempt+1)
		}
		return fmt.Errorf("%w: frame pool exhausted after %d attempts and nothing evictable", ErrNoMemory, attempt+1)
	}
}

// reclaimForShortage answers a frame-allocation failure with direct
// reclaim, absorbing transient no-progress verdicts: under thrash,
// competing faulters can consume every frame a reclaim pass freed
// before this caller retries, and a concurrent scan's evictions may
// still be crossing their grace period. A single failed scan therefore
// proves nothing; only several consecutive empty-handed scans — with
// yields in between so grace periods and competing reclaimers can move
// — mean the machine is genuinely out of reclaimable memory. With no
// page caches at all (purely anonymous workloads) every attempt is a
// cheap empty scan, so true OOM still reports quickly.
//
// tenant == true answers a tenant-limit failure by scanning only this
// tenant's own pages (ReclaimAccount), so the tenant pays for its
// overcommit itself instead of pressuring its neighbors.
func (as *AddressSpace) reclaimForShortage(tenant bool) bool {
	for attempt := 0; attempt < oomRetries; attempt++ {
		if tenant {
			if as.fam.acct == nil {
				return false // no account: a tenant shortage cannot recur
			}
			if as.fam.ms.rec.ReclaimAccount(as.fam.acct, 0) > 0 {
				return true
			}
		} else if as.fam.ms.rec.DirectReclaim() {
			return true
		}
		if attempt < 4 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Duration(attempt) * 50 * time.Microsecond)
		}
	}
	return false
}

// retryReason is the fast path's verdict that the fault must be retried
// with the page pinned, returned as the attempt's error. It says where
// the retry arose, which is all the §6–7 retry statistics distinguish.
type retryReason int

const (
	retryMiss     retryReason = iota // no VMA found: a segfault, a stack to grow, or a split's window (Figure 10)
	retryFillRace                    // the fill lost a race: §5.2's double check, or a racing huge promotion
	retryCow                         // copy-on-write hard case (§6)
)

func (retryReason) Error() string { return "vm: fault must retry with the page pinned" }

// fault is one fault attempt. The fast path runs inside the policy's
// read side — a semaphore in read mode, or just the CPU's RCU read
// section (§5.2–5.3), in which case the fill revalidates the VMA under
// the PTE lock: "the page fault handler double-checks that the VMA has
// not been marked as deleted and that the faulting address still falls
// within the VMA's bounds". Any anomaly is retried with the page pinned,
// which guarantees progress; a pinned fill can itself only lose to a
// racing huge promotion, which the next round finds in place.
func (c *CPU) fault(page uint64, write bool) error {
	sy := &c.as.sy
	sy.enter(c)
	var err error = retryMiss
	if v := c.lookup(page); v != nil {
		if err = checkProt(v, write); err == nil {
			locked := sy.readExcludesMapOps()
			var recheck func() bool
			if !locked {
				recheck = func() bool { return v.Contains(page) }
			}
			err = c.fillPage(v, page, write, recheck, locked)
		}
	}
	sy.exit(c)
	for {
		reason, retry := err.(retryReason)
		if !retry {
			return err
		}
		err = c.faultSlow(page, write, reason)
	}
}

// faultSlow is the retry-with-lock path (§5.2: "we detect
// inconsistencies and restart the page fault handler, this time with
// the mmap_sem held to ensure progress"). It pins the faulting page, so
// the page's mapping — its existence, protection and file offset —
// holds still and the fill needs no recheck; faults elsewhere, and
// under range locking mapping operations on other VMAs, keep running.
// A page still unmapped escalates to the whole-space exclusion, where a
// stack may grow over it.
func (c *CPU) faultSlow(page uint64, write bool, reason retryReason) error {
	as := c.as
	atomic.AddUint64(c.st.retries(reason), 1)
	c.pathFlags |= trace.FaultSlow
	if reason == retryCow {
		c.pathFlags |= trace.FaultCOW
	}
	pin := as.sy.pin(page, page+PageSize)
	if v := as.idx.floor(page); v != nil && v.Contains(page) {
		err := checkProt(v, write)
		if err == nil {
			err = c.fillPage(v, page, write, nil, true)
		}
		pin.unlock()
		return err
	}
	pin.unlock()

	op := as.beginOp()
	defer op.end()
	mg := as.sy.lockAll(op)
	defer mg.unlock()
	v := as.idx.floor(page)
	if v == nil || !v.Contains(page) {
		var err error
		if v, err = as.growStackLocked(op, &mg, page); err != nil {
			return err
		}
	}
	if err := checkProt(v, write); err != nil {
		return err
	}
	return c.fillPage(v, page, write, nil, true)
}

// growStackLocked grows a Stack VMA downward to cover page (§6 handles
// Linux's stack guard machinery with the same retry-with-locking
// mechanism; here growth itself runs under mg, the whole-space
// exclusion). The tree is keyed by start, so growth re-indexes the VMA:
// remove, adjust, insert. Lock-free readers can transiently miss it and
// retry — by the time they hold the whole space the VMA is back.
func (as *AddressSpace) growStackLocked(op *opCtx, mg *mapGuard, page uint64) (*vma.VMA, error) {
	v := as.idx.ceiling(page)
	if v == nil || v.Flags()&vma.Stack == 0 || v.Deleted() {
		return nil, ErrSegv
	}
	if v.Start()-page > maxStackGrowth {
		return nil, ErrSegv
	}
	// Keep one guard page between the stack and the mapping below.
	if below := as.idx.floor(page); below != nil && below.End() > page-PageSize {
		return nil, ErrSegv
	}
	mg.mutate()
	op.edits = append(op.edits, regionEdit{Key: v.Start(), Delete: true}, regionEdit{Key: page, Val: v})
	v.SetStart(page)
	as.commit(op)
	atomic.AddUint64(&as.stats.op(op).StackGrowths, 1)
	return v, nil
}

// checkProt validates the access type against the mapping protection.
func checkProt(v *vma.VMA, write bool) error {
	if write {
		if v.Prot()&vma.ProtWrite == 0 {
			return ErrAccess
		}
	} else if v.Prot()&vma.ProtRead == 0 {
		return ErrAccess
	}
	return nil
}

// fillPage installs or upgrades the PTE for page under the PTE lock,
// allocating a frame (anonymous) or resolving the file's page cache
// (file-backed) if the entry is empty, and breaking copy-on-write when
// a write hits a COW page. recheck, when non-nil, is the §5.2 double
// check run under the PTE lock. locked says whether the caller's hold
// keeps mapping operations from mutating (a read side that excludes
// them, or a pin); it selects whether COW breaks happen here or force a
// retry with the page pinned (an RCU read section, per §6: "for ...
// copy-on-write faults, the implementation retries the page fault with
// the lock held"), and whether the file-cache interaction must open its
// own RCU read section (the unlocked caller is already inside one). On
// a detected race fillPage returns retryFillRace.
func (c *CPU) fillPage(v *vma.VMA, page uint64, write bool, recheck func() bool, locked bool) error {
	as := c.as
	// Huge-first policy: a huge entry may already translate the page (a
	// prior 2 MB fault or a background collapse), or an eligible first
	// touch may install one. Both paths work identically under all four
	// §5 designs — the huge install runs its own §5.2 double check under
	// the page-directory lock, the analogue of the PTE-lock recheck.
	if h, ok := as.tables.WalkHuge(page); ok {
		return c.hugeHit(h, page, write, recheck)
	}
	if hugeEligible(v, page) {
		done, err := c.hugeFault(v, page, recheck)
		if done || err != nil {
			return err
		}
		// Fall through: base pages (no run free, or a racing fault).
	}
	pt, err := as.tables.EnsureTable(c.id, page)
	if err != nil {
		if errors.Is(err, pagetable.ErrHugeMapped) {
			// A racing fault promoted the span between the walk above
			// and here; retry to take the huge-hit path.
			return retryFillRace
		}
		return oomError(err)
	}
	// A COW break revokes the old shared translation; it batches into a
	// gather created lazily (the common fault installs or upgrades in
	// place and never needs one) and flushed after the PTE lock is
	// released — the one-page batch still buys the deferred, post-flush
	// frame release the pipeline's invariant requires.
	var g *tlb.Gather
	makeCopy := func(old uint64) (uint64, error) {
		if g == nil {
			g = as.fam.ms.tlb.Gather(c.id)
		}
		return c.cowBreak(g, page, old)
	}
	if !locked {
		makeCopy = nil
	}
	// A write upgrade on a shared file page is not a COW break — it is
	// the dirty-tracking transition (shared file pages install
	// read-only on read faults so the first store is observable; see
	// makeFilePTE). The dirty mark must land inside the PTE-lock
	// critical section that makes the PTE writable: once any CPU can
	// observe a writable PTE and store through it, eviction's writeback
	// must already consider the page dirty.
	var onUpgrade func(old uint64)
	sharedFile := v.File() != nil && v.Flags()&vma.Shared != 0
	if sharedFile {
		if pc := v.File().PageCache(); pc != nil {
			onUpgrade = func(old uint64) {
				if pg := pc.Lookup(v.FileOffset(page)); pg != nil && pg.Frame() == pagetable.PTEFrame(old) {
					pg.MarkDirty()
				}
			}
		}
	}
	res, err := as.tables.FillOrUpgrade(c.id, page, pt, write, recheck, func() (uint64, error) {
		if f := v.File(); f != nil {
			if pc := f.PageCache(); pc != nil {
				return c.makeFilePTE(v, pc, page, write, locked)
			}
		}
		frame, err := as.alloc.Alloc(c.id)
		if err != nil {
			return 0, err
		}
		// Fresh anonymous pages install with the software accessed bit:
		// the faulting touch is the first heat sample the collapse
		// scanner's clock observes.
		return pagetable.MakePTE(frame, v.Prot()&vma.ProtWrite != 0) | pagetable.PTEAccessed, nil
	}, makeCopy, onUpgrade)
	if g != nil {
		// The COW break ran (even if FillOrUpgrade then failed): pay its
		// shootdown now, outside the PTE lock, inside the fault's
		// mapping exclusion.
		g.Flush()
	}
	if err != nil {
		return oomError(err)
	}
	switch res {
	case pagetable.FillRecheckFailed:
		return retryFillRace // fill race detected by the double check
	case pagetable.FillNeedsUpgrade:
		return retryCow // COW hard case: service with the lock held
	case pagetable.FillInstalled:
		atomic.AddUint64(&c.st.PagesMapped, 1)
	case pagetable.FillUpgraded:
		// Only non-shared upgrades count toward CowBreaks (the shared
		// dirty transition was handled under the PTE lock by onUpgrade).
		if !sharedFile {
			atomic.AddUint64(&c.st.CowBreaks, 1)
			c.pathFlags |= trace.FaultCOW
		}
	default:
		atomic.AddUint64(&c.st.FaultsAlreadyMapped, 1) // a concurrent fault won
	}
	return nil
}

// makeFilePTE builds the PTE for an empty entry of a file-backed
// mapping by resolving the file's page cache. It runs under the PTE
// lock, invoked by FillOrUpgrade's makeFrame. The cases:
//
//   - Shared: the cache frame itself is mapped, so every address space
//     mapping the file sees the same memory. The PTE is writable only
//     when the faulting access is a write (read faults install
//     read-only so the first store faults again and marks the page
//     dirty via the upgrade path).
//   - Private, read fault: the cache frame is mapped read-only with the
//     COW mark; the first store breaks COW through the usual cowBreak,
//     copying the page into a private frame.
//   - Private, write fault: COW is broken up front — a private frame is
//     allocated and the cached contents copied, with no intermediate
//     shared mapping.
//
// Mapped cache frames carry one physmem reference per PTE, taken here
// before the deleted-mark double check: the caller is inside an RCU
// read-side critical section (entered below when the caller holds a
// lock instead), so a concurrent Drop cannot release the cache's own
// reference — deferred past a grace period — before the check decides
// whether this reference was taken in time. The double check is
// AddMapping, which also records the PTE in the page's reverse map
// (the eviction scan's unmap list) atomically with the deleted check,
// closing the window where an eviction could miss a just-installed
// mapping. A page dropped or evicted under us is simply retried; the
// next FindOrCreate fills a fresh page.
func (c *CPU) makeFilePTE(v *vma.VMA, pc *pagecache.Cache, page uint64, write, locked bool) (uint64, error) {
	as := c.as
	c.pathFlags |= trace.FaultFileFill
	off := v.FileOffset(page)
	if locked {
		// The lock-held fault paths are not RCU readers; the cache's
		// lookup/ref protocol requires a read section, so open one.
		c.rd.Lock()
		defer c.rd.Unlock()
	}
	for {
		pg, err := pc.FindOrCreate(c.id, off, func(frame physmem.Frame) {
			if as.cfg.Backing {
				v.File().FillPage(as.alloc.Data(frame), off)
			}
		})
		if err != nil {
			return 0, err
		}
		shared := v.Flags()&vma.Shared != 0
		if !shared && write {
			// Private write fault: map a private copy of the cached
			// page. The RCU read section keeps pg's frame alive for the
			// copy even if the page is dropped concurrently.
			frame, err := as.alloc.Alloc(c.id)
			if err != nil {
				return 0, err
			}
			if as.cfg.Backing {
				*as.alloc.Data(frame) = *as.alloc.Data(pg.Frame())
			}
			return pagetable.MakePTE(frame, true), nil
		}
		// Map the cache frame: take the mapping reference, then run the
		// deleted-mark double check (the §5.2 shape, at the file layer)
		// while registering the reverse mapping.
		as.alloc.Ref(pg.Frame())
		if !pg.AddMapping(as, page) {
			as.alloc.FreeRemote(pg.Frame()) // dropped or evicted under us; undo and retry
			continue
		}
		if shared {
			if write {
				pg.MarkDirty()
			}
			return pagetable.MakePTE(pg.Frame(), write), nil
		}
		return pagetable.MakeCowPTE(pg.Frame()), nil
	}
}

// Translate performs a lock-free page-table walk and returns the
// physical address mapping addr, if present. Callers that may race
// with munmap should hold an RCU read section via TranslateRCU.
func (as *AddressSpace) Translate(addr uint64) (uint64, bool) {
	if addr >= MaxAddress {
		return 0, false
	}
	pte, ok := as.tables.Walk(pageDown(addr))
	if !ok {
		return 0, false
	}
	return uint64(pagetable.PTEFrame(pte))<<12 | (addr & (PageSize - 1)), true
}

// lookup is the fast path's VMA lookup: the region tree, behind the
// mmap cache (§6) in the lock-based designs. The RCU designs run
// without it: every miss writes the shared cache line, the coherence
// cost the paper measured before disabling it.
func (c *CPU) lookup(page uint64) *vma.VMA {
	as := c.as
	if as.mmapCacheOn {
		if v := as.mmapCache.Load(); v != nil && v.Contains(page) {
			atomic.AddUint64(&c.st.MmapCacheHits, 1)
			return v
		}
	}
	v := as.idx.floor(page)
	if v == nil || !v.Contains(page) {
		return nil
	}
	if as.mmapCacheOn {
		atomic.AddUint64(&c.st.MmapCacheMisses, 1)
		as.mmapCache.Store(v)
	}
	return v
}
