package vm

import (
	"sync/atomic"
	"time"

	"bonsai/internal/pagetable"
	"bonsai/internal/physmem"
	"bonsai/internal/trace"
	"bonsai/internal/vma"
)

// Transparent huge pages. Anonymous private regions that fully cover a
// 2 MB-aligned chunk take a huge-first fault path: the first touch of
// the chunk allocates a 512-frame buddy run and installs one level-2
// huge entry instead of 512 base PTEs — one fault, one translation, and
// the whole span's teardown later batches into a single shootdown
// flush. When no contiguous run is free (the pool is fragmented, not
// empty) the fault falls back to a base page; the background collapse
// scanner — the khugepaged analogue — later promotes chunks that
// filled in with hot base pages. Huge entries are anonymous-only:
// file-backed mappings keep base pages, and fork splits huge entries
// back to base pages so copy-on-write stays page-granular.

// HugeSpan is the virtual span one huge entry maps (2 MB).
const HugeSpan = pagetable.HugeSpan

// hugeEligible reports whether the fault at page may try the 2 MB
// path: the VMA is anonymous, private, not a stack (growth would
// re-bound it under the fault), and fully covers page's aligned chunk.
func hugeEligible(v *vma.VMA, page uint64) bool {
	if v.File() != nil || v.Flags()&(vma.Shared|vma.Stack) != 0 || v.Deleted() {
		return false
	}
	chunk := page &^ (HugeSpan - 1)
	return v.Start() <= chunk && chunk+HugeSpan <= v.End()
}

// hugeHit services a fault whose page a huge entry already translates
// (a prior 2 MB fault or a background collapse won the race).
func (c *CPU) hugeHit(h uint64, page uint64, write bool, recheck func() bool) error {
	as := c.as
	c.pathFlags |= trace.FaultHuge
	if write && h&pagetable.PTEWritable == 0 {
		// Write fault on a read-only huge span (an mprotect downgrade
		// since made writable again): upgrade the entry in place. Huge
		// entries are never copy-on-write — fork's clone splits them — so
		// there is no huge COW break.
		if !as.tables.UpgradeHuge(page, recheck) {
			return retryFillRace // split, zapped, or recheck failed: retry
		}
		return nil
	}
	atomic.AddUint64(&c.st.FaultsAlreadyMapped, 1)
	return nil
}

// hugeFault tries to satisfy the first touch of an eligible chunk with
// a huge entry. done=false falls back to the base-page path: the chunk
// already has base pages, no contiguous run is free, or a racing fault
// populated the span. The install runs InstallHuge's §5.2 double check
// under the page-directory lock, so the path works identically in all
// four designs; recheck is non-nil only for the RCU fast paths.
func (c *CPU) hugeFault(v *vma.VMA, page uint64, recheck func() bool) (done bool, err error) {
	as := c.as
	chunk := page &^ (HugeSpan - 1)
	if as.tables.WalkTable(chunk) != nil {
		// Base pages already populate the chunk (earlier faults fell
		// back): promotion is the collapse scanner's job, not a fault's.
		return false, nil
	}
	run, err := as.alloc.AllocRun(c.id, pagetable.HugeOrder)
	if err != nil {
		// Typed run shortage (fragmentation), genuine exhaustion, or a
		// refused tenant charge: a 2 MB fault never drives the reclaim
		// ladder — it falls back to one base page, which may.
		atomic.AddUint64(&c.st.THPFallbacks, 1)
		return false, nil
	}
	var hugeRecheck func() bool
	if recheck != nil {
		hugeRecheck = func() bool { return hugeEligible(v, page) }
	}
	res, err := as.tables.InstallHuge(c.id, chunk, run, v.Prot()&vma.ProtWrite != 0, hugeRecheck)
	if res != pagetable.HugeInstalled {
		// The run was never published; no translation can reach it.
		as.alloc.FreeRun(run, pagetable.HugeOrder)
		if err != nil {
			atomic.AddUint64(&c.st.THPFallbacks, 1) // deposit-table allocation failed
			return false, nil
		}
		if res == pagetable.HugeRecheckFailed {
			return false, retryFillRace
		}
		return false, nil // HugeLost: a racing fault populated the span
	}
	atomic.AddUint64(&c.st.PagesMapped, pagetable.EntriesPerTable)
	atomic.AddUint64(&c.st.THPHugeFaults, 1)
	c.pathFlags |= trace.FaultHuge
	return true, nil
}

// collapseChunk promotes the fully populated, aligned 2 MB chunk to a
// huge entry if it qualifies: all 512 base PTEs present and every frame
// exclusively owned (refcount 1) and not a page-cache frame. A
// copy-on-write PTE whose frame has no other owner — the fork child is
// gone — qualifies too: the collapse copy re-owns it, exactly as a
// write fault's sole-owner COW break would, and a frame still shared
// with a live relative fails the refcount check. The caller holds the
// space's mapping-operation exclusion over the chunk and has verified
// the covering VMA is anonymous, private, and writable-state-stable.
// The promotion allocates a destination run, copies the 512 pages under
// the leaf PTE lock (the same atomicity discipline io's accessors
// follow, so no racing store is lost), publishes the huge entry, and
// retires the old frames and leaf table through one gather flush.
func (as *AddressSpace) collapseChunk(chunk uint64, writable bool) bool {
	g := as.fam.ms.tlb.Gather(as.mapCPU)
	ok, err := as.tables.Collapse(as.mapCPU, g, chunk, func(ptes *[pagetable.EntriesPerTable]uint64) (uint64, bool) {
		for _, pte := range ptes {
			if pte&pagetable.PTEPresent == 0 {
				return 0, false
			}
			f := pagetable.PTEFrame(pte)
			if as.alloc.Refs(f) != 1 || as.fam.ms.reg.Lookup(f) != nil {
				return 0, false // shared with a relative, or a cache page
			}
		}
		run, err := as.alloc.AllocRun(as.mapCPU, pagetable.HugeOrder)
		if err != nil {
			return 0, false
		}
		if as.cfg.Backing {
			for i, pte := range ptes {
				*as.alloc.Data(run + physmem.Frame(i)) = *as.alloc.Data(pagetable.PTEFrame(pte))
			}
		}
		return pagetable.MakePTE(run, writable), true
	})
	if err != nil || !ok {
		g.Flush() // no-op: nothing was revoked
		atomic.AddUint64(&as.stats.unslotted().THPCollapseFails, 1)
		return false
	}
	// The old frames and the detached leaf table retire through the
	// flush and a grace period, like any zap batch.
	g.Flush()
	atomic.AddUint64(&as.stats.unslotted().THPCollapses, 1)
	return true
}

// surveyChunks discovers collapse candidates in [lo, hi): aligned
// chunks fully covered by an anonymous private VMA whose 512 base PTEs
// are all present and (in clock mode) at least one touched since the
// previous sweep — the accessed bits the survey reads are cleared as it
// goes, the clock hand. Fresh faults install PTEs with the accessed bit
// set, so a chunk that fills in is promotable on the next sweep; an
// idle chunk whose bits stay clear is left alone. Frame exclusivity
// (including sole-owner COW leftovers) is judged later, per PTE, under
// the collapse's leaf lock.
//
// Discovery pins nothing: it holds only what walking the region tree
// takes (pinIndex), and SurveyChunk validates each leaf under its PTE
// lock with a dead-table check, so a concurrent zap at worst yields a
// stale candidate — which collapseOne revalidates under a pin before
// promoting.
func (as *AddressSpace) surveyChunks(lo, hi uint64, clock bool) []uint64 {
	pin := as.sy.pinIndex()
	defer pin.unlock()
	var cands []uint64
	scan := func(v *vma.VMA) bool {
		if v.File() != nil || v.Flags()&(vma.Shared|vma.Stack) != 0 {
			return true
		}
		start := (v.Start() + HugeSpan - 1) &^ (HugeSpan - 1)
		for chunk := start; chunk+HugeSpan <= v.End(); chunk += HugeSpan {
			if chunk+HugeSpan <= lo || chunk >= hi {
				continue
			}
			present, accessed, _, ok := as.tables.SurveyChunk(chunk, clock)
			if !ok {
				continue // unpopulated, or already huge
			}
			if present == pagetable.EntriesPerTable && (!clock || accessed > 0) {
				cands = append(cands, chunk)
			}
		}
		return true
	}
	// A region that begins below lo may still cover chunks inside the
	// window; the ascend below visits only starts in [lo, hi).
	if v := as.idx.floor(lo); v != nil && v.Start() < lo && v.End() > lo {
		scan(v)
	}
	as.idx.ascendRange(lo, hi, scan)
	return cands
}

// collapseOne promotes one surveyed chunk with just the chunk pinned —
// the khugepaged scan discipline: the VMA revalidated below holds still,
// while faults proceed and are arbitrated by the page-table locks
// Collapse already takes.
func (as *AddressSpace) collapseOne(chunk uint64) bool {
	pin := as.sy.pin(chunk, chunk+HugeSpan)
	defer pin.unlock()
	v := as.idx.floor(chunk)
	if v == nil || !hugeEligible(v, chunk) {
		return false // unmapped, remapped, or no longer eligible
	}
	return as.collapseChunk(chunk, v.Prot()&vma.ProtWrite != 0)
}

// collapsePass is one scanner sweep over this address space: survey the
// whole space with the accessed-bit clock, then promote each candidate
// under its own chunk-sized exclusion.
func (as *AddressSpace) collapsePass() int {
	promoted := 0
	for _, chunk := range as.surveyChunks(0, MaxAddress, true) {
		if as.collapseOne(chunk) {
			promoted++
		}
	}
	return promoted
}

// CollapseRange synchronously promotes every eligible, fully populated
// chunk of [lo, hi) — the MADV_COLLAPSE analogue, and the scanner's
// engine exposed for tests and torture. Unlike the scanner it ignores
// the accessed-bit clock (an explicit request is its own heat signal).
func (as *AddressSpace) CollapseRange(lo, hi uint64) int {
	promoted := 0
	for _, chunk := range as.surveyChunks(lo, hi, false) {
		if as.collapseOne(chunk) {
			promoted++
		}
	}
	return promoted
}

// collapseScanner is the machine's khugepaged: a background goroutine
// that periodically sweeps every live member of every tenant, promoting
// hot fully-populated chunks. One scanner per machine, like one
// khugepaged per host, so its collapse copies are bounded and its pins
// touch one space at a time.
func (ms *machine) collapseScanner(interval time.Duration) {
	defer close(ms.thpDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ms.thpStop:
			return
		case <-tick.C:
		}
		ms.collapseSweep()
	}
}

// collapseSweep runs one pass over every live member. Liveness against
// teardown is settled by revalidation under collapseOne's exclusion: a
// space being torn down empties its region tree under the whole-space
// lock before releasing its page-table root, so a racing pass finds no
// covering VMA and never reaches the tables (discovery's own table
// reads are PTE-lock- and dead-check-guarded against the concurrent
// zap). A fork's half-built child holds its own whole-space exclusion
// for the entire clone, which blocks collapseOne until the clone is
// complete — and its freshly cloned PTEs all carry the COW mark, so
// they never survey as candidates anyway.
func (ms *machine) collapseSweep() {
	for _, fam := range ms.families() {
		for _, as := range fam.liveMembers() {
			as.collapsePass()
		}
	}
}

// startCollapser launches the machine's collapse scanner unless it is
// disabled.
func (ms *machine) startCollapser() {
	if ms.cfg.THPScanInterval < 0 {
		return
	}
	interval := ms.cfg.THPScanInterval
	if interval == 0 {
		interval = DefaultTHPScanInterval
	}
	ms.thpStop = make(chan struct{})
	ms.thpDone = make(chan struct{})
	go ms.collapseScanner(interval)
}

// stopCollapser stops the scanner and waits for an in-flight sweep to
// finish. Called exactly once, by whichever side wins the teardown
// latch (the last tenant's retire or the last Host's Close).
func (ms *machine) stopCollapser() {
	if ms.thpStop == nil {
		return
	}
	close(ms.thpStop)
	<-ms.thpDone
}
