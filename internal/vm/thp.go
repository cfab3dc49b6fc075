package vm

import (
	"sync/atomic"

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
// empty) the fault falls back to a base page, and the chunk stays base
// pages until an explicit CollapseRange promotes it — there is no
// background promotion. Huge entries are anonymous-only: file-backed
// mappings keep base pages, and fork splits huge entries back to base
// pages so copy-on-write stays page-granular.

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
// (a prior 2 MB fault or a CollapseRange won the race).
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
		// back): promotion is CollapseRange's job, not a fault's.
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
// with a live relative fails the refcount check. The caller pins the
// chunk and has verified the covering VMA is huge-eligible; the pin
// keeps its protection, and so writable, stable.
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

// CollapseRange synchronously promotes every eligible, fully populated
// chunk overlapping [lo, hi) — the MADV_COLLAPSE analogue, and the only
// way base pages become a huge entry. It pins the chunk-aligned span
// once, so the regions it judges hold still while faults keep running
// beside it, arbitrated by the PTE and page-directory locks Collapse
// takes. The regions are gathered first and the chunks promoted after
// the walk, so no collapse flushes a gather inside a tree traversal.
func (as *AddressSpace) CollapseRange(lo, hi uint64) int {
	// Clamp before rounding up: rounding a hi near 2^64 would wrap.
	lo &^= HugeSpan - 1
	hi = (min(hi, MaxAddress) + HugeSpan - 1) &^ (HugeSpan - 1)
	if lo >= hi {
		return 0
	}
	pin := as.sy.pin(lo, hi)
	defer pin.unlock()
	var regions []*vma.VMA
	// A region that begins below lo may still cover chunks inside the
	// span; the ascend below visits only starts in [lo, hi).
	if v := as.idx.lookup(lo); v != nil && v.Start() < lo {
		regions = append(regions, v)
	}
	as.idx.ascendRange(lo, hi, func(v *vma.VMA) bool {
		regions = append(regions, v)
		return true
	})
	promoted := 0
	for _, v := range regions {
		for chunk := max(lo, v.Start()&^(HugeSpan-1)); chunk < min(hi, v.End()); chunk += HugeSpan {
			if !hugeEligible(v, chunk) {
				continue
			}
			// No leaf table means unpopulated or already huge.
			if present, ok := as.tables.SurveyChunk(chunk); ok && present == pagetable.EntriesPerTable &&
				as.collapseChunk(chunk, v.Prot()&vma.ProtWrite != 0) {
				promoted++
			}
		}
	}
	return promoted
}
