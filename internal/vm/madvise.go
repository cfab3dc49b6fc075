package vm

import (
	"bonsai/internal/pagetable"
	"bonsai/internal/physmem"
	"bonsai/internal/tlb"
	"bonsai/internal/trace"
)

// MadviseDontNeed discards the pages of [addr, addr+length), as
// madvise(MADV_DONTNEED) does: the regions stay mapped, but every
// present page in the range is zapped (its frame RCU-delay-freed,
// exactly like the Figure 11 unmap scan), so the next access faults a
// fresh demand-zero or file-backed page. Unmapped gaps in the range
// are permitted, as in Linux.
//
// Concurrency is the munmap protocol minus the region-tree changes:
// the operation holds mmap_sem in write mode (and the fault lock's
// mutation phase under FaultLock), clears PTEs under the PTE locks,
// and defers frame frees past a grace period. Racing lock-free faults
// are benign: a fault that fills just before the zap loses its page to
// the zap; one that fills just after keeps it — both are legal
// MADV_DONTNEED outcomes.
func (as *AddressSpace) MadviseDontNeed(addr, length uint64) error {
	return as.mapOp(trace.OpMadvise, addr, length, func() error {
		return as.madviseInner(addr, length)
	})
}

func (as *AddressSpace) madviseInner(addr, length uint64) error {
	if addr%PageSize != 0 || length == 0 {
		return ErrInvalid
	}
	length = pageUp(length)
	if addr >= MaxAddress || length > MaxAddress-addr {
		return ErrInvalid
	}
	if as.rl != nil {
		// The zap mutates no VMA, so the lock covers exactly the
		// operation range — straddling regions need no protection
		// (their bounds are untouched) and touching ranges stay
		// concurrent.
		as.stats.madvises.Add(1)
		g := as.rl.Lock(addr, addr+length)
		defer g.Unlock()
		as.zapRange(addr, addr+length)
		return nil
	}
	as.mmapSem.Lock()
	defer as.mmapSem.Unlock()
	as.stats.madvises.Add(1)

	as.beginMutate()
	defer as.endMutate()
	as.zapRange(addr, addr+length)
	return nil
}

// zapRange clears the translations of [lo, hi) through one TLB gather:
// the unmap scan accumulates every revoked translation (and the page
// tables the range fully covered) into the batch, and the single flush
// at the end pays one shootdown charge for all of them — inside
// whatever exclusion the caller holds, which is the point: the global
// designs serialize the wait on mmap_sem, the range-locked designs
// overlap it across disjoint operations. The caller holds the
// mapping-operation exclusion for [lo, hi) — mmap_sem in write mode
// with the mutation phase entered, or a range lock covering the range,
// in which case a disjoint operation may be zapping concurrently (the
// PTE and page-directory locks make that safe). The batch's frames are
// released after the flush and past a grace period, on the domain's
// background detector — the unmap scan performs no grace-period wait,
// even though it runs with PTE locks held (a synchronous drain here is
// the deadlock the asynchronous design exists to prevent).
func (as *AddressSpace) zapRange(lo, hi uint64) {
	// Shard hint for the batch's deferred release. With the global
	// semaphore only one mapping operation runs at a time, so the
	// dedicated mapping shard is uncontended; under range locking many
	// disjoint unmaps retire concurrently, so spread them across shards
	// by address (2 MB granularity) instead of re-serializing on one
	// shard mutex.
	hint := as.mapCPU
	if as.rl != nil {
		hint = as.mapCPU + int(lo>>21)
	}
	g := as.fam.ms.tlb.Gather(hint)
	unmapped := uint64(0) // one shared add per zap, not one per page
	as.tables.UnmapRange(g, lo, hi, func(addr, pte uint64) {
		frame := pagetable.PTEFrame(pte)
		unmapped++
		// A frame resident in a page cache carries an rmap entry for
		// this PTE; drop it here, inside the PTE lock that cleared the
		// entry, so the removal is ordered before any refault re-adds
		// the same (space, vaddr) slot.
		if pg := as.fam.ms.reg.Lookup(frame); pg != nil {
			pg.RemoveMapping(as, addr)
		}
	})
	as.stats.pagesUnmapped.Add(unmapped)
	g.Flush()
}

// EvictPTE implements pagecache.MappingOwner: the reclaim scan calls
// it, rmap entry by rmap entry, to revoke the translation at vaddr if
// it still maps frame f, accumulating the revocation into the scan's
// batch gather. The caller is inside an RCU read-side critical section
// (the page-table walk is lock-free) and holds no cache lock, so the
// only lock taken here is the leaf PTE lock — the same level a fault's
// fill takes. A cleared entry's mapping reference is retired by the
// gather's flush, past the batch shootdown and a grace period; the
// rmap entry itself is deleted by the scan's bookkeeping phase
// (generation-checked against a concurrent refault).
func (as *AddressSpace) EvictPTE(g *tlb.Gather, vaddr uint64, f physmem.Frame) bool {
	if !as.tables.ClearPTEIfFrame(vaddr, f) {
		return false
	}
	as.stats.pagesUnmapped.Add(1)
	as.stats.evictUnmaps.Add(1)
	g.Page(vaddr, f)
	return true
}
