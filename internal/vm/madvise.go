package vm

import (
	"sync/atomic"

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
// the operation holds its mapping-operation exclusion over the range,
// in its mutation phase, clears PTEs under the PTE locks, and defers
// frame frees past a grace period. Racing lock-free faults
// are benign: a fault that fills just before the zap loses its page to
// the zap; one that fills just after keeps it — both are legal
// MADV_DONTNEED outcomes.
func (as *AddressSpace) MadviseDontNeed(addr, length uint64) error {
	return as.mapOp(trace.OpMadvise, addr, length, func(op *opCtx) error {
		return as.madviseInner(op, addr, length)
	})
}

func (as *AddressSpace) madviseInner(op *opCtx, addr, length uint64) error {
	if addr%PageSize != 0 || length == 0 {
		return ErrInvalid
	}
	length = pageUp(length)
	if addr >= MaxAddress || length > MaxAddress-addr {
		return ErrInvalid
	}
	atomic.AddUint64(&as.stats.op(op).Madvises, 1)
	// The zap mutates no VMA, so the exclusion need not cover straddling
	// regions (their bounds are untouched).
	mg := as.sy.lock(op, addr, addr+length, false, false)
	defer mg.unlock()
	mg.mutate()
	as.zapRange(op, addr, addr+length)
	return nil
}

// zapRange clears the translations of [lo, hi) through op's TLB gather:
// the unmap scan accumulates every revoked translation (and the page
// tables the range fully covered) into the batch, and the single flush
// at the end pays one shootdown charge for all of them — inside
// whatever exclusion the caller holds, which is the point: the global
// semaphore serializes the wait, range locks overlap it across
// disjoint operations. The caller holds the mapping-operation
// exclusion for [lo, hi) with the mutation phase entered; a disjoint
// operation may be zapping concurrently (the PTE and page-directory
// locks make that safe). The batch's frames are
// released after the flush and past a grace period, on the domain's
// background detector — the unmap scan performs no grace-period wait,
// even though it runs with PTE locks held (a synchronous drain here is
// the deadlock the asynchronous design exists to prevent).
func (as *AddressSpace) zapRange(op *opCtx, lo, hi uint64) {
	g := &op.gather
	unmapped := uint64(0) // one add per zap, not one per page
	as.tables.UnmapRange(g, lo, hi, func(addr, pte uint64) {
		if pte&pagetable.PTEHuge != 0 {
			// A whole huge entry: its run is private anonymous memory
			// (hugeEligible), never a cache page.
			unmapped += pagetable.EntriesPerTable
			return
		}
		unmapped++
		// A frame resident in a page cache carries an rmap entry for
		// this PTE; drop it here, inside the PTE lock that cleared the
		// entry, so the removal is ordered before any refault re-adds
		// the same (space, vaddr) slot.
		if pg := as.fam.ms.reg.Lookup(pagetable.PTEFrame(pte)); pg != nil {
			pg.RemoveMapping(as, addr)
		}
	})
	atomic.AddUint64(&as.stats.op(op).PagesUnmapped, unmapped)
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
	st := as.stats.unslotted()
	atomic.AddUint64(&st.PagesUnmapped, 1)
	atomic.AddUint64(&st.EvictUnmaps, 1)
	g.Page(vaddr, f)
	return true
}
