package vm

import (
	"sync/atomic"

	"bonsai/internal/trace"
	"bonsai/internal/vma"
)

// Mprotect changes the protection of every whole page in
// [addr, addr+length), splitting regions at the boundaries as the
// system call does. Both addr and length must be page-aligned (length
// is rounded up); unmapped gaps inside the range are an error
// (ENOMEM), checked before any change is applied.
//
// Concurrency follows the same RCU recipe as munmap (§5.2): affected
// VMAs are replaced — the old ones marked deleted — so lock-free fault
// handlers holding a stale VMA fail their double check and retry with
// the lock held, where they observe the new protection. A write-
// protecting change also clears the writable bit of existing PTEs
// under the PTE locks; a write-enabling change leaves PTEs read-only
// and lets write faults upgrade them on demand.
func (as *AddressSpace) Mprotect(addr, length uint64, prot vma.Prot) error {
	return as.mapOp(trace.OpMprotect, addr, length, func(op *opCtx) error {
		return as.mprotectInner(op, addr, length, prot)
	})
}

func (as *AddressSpace) mprotectInner(op *opCtx, addr, length uint64, prot vma.Prot) error {
	if addr%PageSize != 0 || length == 0 {
		return ErrInvalid
	}
	length = pageUp(length)
	if addr >= MaxAddress || length > MaxAddress-addr {
		return ErrInvalid
	}
	lo, hi := addr, addr+length

	atomic.AddUint64(&as.stats.op(op).Mprotects, 1)
	mg := as.sy.lock(op, lo, hi, true, false)
	defer mg.unlock()

	// Planning phase: collect the overlapping regions and verify the
	// range is fully mapped (POSIX mprotect fails with ENOMEM on gaps).
	overlaps := as.collectOverlaps(op, lo, hi)
	cursor := lo
	for _, v := range overlaps {
		if v.Start() > cursor {
			return ErrSegv // gap inside the range
		}
		if v.End() > cursor {
			cursor = v.End()
		}
	}
	if cursor < hi {
		return ErrSegv
	}

	mg.mutate()
	for _, v := range overlaps {
		if v.Prot() == prot {
			continue // nothing to change for this region
		}
		vLo, vHi := v.Start(), v.End()
		cutLo, cutHi := max(vLo, lo), min(vHi, hi)
		// Replace the region with up to three pieces; the old VMA is
		// marked deleted so stale lock-free lookups retry (§5.2). The
		// first piece starts where v did: inserting it replaces v.
		v.MarkDeleted()
		if cutLo > vLo {
			op.edits = append(op.edits, regionEdit{Key: vLo, Val: as.sliceVMA(v, vLo, cutLo, v.Prot())})
		}
		op.edits = append(op.edits, regionEdit{Key: cutLo, Val: as.sliceVMA(v, cutLo, cutHi, prot)})
		if cutHi < vHi {
			op.edits = append(op.edits, regionEdit{Key: cutHi, Val: as.sliceVMA(v, cutHi, vHi, v.Prot())})
		}
		if cutLo > vLo || cutHi < vHi {
			atomic.AddUint64(&as.stats.op(op).Splits, 1)
		}
	}
	as.commit(op)

	// Revoke write access from existing translations if the new
	// protection forbids writing: the downgrades batch into one gather
	// and pay a single shootdown flush (stale writable entries on other
	// cores must be invalidated before the downgrade is effective),
	// still inside the caller's mapping exclusion. A huge entry fully
	// inside the range downgrades in place; one straddling the boundary
	// is split (demoted to base pages) riding the same gather.
	g := &op.gather
	if prot&vma.ProtWrite == 0 {
		n, _ := as.tables.WriteProtectRange(g, lo, hi)
		g.Revoke(n)
		g.Flush() // no-op when nothing was narrowed or split
	} else {
		// A write-enabling change touches no translations — write faults
		// upgrade read-only PTEs on demand — but a read-only huge entry
		// straddling either boundary would later upgrade as one 2 MB
		// unit, widening pages outside the range. Demote straddlers to
		// base pages (the kernel's split_huge_pmd at unaligned mprotect
		// boundaries), riding one gather.
		loCut, hiCut := lo%HugeSpan != 0, hi%HugeSpan != 0
		if loCut {
			as.tables.SplitHuge(g, lo)
		}
		if hiCut && !(loCut && hi&^(HugeSpan-1) == lo&^(HugeSpan-1)) {
			as.tables.SplitHuge(g, hi)
		}
		g.Flush()
	}
	return nil
}

// sliceVMA builds the piece [lo, hi) of v with the given protection,
// preserving flags and file linkage.
func (as *AddressSpace) sliceVMA(v *vma.VMA, lo, hi uint64, prot vma.Prot) *vma.VMA {
	var off uint64
	if v.File() != nil {
		off = v.FileOffset(lo)
	}
	return vma.New(lo, hi, prot, v.Flags(), v.File(), off)
}
