package vm

import (
	"sync/atomic"
	"time"

	"bonsai/internal/trace"
	"bonsai/internal/vma"
)

// clockBase anchors mapOpIn's monotonic clock readings.
var clockBase = time.Now()

// mapOp is the entry of every mapping operation: it takes the
// operation's context (opCtx) for the length of fn.
func (as *AddressSpace) mapOp(code uint64, addr, length uint64, fn func(op *opCtx) error) error {
	op := as.beginOp()
	defer op.end()
	return as.mapOpIn(op, code, addr, length, fn)
}

// mapOpIn runs fn in op, wrapped with the always-on latency histogram,
// recorded in op's slot, and the tracer's enter/exit span events (paired
// on the request address). The trace cost is a nil check when disarmed.
func (as *AddressSpace) mapOpIn(op *opCtx, code uint64, addr, length uint64, fn func(op *opCtx) error) error {
	trace.Emit(as.mapCPU, trace.EvMapEnter, addr, code, length)
	start := time.Since(clockBase) // the monotonic clock alone: half a time.Now
	err := fn(op)
	elapsed := time.Since(clockBase) - start
	as.stats.slot.At(op.slot).hist.Record(elapsed)
	if trace.Armed() {
		if err != nil {
			code |= trace.OpErr
		}
		trace.Emit(as.mapCPU, trace.EvMapExit, addr, code, uint64(elapsed))
	}
	return err
}

// Mmap creates a mapping of length bytes and returns its base address.
//
// If flags includes vma.Fixed, the mapping is placed exactly at addr
// (which must be page-aligned) and silently replaces any existing
// mappings there, as MAP_FIXED does. Otherwise addr is a hint and the
// kernel picks the first free range at or above it (or UnmappedBase).
//
// An anonymous mapping adjacent and compatible with an existing region
// extends that region instead of creating a new one (§4: "an mmap
// adjacent to an existing VMA may simply extend that VMA").
func (as *AddressSpace) Mmap(addr, length uint64, prot vma.Prot, flags vma.Flags,
	file *vma.File, fileOff uint64) (uint64, error) {
	var base uint64
	err := as.mapOp(trace.OpMmap, addr, length, func(op *opCtx) error {
		var err error
		base, err = as.mmapInner(op, addr, length, prot, flags, file, fileOff)
		return err
	})
	return base, err
}

func (as *AddressSpace) mmapInner(op *opCtx, addr, length uint64, prot vma.Prot, flags vma.Flags,
	file *vma.File, fileOff uint64) (uint64, error) {
	if length == 0 {
		return 0, ErrInvalid
	}
	length = pageUp(length)
	if flags&vma.Fixed != 0 {
		if addr%PageSize != 0 {
			return 0, ErrInvalid
		}
		if addr >= MaxAddress || length > MaxAddress-addr {
			return 0, ErrInvalid
		}
	}
	if file == nil {
		flags |= vma.Anon
	} else {
		// File pages are cached at page granularity, so the mapping's
		// file offset must be page-aligned (as the system call requires)
		// and leave the cache's offset space room for the mapping span.
		if fileOff%PageSize != 0 || fileOff >= maxFileOffset {
			return 0, ErrInvalid
		}
		// First mapping of the file in this family builds its shared
		// page cache and attaches the handle the fault path reads.
		if err := as.registerFile(file); err != nil {
			return 0, err
		}
	}
	atomic.AddUint64(&as.stats.op(op).Mmaps, 1)

	// Planning phase: a fixed mapping has its range; any other searches
	// for a free one, under FaultLock beside running faults (§5.1).
	base := addr
	var mg mapGuard
	if flags&vma.Fixed != 0 {
		mg = as.sy.lock(op, base, base+length, true, true)
	} else {
		var ok bool
		if base, mg, ok = as.sy.reserve(op, pageDown(addr), length); !ok {
			return 0, ErrNoMemory
		}
	}
	defer mg.unlock()
	mg.mutate()
	if flags&vma.Fixed != 0 && as.unmapRegions(op, base, base+length) {
		// MAP_FIXED replaces whatever was there: the old regions are cut
		// by now (no fault fills through them), and their translations go
		// before the new region appears. A range no VMA overlapped has
		// none — translations exist only inside VMAs — so it is not
		// walked, and the empty tables under it stay for the new faults.
		as.zapRange(op, base, base+length)
	}
	as.mergeOrInsert(op, &mg, base, length, prot, flags, file, fileOff)
	as.commit(op)
	return base, nil
}

// mergeOrInsert completes an mmap at [base, base+length): it extends an
// adjacent compatible predecessor in place (§4: "an mmap adjacent to an
// existing VMA may simply extend that VMA") or inserts a fresh region.
// The merge requires mg to cover the predecessor's extent; a merge it
// does not cover falls back to inserting a separate region, which is
// always correct.
func (as *AddressSpace) mergeOrInsert(op *opCtx, mg *mapGuard, base, length uint64, prot vma.Prot, flags vma.Flags,
	file *vma.File, fileOff uint64) {
	if pred := as.idx.floor(base - 1); pred != nil && base > 0 &&
		pred.End() == base && pred.CanMerge(prot, flags, file, fileOff) &&
		mg.covers(pred.Start(), base) {
		pred.SetEnd(base + length)
		atomic.AddUint64(&as.stats.op(op).Merges, 1)
		return
	}
	op.edits = append(op.edits, regionEdit{Key: base, Val: vma.New(base, base+length, prot, flags, file, fileOff)})
}

// Munmap removes all mappings intersecting [addr, addr+length). Both
// addr and length must be page-aligned (length is rounded up). Like the
// system call, unmapping a range with no mappings succeeds.
func (as *AddressSpace) Munmap(addr, length uint64) error {
	return as.mapOp(trace.OpMunmap, addr, length, func(op *opCtx) error {
		return as.munmapInner(op, addr, length)
	})
}

func (as *AddressSpace) munmapInner(op *opCtx, addr, length uint64) error {
	if addr%PageSize != 0 || length == 0 {
		return ErrInvalid
	}
	length = pageUp(length)
	if addr >= MaxAddress || length > MaxAddress-addr {
		return ErrInvalid
	}
	atomic.AddUint64(&as.stats.op(op).Munmaps, 1)
	mg := as.sy.lock(op, addr, addr+length, true, false)
	defer mg.unlock()
	mg.mutate()
	as.munmapLocked(op, addr, addr+length)
	return nil
}

// munmapLocked removes mappings in [lo, hi): the regions, then — whether
// or not there were any — the translations, because the zap is also what
// frees the page tables the range covers, empty ones included (Close's
// whole-space unmap returns every table that way). The caller holds the
// mapping-operation exclusion covering the range and every straddling
// VMA's extent, and has entered the mutation phase.
func (as *AddressSpace) munmapLocked(op *opCtx, lo, hi uint64) {
	as.unmapRegions(op, lo, hi)
	as.commit(op)
	// Zap the hardware page tables (Figure 11) and retire page frames
	// after a grace period.
	as.zapRange(op, lo, hi)
}

// unmapRegions cuts [lo, hi) out of the region tree under munmapLocked's
// hold, reporting whether any VMA overlapped it: bounds move at once,
// the tree's own changes join op's transaction for the caller to commit.
//
// Region splitting follows Figure 10: when unmapping the middle of a
// VMA, the existing VMA's end is adjusted first (time 2) and the new
// top VMA is inserted second (time 3, the commit), so lock-free fault
// handlers can transiently observe the top range as unmapped — the VMA
// split race the RCU designs handle by retrying with the page pinned
// (§5.2).
func (as *AddressSpace) unmapRegions(op *opCtx, lo, hi uint64) bool {
	overlaps := as.collectOverlaps(op, lo, hi)
	if len(overlaps) == 0 {
		return false
	}
	for _, v := range overlaps {
		vLo, vHi := v.Start(), v.End()
		cutLo, cutHi := max(vLo, lo), min(vHi, hi)
		switch {
		case cutLo == vLo && cutHi == vHi:
			// Fully covered: delete. The deleted mark is what the RCU
			// fault path's double check reads (§5.2).
			v.MarkDeleted()
			op.edits = append(op.edits, regionEdit{Key: vLo, Delete: true})
		case cutLo == vLo:
			// Head trim. The tree is keyed by start, so the region is
			// replaced by a fresh VMA covering the tail.
			v.MarkDeleted()
			op.edits = append(op.edits, regionEdit{Key: vLo, Delete: true},
				regionEdit{Key: cutHi, Val: as.sliceVMA(v, cutHi, vHi, v.Prot())})
		case cutHi == vHi:
			// Tail trim: Figure 10 time 2 — one atomic bound store.
			v.SetEnd(cutLo)
		default:
			// Middle split: Figure 10 times 2 and 3, in that order.
			nv := as.sliceVMA(v, cutHi, vHi, v.Prot())
			v.SetEnd(cutLo)
			op.edits = append(op.edits, regionEdit{Key: cutHi, Val: nv})
			atomic.AddUint64(&as.stats.op(op).Splits, 1)
		}
	}
	return true
}
