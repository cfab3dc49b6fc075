package vm

import (
	"time"

	"bonsai/internal/trace"
	"bonsai/internal/vma"
)

// mapOp wraps one mapping operation with the always-on latency
// histogram and the tracer's enter/exit span events (paired on the
// request address). The trace cost is a nil check when disarmed.
func (as *AddressSpace) mapOp(op uint64, addr, length uint64, fn func() error) error {
	trace.Emit(as.mapCPU, trace.EvMapEnter, addr, op, length)
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	as.stats.mapHist.Record(elapsed)
	if trace.Armed() {
		if err != nil {
			op |= trace.OpErr
		}
		trace.Emit(as.mapCPU, trace.EvMapExit, addr, op, uint64(elapsed))
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
	err := as.mapOp(trace.OpMmap, addr, length, func() error {
		var err error
		base, err = as.mmapInner(addr, length, prot, flags, file, fileOff)
		return err
	})
	return base, err
}

func (as *AddressSpace) mmapInner(addr, length uint64, prot vma.Prot, flags vma.Flags,
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
	as.stats.mmaps.Add(1)

	// Planning phase: a fixed mapping has its range; any other searches
	// for a free one, under FaultLock beside running faults (§5.1).
	base := addr
	var mg mapGuard
	if flags&vma.Fixed != 0 {
		mg = as.sy.lock(base, base+length, true, true)
	} else {
		var ok bool
		if base, mg, ok = as.sy.reserve(pageDown(addr), length); !ok {
			return 0, ErrNoMemory
		}
	}
	defer mg.unlock()
	mg.mutate()
	if flags&vma.Fixed != 0 {
		// MAP_FIXED replaces whatever was there.
		as.munmapLocked(base, base+length)
	}
	as.mergeOrInsert(&mg, base, length, prot, flags, file, fileOff)
	return base, nil
}

// mergeOrInsert completes an mmap at [base, base+length): it extends an
// adjacent compatible predecessor in place (§4: "an mmap adjacent to an
// existing VMA may simply extend that VMA") or inserts a fresh region.
// The merge requires mg to cover the predecessor's extent; a merge it
// does not cover falls back to inserting a separate region, which is
// always correct.
func (as *AddressSpace) mergeOrInsert(mg *mapGuard, base, length uint64, prot vma.Prot, flags vma.Flags,
	file *vma.File, fileOff uint64) {
	if pred := as.idx.floor(base - 1); pred != nil && base > 0 &&
		pred.End() == base && pred.CanMerge(prot, flags, file, fileOff) &&
		mg.covers(pred.Start(), base) {
		pred.SetEnd(base + length)
		as.stats.merges.Add(1)
		return
	}
	as.idx.insert(vma.New(base, base+length, prot, flags, file, fileOff))
}

// Munmap removes all mappings intersecting [addr, addr+length). Both
// addr and length must be page-aligned (length is rounded up). Like the
// system call, unmapping a range with no mappings succeeds.
func (as *AddressSpace) Munmap(addr, length uint64) error {
	return as.mapOp(trace.OpMunmap, addr, length, func() error {
		return as.munmapInner(addr, length)
	})
}

func (as *AddressSpace) munmapInner(addr, length uint64) error {
	if addr%PageSize != 0 || length == 0 {
		return ErrInvalid
	}
	length = pageUp(length)
	if addr >= MaxAddress || length > MaxAddress-addr {
		return ErrInvalid
	}
	as.stats.munmaps.Add(1)
	mg := as.sy.lock(addr, addr+length, true, false)
	defer mg.unlock()
	mg.mutate()
	as.munmapLocked(addr, addr+length)
	return nil
}

// munmapLocked removes mappings in [lo, hi). The caller holds the
// mapping-operation exclusion covering the range and every straddling
// VMA's extent, and has entered the mutation phase.
//
// Region splitting follows Figure 10 exactly: when unmapping the middle
// of a VMA, the existing VMA's end is adjusted first (time 2) and the
// new top VMA is inserted second (time 3), so lock-free fault handlers
// can transiently observe the top range as unmapped — the VMA split
// race the RCU designs handle by retrying with the page pinned (§5.2).
func (as *AddressSpace) munmapLocked(lo, hi uint64) {
	// Collect overlapping regions: possibly one straddling lo, plus all
	// with start in [lo, hi).
	var overlaps []*vma.VMA
	if v := as.idx.floor(lo); v != nil && v.Start() < lo && v.Overlaps(lo, hi) {
		overlaps = append(overlaps, v)
	}
	as.idx.ascendRange(lo, hi, func(v *vma.VMA) bool {
		overlaps = append(overlaps, v)
		return true
	})

	for _, v := range overlaps {
		vLo, vHi := v.Start(), v.End()
		cutLo, cutHi := vLo, vHi
		if cutLo < lo {
			cutLo = lo
		}
		if cutHi > hi {
			cutHi = hi
		}
		switch {
		case cutLo == vLo && cutHi == vHi:
			// Fully covered: delete. The deleted mark is what the RCU
			// fault path's double check reads (§5.2).
			v.MarkDeleted()
			as.idx.remove(vLo)
		case cutLo == vLo:
			// Head trim. The tree is keyed by start, so the region is
			// replaced by a fresh VMA covering the tail.
			nv := as.splitTail(v, cutHi, vHi)
			v.MarkDeleted()
			as.idx.remove(vLo)
			as.idx.insert(nv)
		case cutHi == vHi:
			// Tail trim: Figure 10 time 2 — one atomic bound store.
			v.SetEnd(cutLo)
		default:
			// Middle split: Figure 10 times 2 and 3, in that order.
			nv := as.splitTail(v, cutHi, vHi)
			v.SetEnd(cutLo)
			as.idx.insert(nv)
			as.stats.splits.Add(1)
		}
	}

	// The cache may hold a deleted or trimmed VMA; drop it.
	as.mmapCache.Store(nil)

	// Zap the hardware page tables (Figure 11) and retire page frames
	// after a grace period.
	as.zapRange(lo, hi)
}

// splitTail builds the replacement VMA covering [newStart, end) of v,
// preserving its attributes and file linkage.
func (as *AddressSpace) splitTail(v *vma.VMA, newStart, end uint64) *vma.VMA {
	var off uint64
	if v.File() != nil {
		off = v.FileOffset(newStart)
	}
	return vma.New(newStart, end, v.Prot(), v.Flags(), v.File(), off)
}
