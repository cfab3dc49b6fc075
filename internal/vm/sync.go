package vm

import (
	"bonsai/internal/fail"
	"bonsai/internal/locks"
	"bonsai/internal/ranges"
	"bonsai/internal/stats"
)

// syncPolicy is the synchronization seam: an address space's whole lock
// set above the page tables, and every rule about it. The §5 designs
// differ in two decisions — how a fault reads the region tree, and what
// a mapping operation excludes — and this file is the only one that
// knows either; the fault, mapping, fork, THP and inspection code is
// written once against the four questions the policy answers:
//
//  1. fault read side: enter/exit bracket one fast-path attempt,
//     readExcludesMapOps says whether that hold keeps mapping operations
//     from mutating (no §5.2 recheck, copy-on-write breaks in place),
//     and keepsMmapCache whether faults keep the mmap cache (§6);
//  2. pin: hold an interval's mappings still while faults keep running;
//  3. mapping-operation exclusion: lock, lockAll and reserve return the
//     mapGuard an operation mutates under, which also carries the
//     FaultLock mutation phase (§5.1);
//  4. index lock: init builds the one region index with Hybrid's tree
//     lock or with none, and the index takes it around every access.
//
// Config.Design chooses the policy:
//
//	                fault read side    pin / mapping-op exclusion
//	RWLock          mmapSem read       mmapSem read / write
//	FaultLock       faultSem read      mmapSem read / write, + faultSem write to mutate
//	Hybrid          RCU + treeSem      range lock on the interval
//	PureRCU         RCU                range lock on the interval
//
// Every design indexes its VMAs in the same BONSAI trees (index.go);
// only Hybrid wraps them in a lock, as if they still rotated in place
// (§5.2). Both columns follow from whether the fault read side is an RCU
// section. The RCU designs' range-locked mapping side goes beyond the
// paper, which leaves mapping operations serialized on mmap_sem.
type syncPolicy struct {
	// readSem is what a fast-path fault read-locks while it reads the
	// region tree and fills the page: mmapSem (RWLock), faultSem
	// (FaultLock), or nil — only the CPU's RCU read section, no lock
	// (Hybrid, PureRCU).
	readSem *locks.RWSem

	// mmapSem serializes RWLock's and FaultLock's mapping operations;
	// RWLock faults also read-lock it (§4.1).
	mmapSem locks.RWSem
	// faultSem is FaultLock's fault lock: faults read-lock it, mapping
	// operations write-lock it around their mutation phase only (§5.1).
	faultSem locks.RWSem
	// treeSem is the Hybrid region tree's lock (§5.2), taken by the tree
	// itself on every access.
	treeSem locks.RWSem
	// rl replaces mmapSem on Hybrid's and PureRCU's mapping side (nil
	// under RWLock and FaultLock): an operation locks only the interval
	// it affects, so operations on disjoint ranges run concurrently.
	rl *ranges.Manager

	idx *regionIndex
}

// init chooses the policy and builds the region index, the same for
// every design: only Hybrid's takes treeSem on every access. Only the
// RCU designs range-lock: the others' faults hold mmapSem (or a lock
// nested in it) against mapping operations.
func (p *syncPolicy) init(cfg Config) {
	var treeSem *locks.RWSem
	switch cfg.Design {
	case PureRCU:
		p.rl = new(ranges.Manager)
	case Hybrid:
		treeSem = &p.treeSem
		p.rl = new(ranges.Manager)
	case FaultLock:
		p.readSem = &p.faultSem
	default:
		p.readSem = &p.mmapSem
	}
	p.idx = newRegionIndex(treeSem)
}

// enter begins one fast-path fault attempt on c; exit ends it.
func (p *syncPolicy) enter(c *CPU) {
	if p.readSem != nil {
		p.readSem.RLock()
	} else {
		c.rd.Lock()
	}
}

func (p *syncPolicy) exit(c *CPU) {
	if p.readSem != nil {
		p.readSem.RUnlock()
	} else {
		c.rd.Unlock()
	}
}

// readExcludesMapOps reports whether the hold enter takes keeps every
// mapping operation out of its mutation phase. An RCU read section does
// not, so those faults double-check the VMA under the PTE lock (§5.2)
// and send copy-on-write breaks to the retry-with-lock path (§6).
func (p *syncPolicy) readExcludesMapOps() bool { return p.readSem != nil }

// keepsMmapCache reports whether faults keep stock Linux's mmap cache
// (§6): only the lock-based designs do (lookup says why).
func (p *syncPolicy) keepsMmapCache() bool { return p.readSem != nil }

// mapGuard is one hold on the mapping side: a pin, or the exclusion a
// mapping operation mutates under.
type mapGuard struct {
	p        *syncPolicy   // nil: nothing is held (pinIndex under range locking)
	g        *ranges.Guard // the held range; nil on the global semaphore
	shared   bool          // mmapSem in read mode: a pin
	mutating bool          // FaultLock's mutation phase was entered
}

// pin holds [lo, hi)'s mappings still while faults keep running: no
// mapping operation can change a VMA overlapping the interval until the
// guard is unlocked, so a fill under it needs no recheck. Under range
// locking that follows from the covering invariant (extendHeld) —
// whoever mutates a VMA holds a range covering its whole extent, which
// overlaps any pin inside it. Range pins are exclusive where mmapSem's read mode is
// shared, but pins of disjoint intervals never wait on each other.
func (p *syncPolicy) pin(lo, hi uint64) mapGuard {
	if p.rl != nil {
		return mapGuard{p: p, g: p.rl.Lock(lo, hi)}
	}
	p.mmapSem.RLock()
	return mapGuard{p: p, shared: true}
}

// pinIndex is pin with no interval: the hold a thread that is not
// faulting needs to read the region tree, promising nothing about what
// it finds there. On the global semaphore that is still mmapSem in read
// mode, so RWLock's and FaultLock's readers never see a mapping
// operation half done, as in stock Linux; under Hybrid and PureRCU the
// index synchronizes its own readers, so a reader such as RegionCount
// takes no range and never queues behind a mapping operation in flight.
func (p *syncPolicy) pinIndex() mapGuard {
	if p.rl != nil {
		return mapGuard{}
	}
	return p.pin(0, 0)
}

// lock acquires a mapping operation's exclusion over [lo, hi). With
// cover set, the operation may mutate VMAs (munmap, mprotect, mmap), so
// a range lock is widened to the full extent of every VMA straddling
// either end and, with mergePred, of a region ending exactly at lo that
// mmap may extend in place. Without it (a zap, which changes no VMA)
// the range is locked as given, and touching ranges stay concurrent.
// A range lock is held in op's own guard.
func (p *syncPolicy) lock(op *opCtx, lo, hi uint64, cover, mergePred bool) mapGuard {
	if p.rl == nil {
		return p.lockAll(op)
	}
	if !cover {
		p.rl.LockGuard(&op.guard, lo, hi)
		return mapGuard{p: p, g: &op.guard}
	}
	// Ask for the cover as it looks now; extendHeld checks it again once
	// the range is held, when the answer is stable.
	nlo, nhi := p.requiredCover(lo, hi, mergePred)
	p.rl.LockGuard(&op.guard, nlo, nhi)
	p.extendHeld(&op.guard, lo, hi, mergePred)
	return mapGuard{p: p, g: &op.guard}
}

// lockAll acquires the exclusion for the whole address space (fork,
// Close, stack growth). As a range lock that is [0, MaxAddress): all 16
// stripes, taken in index order, and at each stripe it queues on later
// conflicting requests line up behind it, so a stream of small disjoint
// operations cannot starve it.
func (p *syncPolicy) lockAll(op *opCtx) mapGuard {
	if p.rl != nil {
		p.rl.LockGuard(&op.guard, 0, MaxAddress)
		return mapGuard{p: p, g: &op.guard}
	}
	p.mmapSem.Lock()
	return mapGuard{p: p}
}

// reserve finds and locks a free range of length bytes at or above hint
// for a non-fixed mmap. On the global semaphore the search is the
// operation's planning phase: it runs under mmapSem, and under FaultLock
// beside faults (§5.1). Under range locking the gap is reserved by the
// protocol every other mapping operation uses: find a candidate, lock
// it with mmap's cover, then re-check it under the held range. A
// concurrent mmap that won the race to the same gap has inserted its
// region by the time the loser holds the range, so the re-check sees it
// and the loser unlocks and searches again; each loss is another
// mmap's insertion, so the loop makes progress.
func (p *syncPolicy) reserve(op *opCtx, hint, length uint64) (uint64, mapGuard, bool) {
	if p.rl == nil {
		mg := p.lockAll(op)
		base, ok := p.findGap(hint, length)
		if !ok {
			mg.unlock()
		}
		return base, mg, ok
	}
	for {
		base, ok := p.findGap(hint, length)
		if !ok {
			return 0, mapGuard{}, false
		}
		reserveGapPoint.Yield()
		mg := p.lock(op, base, base+length, true, true)
		if p.gapFree(op, base, base+length) {
			return base, mg, true
		}
		mg.unlock()
	}
}

// gapFree reports whether no VMA overlaps [lo, hi): none contains lo
// and none starts inside. It collects into op.overlaps.
func (p *syncPolicy) gapFree(op *opCtx, lo, hi uint64) bool {
	if p.idx.lookup(lo) != nil {
		return false
	}
	op.overlaps = op.overlaps[:0]
	p.idx.ascendRange(lo, hi, op.collect)
	return len(op.overlaps) == 0
}

// reserveGapPoint is the gap race's schedule point (fail.Point.Yield):
// a gap found, not yet locked.
var reserveGapPoint = fail.NewPoint("vm.reserve-gap")

// findGap finds the lowest free [base, base+length) with
// base >= max(hint, UnmappedBase) in the region tree as it stands.
func (p *syncPolicy) findGap(hint, length uint64) (uint64, bool) {
	start := max(hint, UnmappedBase)
	if v := p.idx.lookup(start); v != nil {
		start = v.End()
	}
	for {
		if start >= MaxAddress || MaxAddress-start < length {
			return 0, false
		}
		if next := p.idx.ceiling(start); next != nil && next.Start()-start < length {
			start = next.End()
			continue
		}
		return start, true
	}
}

// extendHeld widens a held range lock to what lock's cover asks for:
// while the cover the operation on [lo, hi) requires outgrows the
// guard, drop it and re-acquire a wider one — never widening while
// held, so two neighbors expanding toward each other cannot deadlock.
// Growth is monotone and bounded by the address space, so the loop
// terminates.
//
// The resulting invariant, relied on throughout the mapping side: a VMA
// is only ever mutated (bounds adjusted, deleted, replaced) by an
// operation whose held range covers the VMA's entire extent. Two
// operations touching the same VMA therefore always conflict, while
// operations on disjoint VMAs proceed in parallel.
func (p *syncPolicy) extendHeld(g *ranges.Guard, lo, hi uint64, mergePred bool) {
	for {
		nlo, nhi := p.requiredCover(lo, hi, mergePred)
		if g.Covers(nlo, nhi) {
			return
		}
		if nlo > g.Lo() {
			nlo = g.Lo()
		}
		if nhi < g.Hi() {
			nhi = g.Hi()
		}
		g.Unlock()
		p.rl.LockGuard(g, nlo, nhi)
	}
}

// requiredCover returns the interval a mapping operation on [lo, hi)
// must hold exclusively: [lo, hi) widened to the extents of straddling
// VMAs (and, for mmap, a merge-candidate predecessor touching lo). The
// answer is stable only once a range covering it is held, which is why
// extendHeld asks again after every acquisition.
func (p *syncPolicy) requiredCover(lo, hi uint64, mergePred bool) (uint64, uint64) {
	nlo, nhi := lo, hi
	for _, at := range [2]uint64{lo, hi - 1} {
		if v := p.idx.lookup(at); v != nil {
			nlo, nhi = min(nlo, v.Start()), max(nhi, v.End())
		}
	}
	if mergePred && lo > 0 {
		if pred := p.idx.lookup(lo - 1); pred != nil {
			nlo = min(nlo, pred.Start())
		}
	}
	return nlo, nhi
}

// mutate enters the operation's mutation phase: under FaultLock it
// write-locks faultSem, stopping faults, which ran beside the planning
// phase until now (§5.1); the paper releases the fault lock only with
// mmap_sem, and so does unlock. Everywhere else it is a no-op — the
// exclusion already stops every fault that must stop.
func (mg *mapGuard) mutate() {
	if mg.p.readSem == &mg.p.faultSem && !mg.mutating {
		mg.p.faultSem.Lock()
		mg.mutating = true
	}
}

// covers reports whether the operation may mutate a VMA spanning
// [lo, hi): always on the global semaphore, and under range locking
// only if the held range covers it — mutating a VMA outside it would
// race with a disjoint operation.
func (mg *mapGuard) covers(lo, hi uint64) bool {
	return mg.g == nil || mg.g.Covers(lo, hi)
}

func (mg *mapGuard) unlock() {
	switch {
	case mg.p == nil:
	case mg.g != nil:
		mg.g.Unlock()
	case mg.shared:
		mg.p.mmapSem.RUnlock()
	default:
		if mg.mutating {
			mg.p.faultSem.Unlock()
		}
		mg.p.mmapSem.Unlock()
	}
}

// SemStats exposes the semaphore counters for contention analysis: how
// often each lock was taken and how often acquisition had to sleep —
// the accounting behind the paper's §7.2 lock-contention breakdown.
func (as *AddressSpace) SemStats() (mmapSem, faultSem, treeSem locks.RWSemStats) {
	return as.sy.mmapSem.Stats(), as.sy.faultSem.Stats(), as.sy.treeSem.Stats()
}

// RangeStats exposes the range-lock manager's counters: acquisitions,
// those that waited on a conflicting range, and MaxHeld, each stripe's
// most locks held at once, summed (an upper bound on the parallelism the
// global mmap_sem pins at 1). Acquires include the fault path's
// retry-with-lock ones (about Stats().Retries()): subtract them before
// reading it as mapping-operation volume. Zeros for RWLock and FaultLock.
func (as *AddressSpace) RangeStats() ranges.Stats {
	if as.sy.rl == nil {
		return ranges.Stats{}
	}
	return as.sy.rl.Stats()
}

// rangeWaitHist is the contended range-lock wait histogram, nil for
// RWLock and FaultLock.
func (as *AddressSpace) rangeWaitHist() *stats.LatencyHist {
	if as.sy.rl == nil {
		return nil
	}
	return as.sy.rl.WaitHist()
}

// RangeGuards snapshots the live range-lock table — held ranges and
// queued waiters with guard ids and ages — for /proc/locks-style
// introspection. ok is false for RWLock and FaultLock, which have no
// range table.
func (as *AddressSpace) RangeGuards() ([]ranges.GuardInfo, bool) {
	if as.sy.rl == nil {
		return nil, false
	}
	return as.sy.rl.Guards(), true
}
