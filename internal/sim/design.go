package sim

import (
	"bonsai/internal/vm"
)

// Params are the calibrated cost constants of the simulation. The
// anchors come from the paper itself (Figure 17 and §7.3):
//
//   - ≈7,400 cycles per fault at 10 cores in every design (Fig. 17);
//   - ≈8,869 cycles per fault at 80 cores for pure RCU (Fig. 17),
//     attributed to "slight non-scalability in the Linux page
//     allocator";
//   - lock-based designs "more than an order of magnitude" worse at 80
//     cores (Fig. 17);
//   - pure RCU sustaining ≈20 million faults/second at 80 cores (§7.3).
type Params struct {
	// BaseFault is the real work of a soft fault: VMA lookup, page
	// allocation, page zeroing, PTE fill (cycles).
	BaseFault uint64
	// AllocSlope is the page allocator's extra cycles per active core
	// (its "slight non-scalability").
	AllocSlope uint64
	// TreeLookup is the region-tree lookup portion of a fault; the
	// Hybrid design holds its tree lock for exactly this long (§5.2).
	TreeLookup uint64
	// MmapPlan is a mapping operation's read-only planning phase
	// (cycles); under FaultLock it runs without the fault lock (§5.1).
	MmapPlan uint64
	// MmapWork is a mapping operation's mutation phase: region updates
	// plus the page-table zap of Figure 11 (cycles).
	MmapWork uint64
	// TreeWork is the portion of MmapWork spent inside region-tree
	// mutations (what Hybrid holds its tree lock for).
	TreeWork uint64
	// WakeCycles is the sleep/wake overhead of semaphore waiters.
	WakeCycles uint64
	// ShootdownBase and ShootdownPerCore model the TLB-shootdown IPI
	// broadcast an munmap performs while holding its locks: a fixed
	// dispatch cost plus a per-responding-core cost. This is the
	// mapping-operation component that inherently grows with core
	// count and is what ultimately serializes Psearchy (§7.2, §8).
	// The executable system pays one flush per batched gather, costed at
	// its own work (tlb.flush-delay injects a slow acknowledgement); it
	// has no counterpart of these parameters.
	ShootdownBase    uint64
	ShootdownPerCore uint64
}

// DefaultParams is the calibration used by the harness.
var DefaultParams = Params{
	BaseFault:        7150,
	AllocSlope:       21,
	TreeLookup:       600,
	MmapPlan:         20_000,
	MmapWork:         210_000,
	TreeWork:         9_000,
	WakeCycles:       9_000,
	ShootdownBase:    2_000,
	ShootdownPerCore: 1_200,
}

// shootdown is the TLB-invalidation broadcast cost at this core count.
func (e *Env) shootdown() uint64 {
	return e.P.ShootdownBase + e.P.ShootdownPerCore*uint64(e.Cores)
}

// Env is the simulated address space: the lock set shared by all cores
// under one design.
type Env struct {
	P        Params
	Design   vm.Design
	Cores    int // active cores (for the allocator slope)
	mmapSem  *VSem
	faultSem *VSem
	treeSem  *VSem
}

// NewEnv builds the lock environment for a design.
func NewEnv(s *Sim, d vm.Design, p Params, cores int) *Env {
	return &Env{
		P:      p,
		Design: d,
		Cores:  cores,
		// mmap_sem and the fault lock are full rw_semaphores; the
		// Hybrid design's tree lock is a plain rwlock (§5.2).
		mmapSem:  NewVSem(s, p.WakeCycles, true),
		faultSem: NewVSem(s, p.WakeCycles, true),
		treeSem:  NewVSem(s, p.WakeCycles, false),
	}
}

// faultCost is the uncontended fault service time at this core count.
func (e *Env) faultCost() uint64 {
	return e.P.BaseFault + e.P.AllocSlope*uint64(e.Cores)
}

// Fault simulates one soft page fault under the design's protocol.
func (e *Env) Fault(c *Ctx) {
	c.BeginOp()
	switch e.Design {
	case vm.RWLock:
		// §4.1: mmap_sem read-locked around the whole fault.
		e.mmapSem.RLock(c)
		c.ComputeSys(e.faultCost())
		e.mmapSem.RUnlock(c)
	case vm.FaultLock:
		// §5.1: the fault lock replaces mmap_sem in the fault path.
		e.faultSem.RLock(c)
		c.ComputeSys(e.faultCost())
		e.faultSem.RUnlock(c)
	case vm.Hybrid:
		// §5.2: no mmap_sem; only the tree lock, held for the lookup.
		e.treeSem.RLock(c)
		c.ComputeSys(e.P.TreeLookup)
		e.treeSem.RUnlock(c)
		c.ComputeSys(e.faultCost() - e.P.TreeLookup)
	case vm.PureRCU:
		// §5.3: no locks, no shared-line writes at all.
		c.ComputeSys(e.faultCost())
	}
	c.EndOp()
}

// Mmap simulates one memory-mapping operation (an mmap or munmap)
// under the design's protocol. All designs serialize mapping operations
// on mmap_sem; they differ in which lock excludes faults and for how
// long (§5).
func (e *Env) Mmap(c *Ctx) {
	c.BeginOp()
	e.mmapSem.Lock(c)
	work := e.P.MmapWork + e.shootdown()
	switch e.Design {
	case vm.RWLock:
		// Faults are already excluded by mmap_sem itself.
		c.ComputeSys(e.P.MmapPlan + work)
	case vm.FaultLock:
		// Planning overlaps faults; only the mutation phase excludes
		// them (§5.1). The fault lock is held until mmap_sem releases.
		c.ComputeSys(e.P.MmapPlan)
		e.faultSem.Lock(c)
		c.ComputeSys(work)
		e.faultSem.Unlock(c)
	case vm.Hybrid:
		// Faults run throughout except during tree mutations (§5.2).
		c.ComputeSys(e.P.MmapPlan + work - e.P.TreeWork)
		e.treeSem.Lock(c)
		c.ComputeSys(e.P.TreeWork)
		e.treeSem.Unlock(c)
	case vm.PureRCU:
		// Faults are never excluded (§5.3, Figure 12).
		c.ComputeSys(e.P.MmapPlan + work)
	}
	e.mmapSem.Unlock(c)
	c.EndOp()
}
