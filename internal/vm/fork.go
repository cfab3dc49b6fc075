package vm

import (
	"sync/atomic"

	"bonsai/internal/pagecache"
	"bonsai/internal/pagetable"
	"bonsai/internal/physmem"
	"bonsai/internal/tlb"
	"bonsai/internal/vma"
)

// Fork duplicates the address space, as the fork system call does:
//
//   - the child gets copies of every region;
//   - pages of Shared mappings are shared read-write;
//   - pages of private writable mappings are shared copy-on-write: both
//     sides' PTEs become read-only with the COW mark, and the first
//     write fault on either side copies the page (§6's copy-on-write
//     hard case, serviced by retry-with-lock in the RCU designs);
//   - read-only pages are shared outright.
//
// The child shares the parent's physical allocator and RCU domain (a
// family); page frames carry reference counts and return to the pool
// when the last sharer unmaps them. Fork holds the parent's whole-space
// exclusion; parent faults that race with it either land before the
// COW downgrade (the child sees the faulted page) or retry and fault a
// private page afterward — both are valid fork outcomes.
//
// Like Fault, Fork absorbs transient frame shortages: an attempt that
// runs out of frames unwinds completely (child torn down, every lock
// released — reclaim never runs under the whole-space lock), direct
// reclaim evicts page-cache pages, and the fork retries.
func (as *AddressSpace) Fork() (*AddressSpace, error) {
	var child *AddressSpace
	err := as.retryShortage(func() error {
		var err error
		child, err = as.forkOnce()
		return err
	})
	if err != nil {
		return nil, err
	}
	return child, nil
}

// forkOnce is one fork attempt; a frame shortage surfaces as
// ErrFrameShortage with the partial child fully unwound.
func (as *AddressSpace) forkOnce() (*AddressSpace, error) {
	child, err := newMember(as.cfg, as.fam)
	if err != nil {
		return nil, err
	}

	// Fork copies the whole region tree and downgrades every private
	// PTE, so it takes the whole-space exclusion; under range locking
	// the manager's FIFO fairness keeps a stream of small disjoint
	// operations from starving it.
	op, cop := as.beginOp(), child.beginOp()
	defer op.end()
	defer cop.end()
	mg := as.sy.lockAll(op)
	defer mg.unlock()
	mg.mutate()
	atomic.AddUint64(&as.stats.op(op).Forks, 1)

	// The child's own whole-space exclusion is held for the entire
	// clone: the background collapse scanner sweeps every live member,
	// and a promotion inside the half-built child would break the
	// clone's EnsureTable installs mid-flight.
	cg := child.sy.lockAll(cop)
	cg.mutate()

	// One gather spans the whole fork: every private PTE the clone
	// downgrades to read-only COW accumulates here, and the single
	// flush below — still under the whole-space lock, like the
	// kernel's flush_tlb_mm at the end of dup_mmap — invalidates the
	// parent's stale writable translations in one batch.
	g := &op.gather
	var cloneErr error
	as.idx.ascendRange(0, MaxAddress, func(v *vma.VMA) bool {
		lo, hi := v.Start(), v.End()
		var off uint64
		if v.File() != nil {
			off = v.FileOffset(lo)
		}
		cop.edits = append(cop.edits, regionEdit{Key: lo, Val: vma.New(lo, hi, v.Prot(), v.Flags(), v.File(), off)})

		// Private mappings go copy-on-write (even currently read-only
		// ones, so a later mprotect-to-writable cannot alias stores);
		// Shared mappings share pages verbatim. Huge entries are never
		// copy-on-write: CloneRange demotes each one it meets (one a
		// lock-free fault installed beside this fork too), riding the
		// fork's gather, so the child inherits page-granular COW entries.
		cow := v.Flags()&vma.Shared == 0
		// clonePages remembers which cloned frames were live cache pages
		// at clone time (observed under the parent's PTE lock, so exact:
		// a mapped frame cannot be recycled into a different page). The
		// install hook below re-validates each against eviction.
		clonePages := make(map[uint64]*pagecache.Page)
		cloneErr = as.tables.CloneRange(as.mapCPU, g, child.tables, lo, hi, cow,
			func(addr uint64, f physmem.Frame) {
				as.alloc.Ref(f)
				if pg := as.fam.ms.reg.Lookup(f); pg != nil {
					clonePages[addr] = pg
				}
			},
			func(addr uint64, f physmem.Frame) bool {
				// Runs under the child's leaf PTE lock, immediately
				// before the install. A cloned cache page registers the
				// child's reverse mapping here, atomically with its PTE,
				// so the eviction scan can never evict the page in the
				// clone-to-install window and leave the child mapping an
				// orphaned frame while its siblings refault a fresh one.
				// If the page was already evicted (AddMapping fails),
				// skip the install: the child demand-faults the page
				// through the cache and stays coherent.
				pg := clonePages[addr]
				if pg == nil {
					return true // anonymous or private frame: install verbatim
				}
				if !pg.AddMapping(child, addr) {
					as.alloc.FreeRemote(f)
					return false
				}
				return true
			},
			func(addr uint64, f physmem.Frame) {
				// Undo for entries never installed in the child: return
				// the reference (no rmap entry exists yet — registration
				// happens at install time).
				as.alloc.FreeRemote(f)
			})
		return cloneErr == nil
	})
	// The child's region tree is one transaction, whatever the outcome:
	// the unwind below unmaps what it finds there.
	child.commit(cop)
	// Flush before deciding the outcome: the downgrades already
	// happened, so their shootdown is owed even when the clone failed
	// partway and is about to be unwound.
	g.Flush()
	if cloneErr != nil {
		// Unwind the partially built child completely, so a retry after
		// direct reclaim starts from scratch.
		child.munmapLocked(cop, 0, MaxAddress)
		cg.unlock()
		child.tables.ReleaseRoot(child.mapCPU)
		if as.fam.depart(child) { // as had closed, and its last relative mid-clone
			as.fam.ms.retireTenant(as.fam)
		}
		as.fam.releaseMember(child.member)
		return nil, oomError(cloneErr)
	}
	cg.unlock()
	return child, nil
}

// cowBreak builds the replacement PTE for the copy-on-write page at
// page: if this address space holds the only reference, the page is
// re-owned in place (no copy); otherwise a fresh frame is allocated,
// the contents copied, and the old translation's revocation recorded
// in g — the faulting CPU's gather, flushed by fillPage once the PTE
// lock is released, so the shared frame's reference drops only after
// the break's shootdown (other cores may hold the stale read-only
// translation) and a grace period. It runs under the PTE lock via
// FillOrUpgrade.
func (c *CPU) cowBreak(g *tlb.Gather, page, old uint64) (uint64, error) {
	as := c.as
	oldFrame := pagetable.PTEFrame(old)
	if as.alloc.Refs(oldFrame) == 1 {
		// Sole owner: make it writable again in place. (A frame still
		// resident in a page cache always has the cache's own
		// reference, so re-owning never needs rmap bookkeeping.) No
		// translation is revoked — widening a local entry needs no
		// cross-core invalidation.
		atomic.AddUint64(&c.st.CowReowned, 1)
		return pagetable.MakePTE(oldFrame, true) | pagetable.PTEAccessed, nil
	}
	newFrame, err := as.alloc.Alloc(c.id)
	if err != nil {
		return 0, err
	}
	if as.cfg.Backing {
		*as.alloc.Data(newFrame) = *as.alloc.Data(oldFrame)
	}
	atomic.AddUint64(&c.st.CowCopies, 1)
	// The PTE stops mapping oldFrame; if that was a page-cache frame (a
	// Private read mapping of a cached page), drop its rmap entry here,
	// inside the PTE lock, like the zap path does.
	if pg := as.fam.ms.reg.Lookup(oldFrame); pg != nil {
		pg.RemoveMapping(as, page)
	}
	// The old frame may still be reachable by lock-free readers of this
	// address space until a grace period passes, and through stale TLB
	// entries until the gather flushes.
	g.Page(page, oldFrame)
	return pagetable.MakePTE(newFrame, true) | pagetable.PTEAccessed, nil
}
