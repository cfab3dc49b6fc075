package pagetable

import (
	"bonsai/internal/physmem"
	"bonsai/internal/tlb"
)

// FillResult reports what FillOrUpgrade did under the PTE lock.
type FillResult int

// FillOrUpgrade outcomes.
const (
	// FillRecheckFailed: the §5.2 double check failed; retry with
	// locking.
	FillRecheckFailed FillResult = iota
	// FillInstalled: this call installed a fresh PTE.
	FillInstalled
	// FillAlreadyMapped: a usable PTE was already present.
	FillAlreadyMapped
	// FillUpgraded: this call broke copy-on-write and made the PTE
	// writable.
	FillUpgraded
	// FillNeedsUpgrade: the PTE is copy-on-write and the caller
	// provided no makeCopy (the RCU fast path, which defers COW to the
	// retry-with-lock slow path, §6).
	FillNeedsUpgrade
)

// FillOrUpgrade services a fault for addr under the leaf table's PTE
// lock; cpu names the faulting context, whose own cell counts an
// install. recheck is the §5.2 double check. For an absent entry it
// installs makeFrame's PTE. For a present entry it succeeds unless the
// access is a write and the PTE is read-only copy-on-write; then it
// stores makeCopy's replacement (breaking COW), or reports
// FillNeedsUpgrade when makeCopy is nil. onUpgrade, if non-nil, runs
// inside the critical section of an in-place write-enable (the
// non-COW upgrade): the VM layer marks shared file pages dirty there,
// so a writable PTE is never observable before its page's dirty bit —
// the invariant page reclaim's writeback depends on.
func (t *Tables) FillOrUpgrade(cpu int, addr uint64, pt *PageTable, write bool,
	recheck func() bool,
	makeFrame func() (uint64, error),
	makeCopy func(old uint64) (uint64, error),
	onUpgrade func(old uint64)) (FillResult, error) {
	idx := index(addr, 1)
	pt.Lock()
	defer pt.Unlock()
	if pt.Dead() {
		// Detached between the walk and the lock — by munmap (the VMA
		// recheck below would catch that too) or by a collapse, which
		// promotes a live region's table to a huge entry; the VMA stays
		// valid, so only this check sends the fault back to retry.
		return FillRecheckFailed, nil
	}
	if recheck != nil && !recheck() {
		return FillRecheckFailed, nil
	}
	pte := pt.PTE(idx)
	if pte&PTEPresent == 0 {
		npte, err := makeFrame()
		if err != nil {
			return FillRecheckFailed, err
		}
		pt.SetPTE(idx, npte)
		t.ptesFilled.Add(cpu, 1)
		return FillInstalled, nil
	}
	if !write || pte&PTEWritable != 0 {
		return FillAlreadyMapped, nil
	}
	if pte&PTECow == 0 {
		// Present, read-only, not copy-on-write, in a mapping the
		// caller validated as writable: a shared file page installed
		// read-only (dirty tracking), or a page write-protected by an
		// mprotect downgrade whose region has since been made writable
		// again. Upgrade in place, after the caller's bookkeeping.
		if onUpgrade != nil {
			onUpgrade(pte)
		}
		pt.SetPTE(idx, pte|PTEWritable)
		return FillUpgraded, nil
	}
	if makeCopy == nil {
		return FillNeedsUpgrade, nil
	}
	npte, err := makeCopy(pte)
	if err != nil {
		return FillRecheckFailed, err
	}
	pt.SetPTE(idx, npte)
	t.ptesFilled.Add(cpu, 1)
	return FillUpgraded, nil
}

// CloneRange copies the present PTEs of [lo, hi) into dst, implementing
// fork. Huge entries are never shared as such: each one the scan meets
// is split to base pages in place (recorded in g) and its leaf table
// cloned, so the child inherits page-granular entries. For each present
// entry it calls onShare(addr, frame) under the
// source PTE lock (the caller takes a frame reference). When cow is
// true (private mappings), every
// source entry — writable or not — is downgraded in place to read-only
// copy-on-write under the source PTE lock, so racing faults observe
// either the old or the new entry, and the child receives the same COW
// entry; marking even read-only pages COW keeps a later mprotect-to-
// writable from silently sharing stores between the two spaces. When
// cow is false (Shared mappings) entries are copied verbatim. Each
// downgrade that actually narrowed a PTE is recorded in g: the parent's
// cores may hold writable translations of those pages, so the caller
// must flush the gather — one shootdown for the whole fork, like the
// kernel's flush_tlb_mm at the end of dup_mmap — before the clone is
// considered complete.
//
// Each collected entry is installed into dst under dst's leaf PTE
// lock, with onInstall (if non-nil) invoked inside that critical
// section first: the VM layer registers a page-cache frame's reverse
// mapping there, atomically with the install, so the reclaim scan —
// which revokes under the same PTE lock — can never observe the rmap
// entry without its PTE or vice versa. onInstall returning false skips
// the entry (the page was evicted between the clone and the install;
// the child will demand-fault it instead, staying coherent with its
// siblings), and the caller returns the reference it took.
//
// If installing into dst fails partway (frame exhaustion allocating a
// child table), every collected entry not yet installed is handed to
// onUndo so the caller can return the references onShare took; entries
// already installed are the caller's to unwind via its normal unmap
// path. This keeps a failed fork leak-free, which matters now that
// forks retry after direct reclaim instead of failing outright.
func (t *Tables) CloneRange(cpu int, g *tlb.Gather, dst *Tables, lo, hi uint64, cow bool,
	onShare func(addr uint64, f physmem.Frame),
	onInstall func(addr uint64, f physmem.Frame) bool,
	onUndo func(addr uint64, f physmem.Frame)) error {
	if lo >= hi {
		return nil
	}
	type entry struct {
		addr uint64
		pte  uint64
	}
	var pending []entry

	for base := lo &^ (TableSpan - 1); base < hi; base += TableSpan {
		pt := t.WalkTable(base)
		if pt == nil {
			// A huge entry — present before the fork, or installed by a
			// first-touch fault racing it — is demoted here, riding g,
			// and its leaf table cloned like any other. No table and no
			// huge entry: nothing to share (a fault landing after this
			// point is a post-fork fault, private to this space).
			if pt = t.splitHugeAt(g, base); pt == nil {
				continue
			}
		}
		clampLo, clampHi := base, base+TableSpan
		if clampLo < lo {
			clampLo = lo
		}
		if clampHi > hi {
			clampHi = hi
		}
		first, last := index(clampLo, 1), index(clampHi-1, 1)
		pt.Lock()
		for i := first; i <= last; i++ {
			pte := pt.PTE(i)
			if pte&PTEPresent == 0 {
				continue
			}
			childPTE := pte
			if cow {
				downgraded := (pte &^ PTEWritable) | PTECow
				if downgraded != pte {
					pt.SetPTE(i, downgraded)
					g.Revoke(1)
				}
				childPTE = downgraded
			}
			addr := base + uint64(i)<<PageShift
			onShare(addr, PTEFrame(pte))
			pending = append(pending, entry{addr, childPTE})
		}
		pt.Unlock()
	}

	for i, e := range pending {
		dpt, err := dst.EnsureTable(cpu, e.addr)
		if err != nil {
			if onUndo != nil {
				for _, rest := range pending[i:] {
					onUndo(rest.addr, PTEFrame(rest.pte))
				}
			}
			return err
		}
		dpt.Lock()
		if onInstall == nil || onInstall(e.addr, PTEFrame(e.pte)) {
			dpt.SetPTE(index(e.addr, 1), e.pte)
			dst.ptesFilled.Add(cpu, 1)
		}
		dpt.Unlock()
	}
	return nil
}

// ReleaseRoot retires the root page directory itself (address-space
// teardown). The tree must already be empty of attached children; any
// further use of the Tables is invalid.
func (t *Tables) ReleaseRoot(cpu int) {
	t.dirLock.Lock()
	t.root.dead.Store(true)
	t.dirLock.Unlock()
	t.releaseDirectory(cpu, t.root)
}

// PTELockStats aggregates the PTE-lock acquisition counters across the
// attached leaf tables, for contention reporting.
func (t *Tables) PTELockStats() (acquisitions, contended uint64) {
	t.forEachLevel2(func(d *directory) {
		for i := range d.tables {
			if pt := d.tables[i].Load(); pt != nil {
				a, c := pt.lock.Stats()
				acquisitions += a
				contended += c
			}
		}
	})
	return acquisitions, contended
}
