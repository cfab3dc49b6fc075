package pagetable

import (
	"errors"
	"fmt"

	"bonsai/internal/physmem"
	"bonsai/internal/tlb"
)

// HugeOrder is the buddy order of the frame run backing one huge entry
// (512 frames = 2 MB), and HugeSpan its virtual span.
const (
	HugeOrder = EntryBits
	HugeSpan  = TableSpan
)

// ErrHugeMapped is returned by EnsureTable when the requested span is
// covered by a huge level-2 entry: the address already translates, so
// the caller retries its fault and takes the huge path instead of
// installing a leaf table.
var ErrHugeMapped = errors.New("pagetable: span mapped by a huge entry")

// HugeResult reports what InstallHuge did.
type HugeResult int

const (
	// HugeInstalled: this call published the huge entry.
	HugeInstalled HugeResult = iota
	// HugeRecheckFailed: the §5.2 double check failed under the
	// page-directory lock; the caller retries with locking.
	HugeRecheckFailed
	// HugeLost: a racing fault populated the span first (a leaf table
	// or another huge entry exists); the caller falls back to the base
	// path, which will find the span mapped.
	HugeLost
)

// WalkHuge returns the raw huge entry covering addr, lock-free, or
// ok=false when the span has no huge entry. Callers racing with unmap
// must run inside an RCU read-side critical section.
func (t *Tables) WalkHuge(addr uint64) (pte uint64, ok bool) {
	checkAddr(addr)
	d := t.walkLevel2(addr)
	if d == nil {
		return 0, false
	}
	h := d.huge[index(addr, 2)].Load()
	if h&PTEPresent == 0 {
		return 0, false
	}
	return h, true
}

// InstallHuge maps the 2 MB span at addr (TableSpan-aligned) to the
// frame run starting at frame, publishing the entry under the
// page-directory lock with the same optimistic double-check protocol
// leaf tables use. A leaf table — a fresh frame, usually in a spare
// struct — is deposited alongside the entry (the kernel's pgtable
// deposit), so a later demotion never allocates. recheck runs under the
// lock — the §5.2 VMA double check. On HugeRecheckFailed and HugeLost
// the caller still owns the run.
func (t *Tables) InstallHuge(cpu int, addr uint64, frame physmem.Frame,
	writable bool, recheck func() bool) (HugeResult, error) {
	checkAddr(addr)
	if addr%HugeSpan != 0 {
		panic(fmt.Sprintf("pagetable: InstallHuge at unaligned %#x", addr))
	}
	for {
		d, err := t.ensureLevel2(cpu, addr)
		if err != nil {
			return HugeRecheckFailed, err
		}
		idx := index(addr, 2)
		if d.tables[idx].Load() != nil || d.huge[idx].Load()&PTEPresent != 0 {
			return HugeLost, nil
		}
		dep, err := t.newPageTable(cpu)
		if err != nil {
			return HugeRecheckFailed, err
		}
		t.dirLock.Lock()
		t.dirDoubleChk.Add(1)
		switch {
		case d.dead.Load():
			t.dirLock.Unlock()
			t.discardPageTable(cpu, dep)
			continue // restart from the root
		case recheck != nil && !recheck():
			t.dirLock.Unlock()
			t.discardPageTable(cpu, dep)
			return HugeRecheckFailed, nil
		case d.tables[idx].Load() != nil || d.huge[idx].Load()&PTEPresent != 0:
			t.dirLock.Unlock()
			t.discardPageTable(cpu, dep)
			return HugeLost, nil
		}
		pte := MakePTE(frame, writable) | PTEHuge
		d.huge[idx].Store(pte)
		d.deposit[idx].Store(dep)
		t.dirLock.Unlock()
		t.ptesFilled.Add(cpu, EntriesPerTable)
		t.hugeInstalls.Add(1)
		return HugeInstalled, nil
	}
}

// UpgradeHuge makes the huge entry covering addr writable in place
// (the write fault on a huge span downgraded read-only by mprotect;
// huge entries are never copy-on-write — CloneRange splits them). It
// reports whether an entry was present and upgraded; recheck runs
// under the page-directory lock.
func (t *Tables) UpgradeHuge(addr uint64, recheck func() bool) bool {
	checkAddr(addr)
	d := t.walkLevel2(addr)
	if d == nil {
		return false
	}
	idx := index(addr, 2)
	t.dirLock.Lock()
	defer t.dirLock.Unlock()
	if recheck != nil && !recheck() {
		return false
	}
	h := d.huge[idx].Load()
	if h&PTEPresent == 0 {
		return false
	}
	d.huge[idx].Store(h | PTEWritable)
	return true
}

// AccessHuge runs fn with the huge entry covering addr while holding
// the page-directory lock, so the entry cannot be zapped or split out
// from under a data access mid-copy (the huge analogue of io's
// copy-under-the-PTE-lock discipline). The entry itself is only read.
// ok=false when there is no huge entry, or the access is a write and
// the entry is read-only (the caller faults, which upgrades or splits
// as needed).
func (t *Tables) AccessHuge(addr uint64, write bool, fn func(pte uint64)) bool {
	checkAddr(addr)
	d := t.walkLevel2(addr)
	if d == nil {
		return false
	}
	idx := index(addr, 2)
	t.dirLock.Lock()
	defer t.dirLock.Unlock()
	h := d.huge[idx].Load()
	if h&PTEPresent == 0 {
		return false
	}
	if write && h&PTEWritable == 0 {
		return false
	}
	if fn != nil {
		fn(h)
	}
	return true
}

// SplitHuge demotes the huge entry covering addr (if any) into base
// pages: the deposited leaf table is withdrawn, populated with the 512
// equivalent base PTEs, and published in the entry's place — a pure
// representation change, no frame changes hands and no allocation can
// fail. The one revoked huge translation is recorded in g (the split
// is a one-flush zap batch); the caller flushes. Reports whether a
// split happened.
func (t *Tables) SplitHuge(g *tlb.Gather, addr uint64) bool {
	return t.splitHugeAt(g, addr) != nil
}

// splitHugeAt is SplitHuge returning the published leaf table, or nil
// when no huge entry covered addr.
func (t *Tables) splitHugeAt(g *tlb.Gather, addr uint64) *PageTable {
	checkAddr(addr)
	d := t.walkLevel2(addr)
	if d == nil {
		return nil
	}
	return t.splitHugeEntry(g, d, index(addr, 2), addr&^(HugeSpan-1))
}

// splitHugeEntry demotes huge entry idx of d under the page-directory
// lock, returning the published leaf table, or nil when no huge entry
// was present. The run's frames become independent first
// (physmem.SplitRun), so each base PTE holds a frame of its own. The
// deposit's PTEs are written before the table is published, so lock-free
// walkers see either the huge entry or the fully populated table
// (checking tables first, huge second, a walker can transiently miss
// both — the same transient the §5.2 designs already retry).
func (t *Tables) splitHugeEntry(g *tlb.Gather, d *directory, idx int, base uint64) *PageTable {
	t.dirLock.Lock()
	h := d.huge[idx].Load()
	if h&PTEPresent == 0 {
		t.dirLock.Unlock()
		return nil
	}
	dep := d.deposit[idx].Swap(nil)
	if dep == nil {
		panic(fmt.Sprintf("pagetable: huge entry at %#x has no deposited table", base))
	}
	t.alloc.SplitRun(PTEFrame(h), HugeOrder)
	for i := 0; i < EntriesPerTable; i++ {
		dep.ptes[i].Store(hugeBasePTE(h, i))
	}
	d.tables[idx].Store(dep)
	d.huge[idx].Store(0)
	t.dirLock.Unlock()
	t.hugeSplits.Add(1)
	g.Revoke(1)
	return dep
}

// zapHuge clears huge entry idx of d, recording its 512 page
// translations in the gather as one run entry (the run returns to the
// allocator as one unit after the flush and a grace period) and retiring
// the deposited table's frame the same way. The deposit was never
// published, so its struct goes straight back to the spare list. onPage
// receives the huge PTE itself, once, inside the page-directory lock;
// PTEHuge marks it (see UnmapRange).
func (t *Tables) zapHuge(g *tlb.Gather, d *directory, idx int, base uint64, onPage func(addr, pte uint64)) {
	t.dirLock.Lock()
	h := d.huge[idx].Load()
	if h&PTEPresent == 0 {
		t.dirLock.Unlock()
		return
	}
	d.huge[idx].Store(0)
	dep := d.deposit[idx].Swap(nil)
	g.Run(base, PTEFrame(h), HugeOrder)
	if onPage != nil {
		onPage(base, h)
	}
	t.dirLock.Unlock()
	t.ptesCleared.Add(EntriesPerTable)
	t.hugeZaps.Add(1)
	if dep != nil {
		t.retireStructure(g, dep.frame)
		t.spare(dep)
	}
}

// Collapse promotes the fully base-mapped 2 MB span at addr
// (TableSpan-aligned) to a huge entry. Under the leaf table's PTE lock
// it snapshots the 512 PTEs and hands them to build, which judges
// eligibility, allocates the destination run, copies page contents,
// and returns the huge entry to install (without PTEHuge; flags only —
// the frame and writability). If build declines, nothing changes. On
// success the entry is published and the old leaf table is detached —
// its PTEs cleared into the gather (the old frames retire after one
// flush and a grace period) and its own frame retired the same way —
// while a deposit table (a fresh frame) is stored for future splits.
//
// Lock order: the leaf PTE lock is held across the page-directory lock
// acquisition. This nesting exists only here and is safe because no
// path acquires a PTE lock while holding the page-directory lock.
func (t *Tables) Collapse(cpu int, g *tlb.Gather, addr uint64,
	build func(ptes *[EntriesPerTable]uint64) (uint64, bool)) (bool, error) {
	checkAddr(addr)
	if addr%HugeSpan != 0 {
		panic(fmt.Sprintf("pagetable: Collapse at unaligned %#x", addr))
	}
	d := t.walkLevel2(addr)
	if d == nil {
		return false, nil
	}
	idx := index(addr, 2)
	pt := d.tables[idx].Load()
	if pt == nil {
		return false, nil
	}
	// The deposit is the only fallible step; take it before locking.
	dep, err := t.newPageTable(cpu)
	if err != nil {
		return false, err
	}
	pt.Lock()
	if pt.Dead() {
		pt.Unlock()
		t.discardPageTable(cpu, dep)
		return false, nil
	}
	var snap [EntriesPerTable]uint64
	for i := range snap {
		snap[i] = pt.PTE(i)
	}
	hugePTE, ok := build(&snap)
	if !ok {
		pt.Unlock()
		t.discardPageTable(cpu, dep)
		return false, nil
	}
	// Holding the PTE lock, the table cannot be detached (every detach
	// path clears under this lock first), so the publish cannot fail.
	t.dirLock.Lock()
	d.huge[idx].Store(hugePTE | PTEHuge)
	d.deposit[idx].Store(dep)
	d.tables[idx].Store(nil)
	t.dirLock.Unlock()
	for i := 0; i < EntriesPerTable; i++ {
		pte := pt.PTE(i)
		if pte&PTEPresent == 0 {
			continue
		}
		pt.ptes[i].Store(0)
		g.Page(addr+uint64(i)<<PageShift, PTEFrame(pte))
	}
	pt.dead.Store(true)
	pt.Unlock()
	t.ptesFilled.Add(cpu, EntriesPerTable)
	t.ptesCleared.Add(EntriesPerTable)
	t.hugeInstalls.Add(1)
	t.retireStructure(g, pt.frame)
	return true, nil
}

// HugeStats reports the lifetime huge-entry counters: entries published
// (2 MB faults plus collapses), entries demoted to base pages in place,
// and entries fully unmapped. Live huge entries = installs − splits −
// zaps.
func (t *Tables) HugeStats() (installs, splits, zaps uint64) {
	return t.hugeInstalls.Load(), t.hugeSplits.Load(), t.hugeZaps.Load()
}

// SurveyChunk counts the present PTEs of the leaf table covering addr,
// under its PTE lock: EntriesPerTable means the span is fully
// base-mapped, a collapse candidate. ok=false when the span has no leaf
// table: unpopulated, or already promoted to a huge entry.
func (t *Tables) SurveyChunk(addr uint64) (present int, ok bool) {
	checkAddr(addr)
	pt := t.WalkTable(addr)
	if pt == nil {
		return 0, false
	}
	pt.Lock()
	defer pt.Unlock()
	if pt.Dead() {
		return 0, false
	}
	for i := 0; i < EntriesPerTable; i++ {
		if pt.PTE(i)&PTEPresent != 0 {
			present++
		}
	}
	return present, true
}
