// Package pagetable implements an x86-64-shaped four-level page table
// (Figure 1): a radix tree of 512-entry tables mapping 48-bit virtual
// addresses to physical frames. It reproduces the kernel's concurrency
// protocol from §4.1 and §5.2:
//
//   - Lock-free walks: page-fault handlers follow table pointers with no
//     locks, which is safe because tables are only freed after an RCU
//     grace period (Figure 11).
//   - Double-check table allocation: a fault that sees an empty
//     directory entry optimistically allocates a table, then takes the
//     per-address-space page-directory lock, re-checks the entry, and
//     either installs its table or discards it.
//   - Per-page-table PTE locks: filling an entry takes the leaf table's
//     spinlock, so only faults within the same 2 MB region ever contend.
//   - RCU-delayed freeing: the recursive unmap scan clears entries under
//     the PTE locks and retires tables and frames through an RCU domain.
package pagetable

import (
	"errors"
	"fmt"
	"sync/atomic"

	"bonsai/internal/locks"
	"bonsai/internal/physmem"
	"bonsai/internal/rcu"
	"bonsai/internal/stats"
	"bonsai/internal/tlb"
)

// Virtual address geometry (x86-64 four-level paging).
const (
	PageShift       = 12
	PageSize        = 1 << PageShift // 4096
	EntryBits       = 9
	EntriesPerTable = 1 << EntryBits // 512
	Levels          = 4
	// AddressBits is the number of translated virtual address bits.
	AddressBits = PageShift + Levels*EntryBits // 48
	// MaxAddress is one past the highest mappable virtual address.
	MaxAddress = uint64(1) << AddressBits
	// TableSpan is the virtual span of one leaf page table (2 MB).
	TableSpan = uint64(EntriesPerTable) << PageShift
)

// PTE encoding: frame number shifted left by PageShift, OR'd with flag
// bits in the low 12 bits — the same layout as hardware PTEs.
const (
	PTEPresent  uint64 = 1 << 0
	PTEWritable uint64 = 1 << 1
	// PTECow marks a copy-on-write page: present, read-only, shared
	// with another address space until the first write fault copies it
	// (the hard case §6 handles with retry-with-lock).
	PTECow uint64 = 1 << 2
	// PTEHuge marks a level-2 huge entry: the entry maps a 2 MB
	// size-aligned run of 512 contiguous frames instead of pointing at
	// a leaf table (the PS bit of a hardware PMD entry).
	PTEHuge uint64 = 1 << 3
)

// pteFlagsMask covers the low flag bits of a PTE (hardware layout:
// everything below the frame number).
const pteFlagsMask = uint64(PageSize - 1)

// MakePTE builds a present PTE for frame with the given writability.
func MakePTE(f physmem.Frame, writable bool) uint64 {
	pte := uint64(f)<<PageShift | PTEPresent
	if writable {
		pte |= PTEWritable
	}
	return pte
}

// PTEFrame extracts the frame from a present PTE.
func PTEFrame(pte uint64) physmem.Frame {
	return physmem.Frame(pte >> PageShift)
}

// MakeCowPTE builds a present, read-only, copy-on-write PTE for frame.
func MakeCowPTE(f physmem.Frame) uint64 {
	return uint64(f)<<PageShift | PTEPresent | PTECow
}

// index returns the table index for addr at the given level (1 = leaf).
func index(addr uint64, level int) int {
	return int(addr>>(PageShift+uint(level-1)*EntryBits)) & (EntriesPerTable - 1)
}

// levelSpan is the virtual span covered by one entry at the given level.
func levelSpan(level int) uint64 {
	return uint64(1) << (PageShift + uint(level-1)*EntryBits)
}

// PageTable is a leaf (level-1) table: 512 PTEs plus the per-table PTE
// lock from §4.1 ("a separate PTE lock per page table to eliminate lock
// contention for all but nearby page faults").
type PageTable struct {
	lock  locks.SpinLock
	frame physmem.Frame // the frame this table itself occupies
	dead  atomic.Bool   // set when detached by an unmap scan
	ptes  [EntriesPerTable]atomic.Uint64
}

// Lock acquires the table's PTE lock.
func (pt *PageTable) Lock() { pt.lock.Lock() }

// Unlock releases the table's PTE lock.
func (pt *PageTable) Unlock() { pt.lock.Unlock() }

// PTE returns the entry at the given leaf index.
func (pt *PageTable) PTE(idx int) uint64 { return pt.ptes[idx].Load() }

// SetPTE stores a PTE. The caller must hold the table's PTE lock. It
// panics if the table has been detached by an unmap scan: the VM
// layer's fill-race double check (§5.2) is required to make that
// impossible, so a panic here means the protocol was violated.
func (pt *PageTable) SetPTE(idx int, pte uint64) {
	if pt.dead.Load() {
		panic("pagetable: PTE fill into detached page table (fill-race protocol violated)")
	}
	pt.ptes[idx].Store(pte)
}

// Dead reports whether the table has been detached.
func (pt *PageTable) Dead() bool { return pt.dead.Load() }

// directory is an upper-level node (levels 2..4). Exactly one of dirs
// and tables is non-nil depending on the level. dead is set (under the
// page-directory lock) when an unmap scan detaches the directory, so a
// racing fault about to install a child re-checks and restarts instead
// of publishing into a garbage subtree — the paper accepts the
// resulting leak ("at best, these will never be freed", §5.2); we close
// it so the test suite can assert zero frame leaks.
type directory struct {
	level  int
	frame  physmem.Frame
	dead   atomic.Bool
	dirs   []atomic.Pointer[directory] // level 3, 4
	tables []atomic.Pointer[PageTable] // level 2

	// huge holds level-2 huge entries: huge[idx] maps the whole 2 MB
	// span of entry idx to a contiguous frame run (PTEHuge set). An
	// entry never has both tables[idx] and huge[idx] live; all writes
	// to huge happen under the page-directory lock. deposit[idx] is the
	// pre-allocated leaf table deposited alongside each huge entry (the
	// kernel's pgtable deposit/withdraw), so demoting the entry back to
	// base pages never allocates — splits in zap and mprotect paths are
	// infallible. A deposit is read and written only under the
	// page-directory lock and stays all-zero until a split publishes it,
	// so no lock-free walker reaches one: a deposit zapped whole goes back
	// to the tree's spare list (Tables.spares).
	huge    []atomic.Uint64             // level 2
	deposit []atomic.Pointer[PageTable] // level 2
}

// Config configures a Tables.
type Config struct {
	// CPUs is the number of distinct cpu arguments the tree's callers
	// use (the address space's fault contexts plus its mapping
	// context); it sizes the per-CPU fill counter. The ids may be
	// machine-wide magazine indices as long as they are contiguous.
	// Zero means 1: every caller shares one cell.
	CPUs int
}

// Tables is the page-table tree of one address space.
type Tables struct {
	// What every walk and fill reads, and nothing writes after New.
	cfg        Config
	root       *directory
	alloc      *physmem.Allocator
	dom        *rcu.Domain
	ptesFilled stats.Counter // per-CPU: every fault that installs a PTE counts here

	// Everything below is written by table installs and unmap scans; the
	// pad keeps those writes off the line the fast path reads above.
	_ [64]byte

	// dirLock is the per-process page-directory lock protecting the
	// insertion of new directories and tables (§4.1).
	dirLock locks.SpinLock

	tablesLive   atomic.Int64
	tablesAlloc  atomic.Uint64
	tablesFreed  atomic.Uint64
	discarded    atomic.Uint64 // optimistic allocations lost the double-check race
	ptesCleared  atomic.Uint64 // unmap and eviction paths only, one add per batch
	dirDoubleChk atomic.Uint64 // double-check lock acquisitions

	// Huge-entry lifecycle counters. Splits and zaps can originate deep
	// inside the unmap scan (a partial munmap demotes in unmapDir), so
	// the tree keeps the authoritative counts rather than its callers.
	hugeInstalls atomic.Uint64 // entries published (faults + collapses)
	hugeSplits   atomic.Uint64 // entries demoted to base pages in place
	hugeZaps     atomic.Uint64 // entries fully unmapped

	// spares holds the Go objects of leaf tables no lock-free walker can
	// have reached — deposits zapped whole and optimistic allocations that
	// lost a double check — all-zero and not dead, for newPageTable to
	// reuse. Only the struct is reused: each table still takes a fresh
	// frame, and a published table is never listed (walkers may hold it
	// until its grace period ends). A struct leaves the pool system only
	// by being published, and newPageTable allocates one only when the
	// list is empty, so the list never holds more than the tree's peak
	// count of unpublished tables (live deposits plus allocations in
	// flight).
	spareLock locks.SpinLock
	spares    []*PageTable
}

// New returns an empty four-level page-table tree whose table frames
// come from alloc and whose deferred frees go through dom. The root is
// allocated from cpu's magazine: callers must pass a magazine they own
// (Fork builds a child's tree while the parent's fault CPUs keep
// allocating, so sharing magazine 0 here would race).
func New(alloc *physmem.Allocator, dom *rcu.Domain, cpu int, cfg Config) (*Tables, error) {
	t := &Tables{cfg: cfg, alloc: alloc, dom: dom, ptesFilled: stats.NewCounter(cfg.CPUs)}
	root, err := t.newDirectory(cpu, Levels)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *Tables) newDirectory(cpu, level int) (*directory, error) {
	f, err := t.alloc.Alloc(cpu)
	if err != nil {
		return nil, err
	}
	d := &directory{level: level, frame: f}
	if level == 2 {
		d.tables = make([]atomic.Pointer[PageTable], EntriesPerTable)
		d.huge = make([]atomic.Uint64, EntriesPerTable)
		d.deposit = make([]atomic.Pointer[PageTable], EntriesPerTable)
	} else {
		d.dirs = make([]atomic.Pointer[directory], EntriesPerTable)
	}
	t.tablesAlloc.Add(1)
	t.tablesLive.Add(1)
	return d, nil
}

// newPageTable allocates a leaf table's frame and gives it a spare
// struct, or a new one when the spare list is empty.
func (t *Tables) newPageTable(cpu int) (*PageTable, error) {
	f, err := t.alloc.Alloc(cpu)
	if err != nil {
		return nil, err
	}
	t.spareLock.Lock()
	var pt *PageTable
	if n := len(t.spares); n > 0 {
		pt = t.spares[n-1]
		t.spares[n-1] = nil
		t.spares = t.spares[:n-1]
	}
	t.spareLock.Unlock()
	if pt == nil {
		pt = new(PageTable)
	}
	pt.frame = f
	t.tablesAlloc.Add(1)
	t.tablesLive.Add(1)
	return pt, nil
}

// releaseDirectory retires a detached directory outside any gather
// (ReleaseRoot). The frame free is queued on the caller's CPU shard
// and runs after a grace period; the caller never waits for one.
func (t *Tables) releaseDirectory(cpu int, d *directory) {
	t.tablesFreed.Add(1)
	t.tablesLive.Add(-1)
	t.dom.DeferOn(cpu, 1, func() { t.alloc.FreeRemote(d.frame) })
}

// retireStructure retires a detached directory or leaf table through
// the unmap scan's gather: the structure frame rides the batch's
// deferred release, past the flush's grace period, so lock-free
// walkers still descending through it stay safe.
func (t *Tables) retireStructure(g *tlb.Gather, f physmem.Frame) {
	t.tablesFreed.Add(1)
	t.tablesLive.Add(-1)
	g.Release(f)
}

func checkAddr(addr uint64) {
	if addr >= MaxAddress {
		panic(fmt.Sprintf("pagetable: address %#x beyond %d-bit space", addr, AddressBits))
	}
}

// Walk performs a lock-free page-table walk (the software analogue of
// the hardware walker) and returns the PTE mapping addr, or ok=false if
// any level is missing. A huge level-2 entry is returned as the
// synthesized base PTE of the covered page (frame = run base + page
// index, flags inherited), so translation-level callers need not know
// whether the mapping is huge. Callers racing with unmap must run
// inside an RCU read-side critical section.
func (t *Tables) Walk(addr uint64) (pte uint64, ok bool) {
	checkAddr(addr)
	d := t.walkLevel2(addr)
	if d == nil {
		return 0, false
	}
	if pt := d.tables[index(addr, 2)].Load(); pt != nil {
		pte = pt.PTE(index(addr, 1))
		if pte&PTEPresent == 0 {
			return 0, false
		}
		return pte, true
	}
	if h := d.huge[index(addr, 2)].Load(); h&PTEPresent != 0 {
		return hugeBasePTE(h, index(addr, 1)), true
	}
	return 0, false
}

// hugeBasePTE synthesizes the base-page PTE that page i of a huge
// entry's span is mapped as: frame run base + i, flags inherited from
// the huge entry (minus PTEHuge itself).
func hugeBasePTE(h uint64, i int) uint64 {
	return (uint64(PTEFrame(h))+uint64(i))<<PageShift | (h & pteFlagsMask &^ PTEHuge)
}

// walkLevel2 descends lock-free to the level-2 directory covering addr,
// returning nil if an upper level is missing.
func (t *Tables) walkLevel2(addr uint64) *directory {
	d := t.root
	for d.level > 2 {
		d = d.dirs[index(addr, d.level)].Load()
		if d == nil {
			return nil
		}
	}
	return d
}

// WalkTable descends lock-free to the leaf table covering addr,
// returning nil if any level is missing or the span is mapped by a
// huge entry (check WalkHuge to distinguish).
func (t *Tables) WalkTable(addr uint64) *PageTable {
	checkAddr(addr)
	d := t.walkLevel2(addr)
	if d == nil {
		return nil
	}
	return d.tables[index(addr, 2)].Load()
}

// EnsureTable returns the leaf table covering addr, allocating missing
// levels with the optimistic double-check protocol from §4.1: allocate
// outside the page-directory lock, then take the lock only to re-check
// and install, discarding the allocation if a concurrent fault won.
// When the span is mapped by a huge entry it returns ErrHugeMapped —
// the caller's fault is already satisfied (or must retry and take the
// huge path); installing a leaf table would shadow the huge mapping.
func (t *Tables) EnsureTable(cpu int, addr uint64) (*PageTable, error) {
	checkAddr(addr)
	for {
		d, err := t.ensureLevel2(cpu, addr)
		if err != nil {
			return nil, err
		}
		idx := index(addr, 2)
		if d.huge[idx].Load()&PTEPresent != 0 {
			return nil, ErrHugeMapped
		}
		pt := d.tables[idx].Load()
		if pt != nil {
			return pt, nil
		}
		fresh, err := t.newPageTable(cpu)
		if err != nil {
			return nil, err
		}
		t.dirLock.Lock()
		t.dirDoubleChk.Add(1)
		switch cur := d.tables[idx].Load(); {
		case d.dead.Load():
			t.dirLock.Unlock()
			t.discardPageTable(cpu, fresh)
			continue // restart from the root
		case d.huge[idx].Load()&PTEPresent != 0:
			// A racing huge-page fault installed a huge entry while we
			// allocated: its 2 MB mapping covers addr.
			t.dirLock.Unlock()
			t.discardPageTable(cpu, fresh)
			return nil, ErrHugeMapped
		case cur != nil:
			t.dirLock.Unlock()
			t.discardPageTable(cpu, fresh)
			return cur, nil
		default:
			d.tables[idx].Store(fresh)
			t.dirLock.Unlock()
			return fresh, nil
		}
	}
}

// ensureLevel2 descends to the level-2 directory covering addr,
// allocating missing upper levels with the §4.1 double-check protocol.
func (t *Tables) ensureLevel2(cpu int, addr uint64) (*directory, error) {
restart:
	d := t.root
	for d.level > 2 {
		idx := index(addr, d.level)
		next := d.dirs[idx].Load()
		if next == nil {
			// Optimistically allocate before taking the lock.
			fresh, err := t.newDirectory(cpu, d.level-1)
			if err != nil {
				return nil, err
			}
			t.dirLock.Lock()
			t.dirDoubleChk.Add(1)
			switch cur := d.dirs[idx].Load(); {
			case d.dead.Load():
				// An unmap scan detached d while we descended; restart
				// from the root so we never publish into a dead subtree.
				t.dirLock.Unlock()
				t.discardDirectory(cpu, fresh)
				goto restart
			case cur != nil:
				next = cur // lost the double-check race; discard ours
				t.dirLock.Unlock()
				t.discardDirectory(cpu, fresh)
			default:
				d.dirs[idx].Store(fresh)
				t.dirLock.Unlock()
				next = fresh
			}
		}
		d = next
	}
	return d, nil
}

// discardDirectory returns an optimistically allocated directory that
// lost the double-check race. It was never published, so its frame can
// be freed immediately.
func (t *Tables) discardDirectory(cpu int, d *directory) {
	t.discarded.Add(1)
	t.tablesLive.Add(-1)
	t.tablesFreed.Add(1)
	t.alloc.Free(cpu, d.frame)
}

// discardPageTable returns an optimistically allocated leaf table that
// lost the double-check race (EnsureTable, InstallHuge, Collapse). It
// was never published, so its frame is freed immediately and its struct
// goes back to the spare list.
func (t *Tables) discardPageTable(cpu int, pt *PageTable) {
	t.discarded.Add(1)
	t.tablesLive.Add(-1)
	t.tablesFreed.Add(1)
	t.alloc.Free(cpu, pt.frame)
	t.spare(pt)
}

// spare lists pt for reuse by newPageTable. pt must be all-zero, not
// dead, and unreachable by any walker: never published.
func (t *Tables) spare(pt *PageTable) {
	t.spareLock.Lock()
	t.spares = append(t.spares, pt)
	t.spareLock.Unlock()
}

// FillPTE installs a PTE for addr under the leaf table's PTE lock,
// running the caller's recheck while the lock is held (the fill-race
// double check of §5.2). It is FillOrUpgrade narrowed to the
// absent-entry case, counted on CPU 0. It returns:
//
//   - installed=true if this call filled the entry;
//   - installed=false, ok=true if a concurrent fault already filled it;
//   - ok=false if recheck failed (the caller must retry with locking).
//
// makeFrame is invoked only when the entry needs filling; it allocates
// and initializes the page.
func (t *Tables) FillPTE(addr uint64, pt *PageTable, recheck func() bool,
	makeFrame func() (uint64, error)) (installed, ok bool, err error) {
	res, err := t.FillOrUpgrade(0, addr, pt, false, recheck, makeFrame, nil, nil)
	return res == FillInstalled, res != FillRecheckFailed, err
}

// UnmapRange implements the recursive unmap scan of Figure 11 for
// [lo, hi): it clears every present PTE in the range under the PTE
// locks, feeding each revoked translation and its frame into the
// caller's gather (the frame's reference is released only after the
// gather's flush and a grace period), frees page tables and
// directories that the range fully covers — their frames ride the
// same gather — and clears the directory entries pointing at them
// under the page-directory lock. onPage, if non-nil, receives each
// cleared entry's virtual address and PTE still inside the PTE lock,
// so rmap bookkeeping keyed by the address is ordered against a
// racing refault of the same page. A huge entry the range fully covers
// is cleared whole, its run recorded as one gather run entry: onPage
// receives it once, inside the page-directory lock, with the chunk's
// base address and the huge PTE itself — PTEHuge set — standing for all
// EntriesPerTable pages of the run. A partially covered huge entry is
// split first and its cleared base PTEs are reported one by one. The
// scan itself pays no shootdown and waits for no grace period: the
// caller flushes the gather once for the whole batch.
func (t *Tables) UnmapRange(g *tlb.Gather, lo, hi uint64, onPage func(addr, pte uint64)) {
	checkAddr(lo)
	if hi != MaxAddress {
		checkAddr(hi - 1)
	}
	if lo >= hi {
		return
	}
	t.unmapDir(g, t.root, lo, hi, onPage)
}

// unmapDir unmaps [lo, hi) within d's span. lo and hi are absolute
// addresses already clamped to d's span by the caller.
func (t *Tables) unmapDir(g *tlb.Gather, d *directory, lo, hi uint64, onPage func(addr, pte uint64)) {
	span := levelSpan(d.level)
	// Base virtual address of d's span.
	dirBase := lo &^ (span*uint64(EntriesPerTable) - 1)
	for idx := index(lo, d.level); idx < EntriesPerTable; idx++ {
		base := dirBase + uint64(idx)*span
		if base >= hi {
			break
		}
		clampLo, clampHi := base, base+span
		if clampLo < lo {
			clampLo = lo
		}
		if clampHi > hi {
			clampHi = hi
		}
		full := clampLo == base && clampHi == base+span

		if d.level == 2 {
			pt := d.tables[idx].Load()
			if pt == nil && d.huge[idx].Load()&PTEPresent != 0 {
				if full {
					// The range covers the whole huge entry: zap it as
					// one gather entry — 512 pages, one flush, one run
					// freed (Figure 11's batching at its best).
					t.zapHuge(g, d, idx, base, onPage)
					continue
				}
				// Partial cover: demote to base pages first (the
				// deposited table makes this infallible), then fall
				// through to the ordinary sub-range clear riding the
				// same gather.
				t.splitHugeEntry(g, d, idx, base)
				pt = d.tables[idx].Load()
			}
			if pt == nil {
				continue
			}
			t.clearPTEs(g, pt, clampLo, clampHi, full, onPage)
			if full {
				t.dirLock.Lock()
				d.tables[idx].Store(nil)
				t.dirLock.Unlock()
				t.retireStructure(g, pt.frame)
			}
		} else {
			child := d.dirs[idx].Load()
			if child == nil {
				continue
			}
			t.unmapDir(g, child, clampLo, clampHi, onPage)
			if full {
				t.dirLock.Lock()
				child.dead.Store(true)
				d.dirs[idx].Store(nil)
				t.dirLock.Unlock()
				t.retireStructure(g, child.frame)
			}
		}
	}
}

// clearPTEs clears the PTEs of pt covering [lo, hi) under the PTE
// lock, recording each revoked translation (and its frame, pending
// release) in the gather and running onPage inside the same critical
// section. When detach is true the whole table is being freed, so it
// is marked dead inside the same critical section; any fault that
// subsequently acquires this lock will observe its VMA recheck fail
// (§5.2).
func (t *Tables) clearPTEs(g *tlb.Gather, pt *PageTable, lo, hi uint64, detach bool, onPage func(addr, pte uint64)) {
	first, last := index(lo, 1), index(hi-1, 1)
	base := lo &^ (TableSpan - 1)
	cleared := uint64(0)
	pt.Lock()
	for i := first; i <= last; i++ {
		pte := pt.PTE(i)
		if pte&PTEPresent == 0 {
			continue
		}
		pt.ptes[i].Store(0)
		cleared++
		addr := base + uint64(i)<<PageShift
		g.Page(addr, PTEFrame(pte))
		if onPage != nil {
			onPage(addr, pte)
		}
	}
	if detach {
		pt.dead.Store(true)
	}
	pt.Unlock()
	t.ptesCleared.Add(cleared)
}

// ClearPTEIfFrame revokes the translation at addr if (and only if) it
// is present, still maps frame f and current, called under the PTE
// lock, agrees, reporting whether it did. This is the page-reclaim
// scan's unmap primitive: eviction walks a page's reverse mappings with
// no locks held, so by the time it reaches a (space, vaddr) pair the PTE
// may already have been cleared by munmap, refilled with a different
// page, or zapped and refaulted onto the same one — the frame comparison
// and current (the scan's rmap incarnation check) under the PTE lock
// make the revocation precise. The caller must be inside an RCU
// read-side critical section (the walk is lock-free) and owns the
// retirement of the cleared entry's frame reference.
func (t *Tables) ClearPTEIfFrame(addr uint64, f physmem.Frame, current func() bool) bool {
	pt := t.WalkTable(addr)
	if pt == nil {
		return false
	}
	idx := index(addr, 1)
	pt.Lock()
	defer pt.Unlock()
	if pt.Dead() {
		return false // detached by a concurrent unmap scan
	}
	pte := pt.PTE(idx)
	if pte&PTEPresent == 0 || PTEFrame(pte) != f || !current() {
		return false
	}
	pt.ptes[idx].Store(0)
	t.ptesCleared.Add(1)
	return true
}

// Stats is a snapshot of page-table counters.
type Stats struct {
	TablesLive     int64  // directories + leaf tables currently attached
	TablesAlloc    uint64 // total allocated (including discarded)
	TablesFreed    uint64
	Discarded      uint64 // lost double-check races
	PTEsFilled     uint64
	PTEsCleared    uint64
	DirDoubleCheck uint64
}

// Stats returns a snapshot of the tree's counters.
func (t *Tables) Stats() Stats {
	return Stats{
		TablesLive:     t.tablesLive.Load(),
		TablesAlloc:    t.tablesAlloc.Load(),
		TablesFreed:    t.tablesFreed.Load(),
		Discarded:      t.discarded.Load(),
		PTEsFilled:     t.ptesFilled.Load(),
		PTEsCleared:    t.ptesCleared.Load(),
		DirDoubleCheck: t.dirDoubleChk.Load(),
	}
}

// PTEsFilledOn returns the fills counted on cpu's cell alone (for the
// shared-write audit).
func (t *Tables) PTEsFilledOn(cpu int) uint64 { return t.ptesFilled.CPU(cpu) }

// forEachLevel2 calls fn on every attached level-2 directory, walking
// lock-free.
func (t *Tables) forEachLevel2(fn func(d *directory)) {
	var walk func(d *directory)
	walk = func(d *directory) {
		if d.level == 2 {
			fn(d)
			return
		}
		for i := range d.dirs {
			if child := d.dirs[i].Load(); child != nil {
				walk(child)
			}
		}
	}
	walk(t.root)
}

// AuditSpares checks the spare list: each spare is listed once, has all
// EntriesPerTable PTEs zero, is not dead, and is neither a live deposit
// nor a published leaf table. The tree must be quiescent — no fault,
// mapping operation or collapse in flight — or a spare popped and
// published mid-audit reads as a violation.
func (t *Tables) AuditSpares() error {
	t.spareLock.Lock()
	spares := append([]*PageTable(nil), t.spares...)
	t.spareLock.Unlock()
	inTree := make(map[*PageTable]string)
	t.forEachLevel2(func(d *directory) {
		for i := range d.tables {
			if pt := d.tables[i].Load(); pt != nil {
				inTree[pt] = "a published leaf table"
			}
			if dep := d.deposit[i].Load(); dep != nil {
				inTree[dep] = "a live deposit"
			}
		}
	})
	var errs []error
	listed := make(map[*PageTable]bool, len(spares))
	for i, pt := range spares {
		if listed[pt] {
			errs = append(errs, fmt.Errorf("spare %d: listed twice", i))
		}
		listed[pt] = true
		if pt.Dead() {
			errs = append(errs, fmt.Errorf("spare %d: dead (detached by an unmap scan or a collapse)", i))
		}
		if role, ok := inTree[pt]; ok {
			errs = append(errs, fmt.Errorf("spare %d: still %s", i, role))
		}
		for j := range pt.ptes {
			if pte := pt.PTE(j); pte != 0 {
				errs = append(errs, fmt.Errorf("spare %d: PTE %d is %#x, want 0", i, j, pte))
				break
			}
		}
	}
	return errors.Join(errs...)
}

// CountPresent returns the number of present PTEs in [lo, hi). It is a
// test helper and takes no locks.
func (t *Tables) CountPresent(lo, hi uint64) int {
	n := 0
	for addr := lo; addr < hi; addr += PageSize {
		if _, ok := t.Walk(addr); ok {
			n++
		}
	}
	return n
}
