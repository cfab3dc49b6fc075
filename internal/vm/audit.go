package vm

import (
	"errors"
	"fmt"
	"runtime"
	"slices"

	"bonsai/internal/pagecache"
	"bonsai/internal/pagetable"
	"bonsai/internal/physmem"
	"bonsai/internal/vma"
)

// AuditPageCaches cross-checks every page cache in the family against
// the page tables, in both directions:
//
//   - cache → PTE: each resident page's reverse-map entries must
//     resolve, through the owning space's page-table walk, to the
//     page's frame (plus the per-page invariants pagecache.Audit
//     checks: frame allocated, registry agreement, reference count =
//     cache + mappings);
//   - PTE → cache: each present PTE inside this space's file-backed
//     regions must be consistent with the frame registry — a Shared
//     mapping must map a live, rmap-registered cache page; a Private
//     one may map a COW copy instead, but if its frame is a cache
//     frame the rmap must know about it.
//
// The machine must be quiesced: no fault, mapping operation, fork, or
// reclaim scan in flight on any family member, and the RCU domain
// flushed (torture's audit phase stops the world first). Under
// concurrency the checks would report false inconsistencies — a fault
// mid-install holds references the walk cannot see yet.
func (as *AddressSpace) AuditPageCaches() error {
	resolve := func(owner pagecache.MappingOwner, vaddr uint64) (physmem.Frame, bool) {
		space, ok := owner.(*AddressSpace)
		if !ok {
			return 0, false
		}
		pte, ok := space.tables.Walk(vaddr)
		if !ok {
			return 0, false
		}
		return pagetable.PTEFrame(pte), true
	}
	var errs []error
	as.fam.ms.filesMu.Lock()
	files := slices.Clone(as.fam.files)
	as.fam.ms.filesMu.Unlock()
	for _, f := range files {
		if c := f.PageCache(); c != nil {
			if err := c.Audit(resolve); err != nil {
				errs = append(errs, fmt.Errorf("cache %s: %w", c.Label(), err))
			}
		}
	}
	if err := as.auditPTEs(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// auditPTEs is the PTE → cache direction: walk this space's
// file-backed regions and validate every present translation against
// the frame registry. Same quiescence requirement as AuditPageCaches.
func (as *AddressSpace) auditPTEs() error {
	var errs []error
	for _, r := range as.Regions() {
		if r.File == nil {
			continue
		}
		shared := r.Flags&vma.Shared != 0
		for page := r.Start; page < r.End; page += PageSize {
			pte, ok := as.tables.Walk(page)
			if !ok {
				continue
			}
			frame := pagetable.PTEFrame(pte)
			pg := as.fam.ms.reg.Lookup(frame)
			if pg == nil {
				if shared {
					errs = append(errs, fmt.Errorf("shared PTE %#x: frame %d is not a registered cache page", page, frame))
				}
				// Private: a COW copy owns its own anonymous frame.
				continue
			}
			if pg.Deleted() {
				errs = append(errs, fmt.Errorf("PTE %#x: maps frame %d of a deleted cache page", page, frame))
				continue
			}
			if !pg.MappedBy(as, page) {
				errs = append(errs, fmt.Errorf("PTE %#x: maps cache frame %d but is missing from the page's reverse map", page, frame))
			}
		}
	}
	return errors.Join(errs...)
}

// AuditTHP validates every live huge entry in this address space
// against the THP invariants, and the entry population against the
// page-table tree's lifecycle counters:
//
//   - a huge entry lives only inside an anonymous, private, non-stack
//     region that fully covers its aligned 2 MB chunk (boundary-
//     crossing mprotect and munmap demote straddlers first);
//   - no leaf table coexists with it — the translation is exclusive;
//   - a writable entry implies a writable region (downgrades narrow or
//     split the entry in place);
//   - its frame run is buddy-aligned, and all 512 frames are allocated,
//     exclusively owned (reference count 1), and not page-cache frames;
//   - the number of live entries walked equals installs − splits − zaps,
//     the identity the AnonHugePages gauge reports;
//   - every page-table struct waiting on the tree's spare list (zapped
//     deposits, lost double checks) is all-zero, not dead, listed once,
//     and neither a live deposit nor a published table
//     (pagetable.AuditSpares).
//
// Same quiescence requirement as AuditPageCaches: no fault, mapping
// operation, fork, collapse, or reclaim scan in flight on any member.
func (as *AddressSpace) AuditTHP() error {
	var errs []error
	live := uint64(0)
	for _, r := range as.Regions() {
		anon := r.File == nil && r.Flags&(vma.Shared|vma.Stack) == 0
		lo := (r.Start + HugeSpan - 1) &^ (HugeSpan - 1)
		for chunk := lo; chunk+HugeSpan <= r.End; chunk += HugeSpan {
			h, ok := as.tables.WalkHuge(chunk)
			if !ok {
				continue
			}
			live++
			if !anon {
				errs = append(errs, fmt.Errorf("huge entry %#x: inside a file-backed, shared, or stack region", chunk))
			}
			if as.tables.WalkTable(chunk) != nil {
				errs = append(errs, fmt.Errorf("huge entry %#x: a leaf table coexists with the huge translation", chunk))
			}
			if h&pagetable.PTEWritable != 0 && r.Prot&vma.ProtWrite == 0 {
				errs = append(errs, fmt.Errorf("huge entry %#x: writable inside a read-only region", chunk))
			}
			run := pagetable.PTEFrame(h)
			if uint64(run)%pagetable.EntriesPerTable != 0 {
				errs = append(errs, fmt.Errorf("huge entry %#x: frame run %d is not order-%d aligned", chunk, run, pagetable.HugeOrder))
				continue
			}
			for i := physmem.Frame(0); i < pagetable.EntriesPerTable; i++ {
				f := run + i
				switch {
				case !as.alloc.Allocated(f):
					errs = append(errs, fmt.Errorf("huge entry %#x: frame %d of its run is free", chunk, f))
				case as.alloc.Refs(f) != 1:
					errs = append(errs, fmt.Errorf("huge entry %#x: frame %d has %d references, want exclusive ownership", chunk, f, as.alloc.Refs(f)))
				case as.fam.ms.reg.Lookup(f) != nil:
					errs = append(errs, fmt.Errorf("huge entry %#x: frame %d is a registered page-cache frame", chunk, f))
				}
			}
		}
	}
	installs, splits, zaps := as.tables.HugeStats()
	if want := installs - splits - zaps; live != want {
		errs = append(errs, fmt.Errorf("walked %d live huge entries, counters say %d (installs %d − splits %d − zaps %d)",
			live, want, installs, splits, zaps))
	}
	if err := as.tables.AuditSpares(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// QuiesceReclaim runs fn while the machine's eviction scans are held
// off and the RCU domain's deferred work (evicted frames' releases,
// revoked mappings' reference drops) has drained. It is the bracket
// AuditPageCaches needs: with application operations also stopped, fn
// observes settled rmap, refcount, and residency state — a scan caught
// between its revocation and bookkeeping phases would otherwise show
// rmap entries whose PTEs are already gone.
func (as *AddressSpace) QuiesceReclaim(fn func()) {
	as.fam.ms.rec.Quiesce(func() {
		as.dom.Synchronize()
		fn()
	})
}

// AuditTranslation checks the frame-generation invariant batched
// shootdown relies on (PR 5): a frame observed through a present PTE
// inside an RCU read-side critical section must stay allocated, with a
// stable generation, until the section exits — no zap, eviction, or
// COW break may let it reach the free list while a lock-free walker
// could still be dereferencing it. Safe to call concurrently with any
// workload; returns nil when the page is simply not mapped.
func (c *CPU) AuditTranslation(addr uint64) error {
	as := c.as
	if addr >= MaxAddress {
		return nil
	}
	page := pageDown(addr)
	c.rd.Lock()
	defer c.rd.Unlock()
	pte, ok := as.tables.Walk(page)
	if !ok {
		return nil
	}
	frame := pagetable.PTEFrame(pte)
	if !as.alloc.Allocated(frame) {
		return fmt.Errorf("vm: audit: PTE %#x maps frame %d, already free inside a read section", page, frame)
	}
	gen := as.alloc.Gen(frame)
	// Give a racing zap a scheduling window: if the frame's release were
	// not deferred past this read section, the recheck would see a freed
	// or recycled (generation-bumped) frame.
	runtime.Gosched()
	if !as.alloc.Allocated(frame) {
		return fmt.Errorf("vm: audit: frame %d freed while a read section held a translation to it", frame)
	}
	if g := as.alloc.Gen(frame); g != gen {
		return fmt.Errorf("vm: audit: frame %d recycled (generation %d→%d) while a read section held a translation to it", frame, gen, g)
	}
	return nil
}
