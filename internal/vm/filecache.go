package vm

import (
	"fmt"

	"bonsai/internal/pagecache"
	"bonsai/internal/vma"
)

// maxFileOffset bounds the file offset an Mmap may name, leaving the
// page cache's radix (57-bit offsets) headroom for the mapping span
// (at most the 48-bit address space) on top of it.
const maxFileOffset = uint64(1) << 56

// registerFile resolves the file's page cache, creating and attaching
// one on the file's first mapping into this family. The cache is the
// object that makes mappings of the same file in different address
// spaces share frames; it lives until the last family member closes.
// Mapping a file whose cache belongs to a different family (a different
// physical allocator) is rejected — frames are only meaningful within
// one simulated machine.
func (as *AddressSpace) registerFile(f *vma.File) error {
	if c := f.PageCache(); c != nil {
		if !c.SameAllocator(as.alloc) {
			return fmt.Errorf("%w: file %s is already cached by another machine", ErrInvalid, f)
		}
		return nil
	}
	fam := as.fam
	fam.filesMu.Lock()
	defer fam.filesMu.Unlock()
	c := pagecache.New(f.ID, f.String(), as.alloc, as.dom, fam.ms.reg)
	if !f.TryAttachCache(c) {
		// Lost a first-mapping race. filesMu only excludes mappers in
		// this family, so the winner may belong to a different machine
		// entirely — validate its allocator rather than clobbering it.
		winner := f.PageCache()
		if winner == nil || !winner.SameAllocator(as.alloc) {
			return fmt.Errorf("%w: file %s is already cached by another machine", ErrInvalid, f)
		}
		return nil
	}
	fam.files = append(fam.files, f)
	// The cache joins the machine's eviction rotation: under memory
	// pressure the reclaim scan may now evict its resident pages.
	fam.ms.rec.Register(c)
	return nil
}

// dropCaches tears down every file cache the family accumulated:
// resident pages are dropped (their cache-owned frame references
// deferred past a grace period), each cache leaves the machine's
// eviction rotation, and the cache handles detach so the Files can be
// mapped into a fresh machine (or a fresh tenant) later. Called when
// the tenant retires, before the domain is flushed.
func (fam *family) dropCaches() {
	fam.filesMu.Lock()
	defer fam.filesMu.Unlock()
	for _, f := range fam.files {
		if c := f.PageCache(); c != nil {
			fam.ms.rec.Unregister(c)
			c.DropAll()
			f.AttachCache(nil)
		}
	}
	fam.files = nil
}

// NewSibling returns a fresh, empty address space in the same family: a
// second "process" on the same simulated machine, sharing the physical
// allocator, the RCU domain, and — crucially — the per-file page
// caches, so mappings of the same vma.File in both spaces resolve to
// the same frames. Unlike Fork it copies nothing. The sibling counts
// against Config.MaxFamily and must be Closed like any address space.
// Like Fault and Fork, it answers a transient frame shortage (its
// page-table root allocation) with direct reclaim and a retry.
func (as *AddressSpace) NewSibling() (*AddressSpace, error) {
	var sib *AddressSpace
	err := as.retryShortage(func() error {
		var err error
		sib, err = newMember(as.cfg, as.fam)
		return err
	})
	if err != nil {
		return nil, err
	}
	return sib, nil
}

// PageCacheStats aggregates the page-cache counters across every file
// mapped in this address space's family (the cache is family-shared, so
// all members report the same totals).
func (as *AddressSpace) PageCacheStats() pagecache.Stats {
	var total pagecache.Stats
	as.fam.filesMu.Lock()
	defer as.fam.filesMu.Unlock()
	for _, f := range as.fam.files {
		if c := f.PageCache(); c != nil {
			total.Add(c.Stats())
		}
	}
	return total
}
