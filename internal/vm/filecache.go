package vm

import (
	"fmt"
	"slices"

	"bonsai/internal/pagecache"
	"bonsai/internal/vma"
)

// maxFileOffset bounds the file offset an Mmap may name, leaving the
// page cache's radix (57-bit offsets) headroom for the mapping span
// (at most the 48-bit address space) on top of it.
const maxFileOffset = uint64(1) << 56

// registerFile records the family as a user of the file, once, and
// resolves the file's page cache, creating and attaching one on the
// file's first mapping into this machine. The cache is the object that
// makes mappings of the same file in different address spaces — of one
// tenant or of several — share frames; it lives until the last family
// that maps the file retires. Mapping a file whose cache belongs to a
// different machine (a different physical allocator) is rejected —
// frames are only meaningful within one simulated machine.
func (as *AddressSpace) registerFile(f *vma.File) error {
	fam, h := as.fam, as.fam.ms
	h.filesMu.Lock()
	defer h.filesMu.Unlock()
	if slices.Contains(fam.files, f) {
		return nil
	}
	c := f.PageCache()
	if c == nil {
		c = pagecache.New(f.ID, f.String(), as.alloc, as.dom, h.reg)
		if f.TryAttachCache(c) {
			// The cache joins the machine's eviction rotation: under
			// memory pressure the reclaim scan may now evict its
			// resident pages.
			h.rec.Register(c)
		} else {
			// Lost a first-mapping race. filesMu only excludes mappers
			// on this machine, so the winner belongs to a different
			// one: validate it below rather than clobbering it.
			c = f.PageCache()
		}
	}
	if c == nil || !c.SameAllocator(as.alloc) {
		return fmt.Errorf("%w: file %s is already cached by another machine", ErrInvalid, f)
	}
	fam.files = append(fam.files, f)
	h.fileUsers[f]++
	return nil
}

// dropCaches ends the retiring family's use of every file it mapped.
// A file no other live family maps has its cache torn down: resident
// pages are dropped (their cache-owned frame references deferred past
// a grace period), the cache leaves the machine's eviction rotation,
// and the handle detaches so the File can be mapped into a fresh
// machine later. Called when the tenant retires, before the domain is
// flushed.
func (fam *family) dropCaches() {
	h := fam.ms
	h.filesMu.Lock()
	defer h.filesMu.Unlock()
	for _, f := range fam.files {
		h.fileUsers[f]--
		if h.fileUsers[f] > 0 {
			continue // another live tenant still maps the file
		}
		delete(h.fileUsers, f)
		if c := f.PageCache(); c != nil {
			h.rec.Unregister(c)
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
// mapped in this address space's family. A cache is machine-wide, so
// all members, and every tenant mapping the same files, report the
// same totals.
func (as *AddressSpace) PageCacheStats() pagecache.Stats {
	var total pagecache.Stats
	as.fam.ms.filesMu.Lock()
	defer as.fam.ms.filesMu.Unlock()
	for _, f := range as.fam.files {
		if c := f.PageCache(); c != nil {
			total.Add(c.Stats())
		}
	}
	return total
}
