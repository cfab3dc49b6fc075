// Package vma implements virtual memory areas: the region objects the
// address-space tree stores (Figure 1). A VMA's bounds are atomics and
// it carries a deleted mark because, in the RCU-based designs, the
// page-fault handler reads VMAs with no locks while memory-mapping
// operations adjust bounds and delete regions (§5.2). The fault
// handler's double check under the PTE lock — "the VMA has not been
// marked as deleted and the faulting address still falls within the
// VMA's bounds" — reads exactly these fields.
package vma

import (
	"fmt"
	"sync/atomic"

	"bonsai/internal/pagecache"
	"bonsai/internal/physmem"
)

// Prot is a protection bit set.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Flags describe the kind of mapping.
type Flags uint16

// Mapping flags.
const (
	// Anon is an anonymous mapping (demand-zero pages).
	Anon Flags = 1 << iota
	// Shared makes writes visible through other mappings of the same file.
	Shared
	// Private is a copy-on-write mapping.
	Private
	// Stack marks a stack region that grows downward on faults just
	// below its start.
	Stack
	// Fixed places the mapping exactly at the requested address,
	// unmapping whatever was there (MAP_FIXED).
	Fixed
)

func (f Flags) String() string {
	s := ""
	add := func(bit Flags, name string) {
		if f&bit != 0 {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	add(Anon, "anon")
	add(Shared, "shared")
	add(Private, "private")
	add(Stack, "stack")
	add(Fixed, "fixed")
	if s == "" {
		s = "0"
	}
	return s
}

// File is a simulated backing file. Page contents are a deterministic
// function of (Seed, page offset), which lets tests verify that
// file-backed faults filled the right data without any real I/O.
//
// A File is a registered object: it carries a stable ID (assigned by
// NewFile) used in String() and stats labels, and — once mapped — a
// handle to its per-file page cache, through which every address space
// mapping the file shares one frame per page.
type File struct {
	Name string
	Seed uint64
	// ID is the file's stable identity, used to label cache and bench
	// output. NewFile assigns process-unique IDs; zero means unnamed.
	ID uint64

	cache atomic.Pointer[pagecache.Cache]
}

// fileIDs hands out stable File IDs, starting at 1 so zero stays the
// "unregistered literal" sentinel.
var fileIDs atomic.Uint64

// NewFile returns a File with a process-unique stable ID.
func NewFile(name string, seed uint64) *File {
	return &File{Name: name, Seed: seed, ID: fileIDs.Add(1)}
}

// PageCache returns the file's page cache, or nil if the file has never
// been mapped.
func (f *File) PageCache() *pagecache.Cache { return f.cache.Load() }

// AttachCache installs (or, with nil, detaches) the file's page cache.
// Only the VM layer's file registry calls it, under its registry lock.
func (f *File) AttachCache(c *pagecache.Cache) { f.cache.Store(c) }

// TryAttachCache installs c only if the file has no cache yet,
// reporting whether it won. Registries in different families hold
// different locks, so the first attach must be an atomic
// compare-and-swap: the loser validates the winner's cache instead of
// clobbering it.
func (f *File) TryAttachCache(c *pagecache.Cache) bool {
	return f.cache.CompareAndSwap(nil, c)
}

// String labels the file by name and stable ID.
func (f *File) String() string {
	if f == nil {
		return "<anon>"
	}
	return fmt.Sprintf("%s#%d", f.Name, f.ID)
}

// PageByte returns the fill byte for the page at the given file offset.
func (f *File) PageByte(off uint64) byte {
	x := f.Seed ^ off
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return byte(x)
}

// FillPage writes the pristine contents of the page at the given file
// offset — PageByte(off) in every byte — into dst. It stores one byte
// and doubles it with copy, so a 4 KiB page costs twelve memmoves
// rather than 4,096 single-byte stores: the fill runs on every page
// cache miss, under the cache mutex.
func (f *File) FillPage(dst *[physmem.PageSize]byte, off uint64) {
	dst[0] = f.PageByte(off)
	for n := 1; n < len(dst); n *= 2 {
		copy(dst[n:], dst[:n])
	}
}

// VMA is one contiguous mapped region. Start and End are multiples of
// the page size; the region covers [Start, End).
//
// Bounds are read locklessly by the RCU fault paths, so they are
// atomics; they are only written by memory-mapping operations holding
// the address space's write lock. A VMA is immutable apart from its
// bounds and deleted mark.
type VMA struct {
	start   atomic.Uint64
	end     atomic.Uint64
	deleted atomic.Bool

	prot    Prot
	flags   Flags
	file    *File  // nil for anonymous mappings
	fileOff uint64 // file offset corresponding to Start at creation
}

// New returns a VMA covering [start, end).
func New(start, end uint64, prot Prot, flags Flags, file *File, fileOff uint64) *VMA {
	if start >= end {
		panic(fmt.Sprintf("vma: invalid bounds [%#x, %#x)", start, end))
	}
	v := &VMA{prot: prot, flags: flags, file: file, fileOff: fileOff}
	v.start.Store(start)
	v.end.Store(end)
	return v
}

// Start returns the inclusive lower bound.
func (v *VMA) Start() uint64 { return v.start.Load() }

// End returns the exclusive upper bound.
func (v *VMA) End() uint64 { return v.end.Load() }

// Len returns the region length in bytes.
func (v *VMA) Len() uint64 { return v.End() - v.Start() }

// Prot returns the protection bits.
func (v *VMA) Prot() Prot { return v.prot }

// Flags returns the mapping flags.
func (v *VMA) Flags() Flags { return v.flags }

// File returns the backing file, or nil for anonymous mappings.
func (v *VMA) File() *File { return v.file }

// FileOffset returns the file offset backing the page containing addr.
func (v *VMA) FileOffset(addr uint64) uint64 {
	return v.fileOff + (addr - v.Start())
}

// Deleted reports whether the VMA has been removed from its address
// space. Lock-free readers check this as part of the §5.2 double check.
func (v *VMA) Deleted() bool { return v.deleted.Load() }

// MarkDeleted marks the VMA removed. Only memory-mapping operations
// holding the write lock may call it.
func (v *VMA) MarkDeleted() { v.deleted.Store(true) }

// Contains reports whether addr falls inside the VMA's current bounds
// and the VMA is still live. This is the fault handler's validity
// check; when it races with a bound adjustment the PTE-lock recheck
// catches the change.
func (v *VMA) Contains(addr uint64) bool {
	return !v.Deleted() && v.Start() <= addr && addr < v.End()
}

// Overlaps reports whether the VMA intersects [lo, hi).
func (v *VMA) Overlaps(lo, hi uint64) bool {
	return v.Start() < hi && lo < v.End()
}

// SetEnd adjusts the upper bound (used when munmap trims the tail of a
// region, Figure 10 time 2). Only write-lock holders may call it.
func (v *VMA) SetEnd(end uint64) {
	if end <= v.Start() {
		panic(fmt.Sprintf("vma: SetEnd(%#x) <= start %#x", end, v.Start()))
	}
	v.end.Store(end)
}

// SetStart adjusts the lower bound (used for downward stack growth).
// Only write-lock holders may call it. Note that the address-space tree
// is keyed by start, so callers must re-index the VMA around this call.
func (v *VMA) SetStart(start uint64) {
	if start >= v.End() {
		panic(fmt.Sprintf("vma: SetStart(%#x) >= end %#x", start, v.End()))
	}
	v.start.Store(start)
}

// CanMerge reports whether a new mapping with the given attributes,
// starting exactly at v.End(), can extend v instead of creating a new
// region (the mmap coalescing described in §4).
func (v *VMA) CanMerge(prot Prot, flags Flags, file *File, fileOff uint64) bool {
	if v.Deleted() || v.prot != prot {
		return false
	}
	// Flags must match apart from Fixed, which is a placement
	// directive, not a property of the region.
	if (v.flags &^ Fixed) != (flags &^ Fixed) {
		return false
	}
	if v.file != file {
		return false
	}
	// File-backed regions must be contiguous in the file as well.
	if file != nil && v.FileOffset(v.End()) != fileOff {
		return false
	}
	return true
}

func (v *VMA) String() string {
	if v.file != nil {
		return fmt.Sprintf("[%#x-%#x %s %s %s]", v.Start(), v.End(), v.prot, v.flags, v.file)
	}
	return fmt.Sprintf("[%#x-%#x %s %s]", v.Start(), v.End(), v.prot, v.flags)
}
