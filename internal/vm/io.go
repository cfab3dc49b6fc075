package vm

import (
	"fmt"
	"runtime"

	"bonsai/internal/pagetable"
	"bonsai/internal/physmem"
	"bonsai/internal/vma"
)

// WriteBytes writes data to the address space at addr, faulting pages
// in as needed — the software analogue of a user-space store. It
// requires Config.Backing. The copy for each page runs inside an RCU
// read-side critical section so a concurrent munmap cannot recycle the
// frame mid-copy.
func (c *CPU) WriteBytes(addr uint64, data []byte) error {
	return c.access(addr, data, true)
}

// ReadBytes reads len(buf) bytes from the address space at addr into
// buf, faulting pages in as needed.
func (c *CPU) ReadBytes(addr uint64, buf []byte) error {
	return c.access(addr, buf, false)
}

func (c *CPU) access(addr uint64, buf []byte, write bool) error {
	as := c.as
	if !as.cfg.Backing {
		return fmt.Errorf("%w: ReadBytes/WriteBytes require Config.Backing", ErrInvalid)
	}
	if addr >= MaxAddress || uint64(len(buf)) > MaxAddress-addr {
		return ErrSegv
	}
	off := 0
	for off < len(buf) {
		pos := addr + uint64(off)
		page := pageDown(pos)
		n := int(page + PageSize - pos)
		if n > len(buf)-off {
			n = len(buf) - off
		}
		if err := c.accessPage(pos, buf[off:off+n], write); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// accessPage transfers within one page, retrying the fault if the page
// was unmapped between the fault and the copy. The copy itself runs
// under the leaf PTE lock: a hardware store is atomic with the
// translation's validity, and without that atomicity a store racing
// page reclaim could land after eviction's writeback snapshot and be
// silently lost.
//
// The retry loop is unbounded, like Fault's reclaim loop: losing the
// fault-to-copy window to a concurrent zap or eviction any number of
// times is not an error — if the mapping is truly gone, the re-fault
// itself returns ErrSegv and terminates the loop. The yield keeps a
// pathological eviction storm from spinning this CPU.
func (c *CPU) accessPage(pos uint64, chunk []byte, write bool) error {
	as := c.as
	page := pageDown(pos)
	for attempt := 0; ; attempt++ {
		if attempt > 0 || !as.walkUsable(page, write) {
			if attempt > 2 {
				runtime.Gosched()
			}
			if err := c.Fault(pos, write); err != nil {
				return err
			}
		}
		c.rd.Lock()
		pt := as.tables.WalkTable(page)
		if pt == nil {
			// A huge entry may map the span: copy under the
			// page-directory lock (AccessHuge's copy-under-lock
			// discipline). A write to a read-only huge entry declines,
			// and the re-fault upgrades it in place.
			done := as.tables.AccessHuge(page, write, func(h uint64) {
				sub := physmem.Frame((page >> pagetable.PageShift) & (pagetable.EntriesPerTable - 1))
				data := as.alloc.Data(pagetable.PTEFrame(h) + sub)
				if write {
					copy(data[pos-page:], chunk)
				} else {
					copy(chunk, data[pos-page:])
				}
			})
			c.rd.Unlock()
			if done {
				return nil
			}
			continue
		}
		pt.Lock()
		idx := int(page>>pagetable.PageShift) & (pagetable.EntriesPerTable - 1)
		pte := pt.PTE(idx)
		if pte&pagetable.PTEPresent == 0 || (write && pte&pagetable.PTEWritable == 0) {
			// Unmapped (munmap, DONTNEED, or eviction got here first),
			// or a copy-on-write page that must be broken before a
			// store can land: fault again. A store to a COW frame
			// without the break would leak into the other address
			// space sharing it.
			pt.Unlock()
			c.rd.Unlock()
			continue
		}
		data := as.alloc.Data(pagetable.PTEFrame(pte))
		if write {
			copy(data[pos-page:], chunk)
		} else {
			copy(chunk, data[pos-page:])
		}
		pt.Unlock()
		c.rd.Unlock()
		return nil
	}
}

// walkUsable reports whether the page has a PTE sufficient for the
// access: present, and writable if the access is a store.
func (as *AddressSpace) walkUsable(page uint64, write bool) bool {
	pte, ok := as.tables.Walk(page)
	return ok && (!write || pte&pagetable.PTEWritable != 0)
}

// Region describes one mapped region, as reported by Regions.
type Region struct {
	Start, End uint64
	Prot       vma.Prot
	Flags      vma.Flags
	File       *vma.File
}

func (r Region) String() string {
	name := ""
	if r.File != nil {
		name = " " + r.File.String()
	}
	return fmt.Sprintf("%#012x-%#012x %s %s%s", r.Start, r.End, r.Prot, r.Flags, name)
}

// Regions returns a snapshot of the mapped regions in address order,
// with the whole space pinned so it is consistent across concurrent
// disjoint operations.
func (as *AddressSpace) Regions() []Region {
	pin := as.sy.pin(0, MaxAddress)
	defer pin.unlock()
	out := make([]Region, 0, as.idx.count())
	as.idx.ascendRange(0, MaxAddress, func(v *vma.VMA) bool {
		out = append(out, Region{
			Start: v.Start(), End: v.End(),
			Prot: v.Prot(), Flags: v.Flags(), File: v.File(),
		})
		return true
	})
	return out
}

// RegionCount returns the number of mapped regions.
func (as *AddressSpace) RegionCount() int {
	pin := as.sy.pinIndex()
	defer pin.unlock()
	return as.idx.count()
}
