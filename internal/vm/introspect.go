package vm

import "bonsai/internal/pagetable"

// SmapsRegion is one mapped region's per-page breakdown — the
// /proc/<pid>/smaps analogue for an address space. Counts are pages.
type SmapsRegion struct {
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	Prot  string `json:"prot"`
	Flags string `json:"flags"`
	File  string `json:"file,omitempty"`
	// Pages is the region's extent; RSS is how many of them have a
	// present translation right now.
	Pages uint64 `json:"pages"`
	RSS   uint64 `json:"rss"`
	// Shared counts present pages whose frame resolves to a live
	// page-cache page (file-backed, shared machine-wide); Private counts the
	// rest (anonymous fills and COW copies owned by this space). Cow is
	// the subset of Private still mapped copy-on-write — one write away
	// from a copy.
	Shared  uint64 `json:"shared"`
	Private uint64 `json:"private"`
	Cow     uint64 `json:"cow"`
	// Dirty counts dirty cache pages plus writable private pages (a
	// writable anonymous PTE has by construction been stored to: the
	// fill maps it writable only on a write fault).
	Dirty uint64 `json:"dirty"`
}

// Smaps walks the address space's regions and classifies every present
// translation. The walk takes only existing locks, below everything in
// the hierarchy that matters: the region snapshot comes from Regions
// (the whole-space range lock in range-locked designs, the mmap_sem
// read side otherwise), and each region's page walk runs inside an RCU
// read-side critical section — per region, so a huge mapping cannot
// stall grace periods for the whole walk — with lock-free PTE walks
// and registry lookups, so a concurrent munmap or eviction cannot
// recycle a frame mid-classification.
func (as *AddressSpace) Smaps() []SmapsRegion {
	regions := as.Regions()
	rd := as.dom.Register()
	defer as.dom.Unregister(rd)
	out := make([]SmapsRegion, 0, len(regions))
	for _, r := range regions {
		sr := SmapsRegion{
			Start: r.Start, End: r.End,
			Prot: r.Prot.String(), Flags: r.Flags.String(),
			Pages: (r.End - r.Start) / PageSize,
		}
		if r.File != nil {
			sr.File = r.File.String()
		}
		rd.Lock()
		for page := r.Start; page < r.End; page += PageSize {
			pte, ok := as.tables.Walk(page)
			if !ok {
				continue
			}
			sr.RSS++
			frame := pagetable.PTEFrame(pte)
			if pg := as.fam.ms.reg.Lookup(frame); pg != nil && !pg.Deleted() {
				sr.Shared++
				if pg.Dirty() {
					sr.Dirty++
				}
				continue
			}
			sr.Private++
			if pte&pagetable.PTECow != 0 {
				sr.Cow++
			} else if pte&pagetable.PTEWritable != 0 {
				sr.Dirty++
			}
		}
		rd.Unlock()
		out = append(out, sr)
	}
	return out
}
