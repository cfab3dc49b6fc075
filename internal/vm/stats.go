package vm

import (
	"sync/atomic"
	"unsafe"

	"bonsai/internal/reclaim"
	"bonsai/internal/stats"
)

// Counts is the VM's one counter set, mirroring the accounting the
// paper reports: fault counts, retry-with-lock events (split races,
// fill races, hard cases), splits and merges, and mmap cache behaviour
// (§6), plus reclaim and transparent-huge-page outcomes. A member keeps
// it per fault CPU and per mapping-operation slot; Stats reads one
// member's, and Rollup folds a family's members and a machine's
// tenants with Add, so every surface — Stats, machine.Snapshot,
// Prometheus, /proc, vmtop, bench/ — reads the same fields. Every field
// is one 64-bit word (Add folds word by word).
type Counts struct {
	Faults              uint64 `json:"faults"`                // page faults handled
	FaultsAlreadyMapped uint64 `json:"faults_already_mapped"` // faults that found the PTE already filled
	PagesMapped         uint64 `json:"pages_mapped"`
	// PagesUnmapped counts every translation removed: munmap, DONTNEED,
	// teardown and the eviction scan's (EvictUnmaps) alike.
	PagesUnmapped   uint64 `json:"pages_unmapped"`
	Mmaps           uint64 `json:"mmaps"`
	Munmaps         uint64 `json:"munmaps"`
	Mprotects       uint64 `json:"mprotects"`
	Madvises        uint64 `json:"madvises"`
	Merges          uint64 `json:"merges"` // mmaps that extended an adjacent VMA
	Splits          uint64 `json:"splits"` // munmaps that split a VMA (Figure 10)
	StackGrowths    uint64 `json:"stack_growths"`
	RetriesMiss     uint64 `json:"retries_miss"`      // slow retries: lookup miss / split race
	RetriesFillRace uint64 `json:"retries_fill_race"` // slow retries: §5.2 fill race double check
	RetriesCow      uint64 `json:"retries_cow"`       // slow retries: copy-on-write hard case (§6)
	Forks           uint64 `json:"forks"`
	CowBreaks       uint64 `json:"cow_breaks"`  // write faults that broke copy-on-write
	CowReowned      uint64 `json:"cow_reowned"` // COW breaks resolved by re-owning (sole reference)
	CowCopies       uint64 `json:"cow_copies"`  // COW breaks that copied the page
	MmapCacheHits   uint64 `json:"mmap_cache_hits"`
	MmapCacheMisses uint64 `json:"mmap_cache_misses"`

	EvictUnmaps    uint64 `json:"evict_unmaps"`    // PTEs revoked by the eviction scan
	ReclaimRetries uint64 `json:"reclaim_retries"` // operations that ran direct reclaim and retried

	// Transparent-huge-page counters: the 2MB fault path, khugepaged-
	// style collapses, and gather-driven demotions. Splits and zaps are
	// counted by the page-table tree itself (a partial munmap demotes
	// deep inside the unmap scan) and read from it.
	THPHugeFaults    uint64 `json:"thp_huge_faults"`    // faults satisfied by installing a huge entry
	THPFallbacks     uint64 `json:"thp_fallbacks"`      // huge-eligible faults that fell back to base pages
	THPCollapses     uint64 `json:"thp_collapses"`      // base-page chunks promoted to huge entries
	THPCollapseFails uint64 `json:"thp_collapse_fails"` // collapse attempts aborted (ineligible or no run)
	THPSplits        uint64 `json:"thp_splits"`         // huge entries demoted to base pages in place
	THPZaps          uint64 `json:"thp_zaps"`           // huge entries fully unmapped
	AnonHugePages    int64  `json:"anon_huge_pages"`    // huge entries currently live (each maps 512 pages)
}

// countWords is the number of 64-bit words in a Counts.
const countWords = unsafe.Sizeof(Counts{}) / 8

// words views c as its words (TestCountsAreWords keeps every field one).
func (c *Counts) words() *[countWords]uint64 {
	return (*[countWords]uint64)(unsafe.Pointer(c))
}

// Add folds o into c: the one merge under every sum of counts, from a
// member's live rows (whose owners add to them concurrently, hence the
// atomic loads) up to a machine's tenants. A signed field adds
// correctly as its two's-complement word.
func (c *Counts) Add(o *Counts) {
	w, ow := c.words(), o.words()
	for i := range ow {
		w[i] += atomic.LoadUint64(&ow[i])
	}
}

// Retries returns the total slow-path retries.
func (c Counts) Retries() uint64 {
	return c.RetriesMiss + c.RetriesFillRace + c.RetriesCow
}

// retries returns the counter of reason's slow retries.
func (c *Counts) retries(reason retryReason) *uint64 {
	switch reason {
	case retryFillRace:
		return &c.RetriesFillRace
	case retryCow:
		return &c.RetriesCow
	}
	return &c.RetriesMiss
}

// statRow is one fault CPU's or one mapping-operation slot's share of a
// member's statistics. Its counts are written only by sync/atomic adds
// and read only by Add; its histogram holds the row's timed calls.
type statRow struct {
	Counts
	hist stats.LatencyHist
}

// statsCounters holds a member's statistics in rows of its own: a fault
// writes its CPU's row (CPU.st) and a mapping operation its slot's
// (opCtx.slot), never a line another CPU's fault or another slot's
// operation writes. The fault rows' histograms span the whole Fault
// call — fast path, slow retries, reclaim ladder and all — for the
// sampled faults (see CPU.sampleDue); the slot rows' span
// Mmap/Munmap/Mprotect/Madvise calls end to end.
type statsCounters struct {
	cpu, slot stats.PerCPU[statRow]
}

// init sizes the rows for cpus fault contexts and the operation slots.
func (s *statsCounters) init(cpus int) {
	s.cpu, s.slot = stats.NewPerCPU[statRow](cpus), stats.NewPerCPU[statRow](mapSlotCells())
}

// op returns the counts of op's slot.
func (s *statsCounters) op(op *opCtx) *Counts { return &s.slot.At(op.slot).Counts }

// unslotted returns the counts of slot 0, where the paths that run with
// neither a fault CPU nor an operation slot count: the eviction scan,
// collapse, the shortage-retry ladder. They are slow paths; any row
// counts.
func (s *statsCounters) unslotted() *Counts { return &s.slot.At(0).Counts }

// counts folds the member's rows, and the page-table tree's huge-entry
// counters, into one Counts.
func (as *AddressSpace) counts() Counts {
	var c Counts
	for _, rows := range []*stats.PerCPU[statRow]{&as.stats.cpu, &as.stats.slot} {
		for r := range rows.All() {
			c.Add(&r.Counts)
		}
	}
	if as.tables == nil {
		return c // a member whose construction failed before its page tables
	}
	installs, splits, zaps := as.tables.HugeStats()
	c.THPSplits, c.THPZaps = splits, zaps
	c.AnonHugePages = int64(installs) - int64(splits) - int64(zaps)
	return c
}

// Stats is one address space's counter set, plus the shared layers'
// counters read through it.
type Stats struct {
	Counts

	// TLB-shootdown counters, machine-wide (the gather domain is shared
	// with every tenant and the reclaim scan, like the frame pool).
	TLBFlushes      uint64 // batched shootdown flushes paid (internal/tlb)
	TLBPagesFlushed uint64 // translations revoked across those flushes

	OOMKills uint64 // killer-of-last-resort reaps of a victim in this tenant

	// Page-cache counters are PageCacheStats, aggregated across every
	// file the family maps.
}

// Stats returns a snapshot of the address space's counters.
func (as *AddressSpace) Stats() Stats {
	tl := as.fam.ms.tlb.Stats()
	return Stats{
		Counts:          as.counts(),
		TLBFlushes:      tl.Flushes,
		TLBPagesFlushed: tl.PagesFlushed,
		OOMKills:        as.fam.oomKills.Load(),
	}
}

// ReclaimStats exposes the machine-wide reclaim counters (kswapd
// cycles, direct-reclaim runs, evictions, writebacks). Family-shared,
// like the frame pool they protect.
func (as *AddressSpace) ReclaimStats() reclaim.Stats {
	return as.fam.ms.rec.Stats()
}

// Rollup is a family's — a tenant's — statistics over every member it
// has had: the counter set and the timed fault, mapping-operation and
// contended range-wait samples. A closing member is folded in once, by
// Close; AddressSpace.Rollup adds the live members, and the machine
// folds each retired tenant's final Rollup into its departed totals.
// Add is the one merge, so every surface that reports a tenant or a
// machine counts each event exactly once.
type Rollup struct {
	Counts
	// Fault spans CPU.Fault end to end (fast path through OOM ladder);
	// it holds the timed sample only, so its count is not Faults.
	Fault stats.LatencyHist
	// MapOp spans Mmap/Munmap/Mprotect/MadviseDontNeed calls.
	MapOp stats.LatencyHist
	// RangeWait is the contended range-lock wait (empty for designs on
	// the global mmap_sem).
	RangeWait stats.LatencyHist
}

// Add folds o into r; o keeps its counts.
func (r *Rollup) Add(o *Rollup) {
	r.Counts.Add(&o.Counts)
	r.Fault.Merge(&o.Fault)
	r.MapOp.Merge(&o.MapOp)
	r.RangeWait.Merge(&o.RangeWait)
}

// addMember folds one member's own rows into r.
func (r *Rollup) addMember(as *AddressSpace) {
	c := as.counts()
	r.Counts.Add(&c)
	for row := range as.stats.cpu.All() {
		r.Fault.Merge(&row.hist)
	}
	for row := range as.stats.slot.All() {
		r.MapOp.Merge(&row.hist)
	}
	if h := as.rangeWaitHist(); h != nil {
		r.RangeWait.Merge(h)
	}
}

// Rollup returns the statistics of this space's family: every member
// that has closed plus every live one, read under the lock a closing
// member leaves under, so no member is missed or counted twice and
// successive reads never shrink. After the last member closes it is
// the tenant's final account.
func (as *AddressSpace) Rollup() *Rollup {
	fam := as.fam
	r := new(Rollup)
	fam.membersMu.Lock()
	defer fam.membersMu.Unlock()
	r.Add(&fam.departed)
	for _, m := range fam.members {
		r.addMember(m)
	}
	return r
}
