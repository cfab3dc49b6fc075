package vm

import (
	"sync/atomic"

	"bonsai/internal/reclaim"
	"bonsai/internal/stats"
)

// statsCounters holds the address space's counters and its always-on
// hot-path latency histograms.
type statsCounters struct {
	// Everything a fast-path fault counts is per-CPU, indexed by
	// CPU.id: a fault writes its own cells and no line another CPU's
	// fault writes. faultHist spans the whole Fault call — fast path,
	// slow retries, reclaim ladder and all — for the sampled faults
	// (see CPU.sampleDue); faults counts every one.
	faultHist           stats.CPUHist
	faults              stats.Counter
	faultsAlreadyMapped stats.Counter
	pagesMapped         stats.Counter
	cowBreaks           stats.Counter
	cacheHits           stats.Counter
	cacheMisses         stats.Counter
	thpHugeFaults       stats.Counter // faults satisfied by installing a huge entry
	thpFallbacks        stats.Counter // huge-eligible faults that fell back to base pages

	// Everything a mapping operation counts is per slot (opCtx.slot):
	// operations on different processors write lines of their own.
	// mapHist spans Mmap/Munmap/Mprotect/Madvise calls end to end.
	mapHist       stats.CPUHist
	pagesUnmapped stats.Counter
	mmaps         stats.Counter
	munmaps       stats.Counter
	mprotects     stats.Counter
	madvises      stats.Counter
	merges        stats.Counter
	splits        stats.Counter
	// The rest is written by slow paths only, and stays shared.
	stackGrowths   atomic.Uint64
	retries        [numRetryReasons]atomic.Uint64 // retry-with-lock events, by retryReason
	forks          atomic.Uint64
	cowReowned     atomic.Uint64
	cowCopies      atomic.Uint64
	evictUnmaps    atomic.Uint64
	reclaimRetries atomic.Uint64

	// Transparent-huge-page counters for the paths the VM layer drives
	// (splits and zaps are counted by the page-table tree itself — a
	// partial munmap demotes deep inside the unmap scan).
	thpCollapses     atomic.Uint64 // base-page chunks promoted to huge entries
	thpCollapseFails atomic.Uint64 // collapse attempts aborted (ineligible or no run)
}

// init sizes the per-CPU cells for cpus fault contexts, and the per-slot cells.
func (s *statsCounters) init(cpus int) {
	s.faultHist, s.mapHist = stats.NewCPUHist(cpus), stats.NewCPUHist(mapSlotCells())
	for _, c := range []*stats.Counter{&s.faults, &s.faultsAlreadyMapped, &s.pagesMapped, &s.cowBreaks,
		&s.cacheHits, &s.cacheMisses, &s.thpHugeFaults, &s.thpFallbacks} {
		*c = stats.NewCounter(cpus)
	}
	for _, c := range []*stats.Counter{&s.pagesUnmapped, &s.mmaps, &s.munmaps, &s.mprotects, &s.madvises,
		&s.merges, &s.splits} {
		*c = stats.NewCounter(mapSlotCells())
	}
}

// Stats is a snapshot of address-space activity, mirroring the
// accounting the paper reports: fault counts, retry-with-lock events
// (split races, fill races, hard cases), splits and merges, and mmap
// cache behaviour (§6).
type Stats struct {
	Faults              uint64 // page faults handled
	FaultsAlreadyMapped uint64 // faults that found the PTE already filled
	PagesMapped         uint64
	PagesUnmapped       uint64
	Mmaps               uint64
	Munmaps             uint64
	Mprotects           uint64
	Madvises            uint64
	Merges              uint64 // mmaps that extended an adjacent VMA
	Splits              uint64 // munmaps that split a VMA (Figure 10)
	StackGrowths        uint64
	RetriesMiss         uint64 // slow retries: lookup miss / split race
	RetriesFillRace     uint64 // slow retries: §5.2 fill race double check
	RetriesCow          uint64 // slow retries: copy-on-write hard case (§6)
	Forks               uint64
	CowBreaks           uint64 // write faults that broke copy-on-write
	CowReowned          uint64 // COW breaks resolved by re-owning (sole reference)
	CowCopies           uint64 // COW breaks that copied the page
	MmapCacheHits       uint64
	MmapCacheMisses     uint64

	// Reclaim-side counters for this address space.
	EvictUnmaps    uint64 // PTEs revoked out of this space by the eviction scan
	ReclaimRetries uint64 // faults that ran direct reclaim and retried

	// Transparent-huge-page counters: the 2MB fault path, khugepaged-
	// style collapses, and gather-driven demotions.
	THPHugeFaults    uint64 // faults satisfied by installing a huge entry
	THPFallbacks     uint64 // huge-eligible faults that fell back to base pages
	THPCollapses     uint64 // base-page chunks promoted to huge entries
	THPCollapseFails uint64 // collapse attempts aborted (ineligible or no run)
	THPSplits        uint64 // huge entries demoted to base pages in place
	THPZaps          uint64 // huge entries fully unmapped
	AnonHugePages    int64  // huge entries currently live (each maps 512 pages)

	// TLB-shootdown counters, family-wide (the gather domain is shared
	// with forks, siblings, and the reclaim scan, like the frame pool).
	TLBFlushes      uint64 // batched shootdown flushes paid (internal/tlb)
	TLBPagesFlushed uint64 // translations revoked across those flushes

	OOMKills uint64 // killer-of-last-resort invocations, family-wide

	// Page-cache counters are PageCacheStats, aggregated across every
	// file the family maps.
}

// Retries returns the total slow-path retries.
func (s Stats) Retries() uint64 {
	return s.RetriesMiss + s.RetriesFillRace + s.RetriesCow
}

// Stats returns a snapshot of the address space's counters.
func (as *AddressSpace) Stats() Stats {
	tl := as.fam.ms.tlb.Stats()
	hugeInstalls, hugeSplits, hugeZaps := as.tables.HugeStats()
	return Stats{
		TLBFlushes:      tl.Flushes,
		TLBPagesFlushed: tl.PagesFlushed,

		OOMKills: as.fam.oomKills.Load(),

		EvictUnmaps:    as.stats.evictUnmaps.Load(),
		ReclaimRetries: as.stats.reclaimRetries.Load(),

		THPHugeFaults:    as.stats.thpHugeFaults.Load(),
		THPFallbacks:     as.stats.thpFallbacks.Load(),
		THPCollapses:     as.stats.thpCollapses.Load(),
		THPCollapseFails: as.stats.thpCollapseFails.Load(),
		THPSplits:        hugeSplits,
		THPZaps:          hugeZaps,
		AnonHugePages:    int64(hugeInstalls) - int64(hugeSplits) - int64(hugeZaps),

		Faults:              as.stats.faults.Load(),
		FaultsAlreadyMapped: as.stats.faultsAlreadyMapped.Load(),
		PagesMapped:         as.stats.pagesMapped.Load(),
		PagesUnmapped:       as.stats.pagesUnmapped.Load(),
		Mmaps:               as.stats.mmaps.Load(),
		Munmaps:             as.stats.munmaps.Load(),
		Mprotects:           as.stats.mprotects.Load(),
		Madvises:            as.stats.madvises.Load(),
		Merges:              as.stats.merges.Load(),
		Splits:              as.stats.splits.Load(),
		StackGrowths:        as.stats.stackGrowths.Load(),
		RetriesMiss:         as.stats.retries[retryMiss].Load(),
		RetriesFillRace:     as.stats.retries[retryFillRace].Load(),
		RetriesCow:          as.stats.retries[retryCow].Load(),
		Forks:               as.stats.forks.Load(),
		CowBreaks:           as.stats.cowBreaks.Load(),
		CowReowned:          as.stats.cowReowned.Load(),
		CowCopies:           as.stats.cowCopies.Load(),
		MmapCacheHits:       as.stats.cacheHits.Load(),
		MmapCacheMisses:     as.stats.cacheMisses.Load(),
	}
}

// ReclaimStats exposes the machine-wide reclaim counters (kswapd
// cycles, direct-reclaim runs, evictions, writebacks). Family-shared,
// like the frame pool they protect.
func (as *AddressSpace) ReclaimStats() reclaim.Stats {
	return as.fam.ms.rec.Stats()
}

// Rollup is a family's — a tenant's — fault and mapping-operation
// statistics over every member it has had: the exact fault count and
// the timed fault, mapping-operation and contended range-wait samples.
// A closing member is folded in once, by Close; AddressSpace.Rollup
// adds the live members. Add is the one merge, so every surface that
// reports a tenant or a machine counts each fault exactly once.
type Rollup struct {
	// Faults counts every fault, timed or not.
	Faults uint64
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
	r.Faults += o.Faults
	r.Fault.Merge(&o.Fault)
	r.MapOp.Merge(&o.MapOp)
	r.RangeWait.Merge(&o.RangeWait)
}

// addMember folds one member's own cells into r.
func (r *Rollup) addMember(as *AddressSpace) {
	r.Faults += as.stats.faults.Load()
	r.Fault.Merge(as.stats.faultHist.Merged())
	r.MapOp.Merge(as.stats.mapHist.Merged())
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
