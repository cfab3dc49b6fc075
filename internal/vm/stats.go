package vm

import (
	"sync/atomic"

	"bonsai/internal/fail"
	"bonsai/internal/pagecache"
	"bonsai/internal/physmem"
	"bonsai/internal/ranges"
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

	// Page-cache counters, aggregated across every file mapped in the
	// address space's family (the cache is family-shared; see
	// internal/pagecache for the full Stats, including drops, via
	// PageCacheStats).
	PageCacheHits        uint64 // file faults served by a resident page
	PageCacheMisses      uint64 // file faults that filled the cache
	PageCacheCoalesced   uint64 // faulters that waited out a concurrent fill
	PageCacheResident    int64  // pages currently cached
	PageCacheDirty       int64  // pages currently dirty
	PageCacheEvictions   uint64 // pages evicted by the reclaim scan
	PageCacheEvictAborts uint64 // eviction candidates refaulted mid-scan
	PageCacheRefaults    uint64 // fills of previously evicted pages
	PageCacheWritebacks  uint64 // dirty pages cleaned (writeback scans + pre-eviction)

	// Failure-injection and degradation counters (see internal/fail and
	// the README's failure model).
	PageCacheFillErrs         uint64 // fills failed by injected read errors
	PageCacheWritebackRetries uint64 // retryable writeback failures (pages kept dirty)
	PageCacheWritebackSticky  uint64 // sticky writeback failures (data dropped, latched)
	OOMKills                  uint64 // killer-of-last-resort invocations, family-wide
}

// Retries returns the total slow-path retries.
func (s Stats) Retries() uint64 {
	return s.RetriesMiss + s.RetriesFillRace + s.RetriesCow
}

// PagesPerFlush returns the mean shootdown batch size — how many
// revoked translations each flush covered. The per-page pre-gather
// pipeline pinned this at 1; batching pushes it toward the zap sizes.
func (s Stats) PagesPerFlush() float64 {
	if s.TLBFlushes == 0 {
		return 0
	}
	return float64(s.TLBPagesFlushed) / float64(s.TLBFlushes)
}

// Stats returns a snapshot of the address space's counters.
func (as *AddressSpace) Stats() Stats {
	pc := as.PageCacheStats()
	tl := as.fam.ms.tlb.Stats()
	hugeInstalls, hugeSplits, hugeZaps := as.tables.HugeStats()
	return Stats{
		TLBFlushes:      tl.Flushes,
		TLBPagesFlushed: tl.PagesFlushed,

		PageCacheHits:        pc.Hits,
		PageCacheMisses:      pc.Misses,
		PageCacheCoalesced:   pc.Coalesced,
		PageCacheResident:    pc.Resident,
		PageCacheDirty:       pc.DirtyPages,
		PageCacheEvictions:   pc.Evictions,
		PageCacheEvictAborts: pc.EvictAborts,
		PageCacheRefaults:    pc.Refaults,
		PageCacheWritebacks:  pc.Writebacks,

		PageCacheFillErrs:         pc.FillErrs,
		PageCacheWritebackRetries: pc.WritebackRetries,
		PageCacheWritebackSticky:  pc.WritebackSticky,
		OOMKills:                  as.fam.oomKills.Load(),

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

// LatencySnapshot gathers the machine's always-on hot-path latency
// histograms in percentile form: the tail-attribution data the
// throughput counters above cannot express.
type LatencySnapshot struct {
	// Fault spans CPU.Fault end to end (fast path through OOM ladder);
	// its Count is the timed sample's size, not Stats.Faults.
	Fault stats.LatencyStats `json:"fault"`
	// MapOp spans Mmap/Munmap/Mprotect/MadviseDontNeed calls.
	MapOp stats.LatencyStats `json:"map_op"`
	// RangeWait is the contended range-lock wait (zeros for designs on
	// the global mmap_sem).
	RangeWait stats.LatencyStats `json:"range_wait"`
	// GP is the RCU grace-period latency, machine-wide.
	GP stats.LatencyStats `json:"gp"`
	// ReclaimScan is the reclaim scan duration (time under the scan
	// lock), machine-wide.
	ReclaimScan stats.LatencyStats `json:"reclaim_scan"`
}

// FaultHist returns a merged copy of the per-CPU fault-latency
// histograms. Its count is the number of faults timed, a sample.
func (as *AddressSpace) FaultHist() *stats.LatencyHist { return as.stats.faultHist.Merged() }

// Faults returns the exact number of faults handled, timed or not.
func (as *AddressSpace) Faults() uint64 { return as.stats.faults.Load() }

// MapHist returns a merged copy of the per-slot mapping-operation
// latency histograms.
func (as *AddressSpace) MapHist() *stats.LatencyHist { return as.stats.mapHist.Merged() }

// LatencySnapshot captures the latency percentile snapshot for this
// address space and its machine.
func (as *AddressSpace) LatencySnapshot() LatencySnapshot {
	l := LatencySnapshot{
		Fault: as.FaultHist().Stats(),
		MapOp: as.MapHist().Stats(),
		GP:    as.dom.GPHist().Stats(),
	}
	if h := as.RangeWaitHist(); h != nil {
		l.RangeWait = h.Stats()
	}
	if as.fam.ms.rec != nil {
		l.ReclaimScan = as.fam.ms.rec.ScanHist().Stats()
	}
	return l
}

// StatsSnapshot is the unified observability surface: one nested,
// JSON-marshalable snapshot consolidating what used to take five
// separate calls (Stats, RangeStats, ReclaimStats, PageCachePerFile,
// fail.Snapshot). AddressSpace.Snapshot fills it for one member;
// machine.Machine rolls tenants' snapshots up with per-tenant charge
// accounts on top.
type StatsSnapshot struct {
	// Design is the configured concurrency design's name.
	Design string `json:"design"`
	// Tenant is the tenant slot on the hosting machine.
	Tenant int `json:"tenant"`
	// Space is the address space's own operation counters.
	Space Stats `json:"space"`
	// Ranges is the range-lock manager's counters (zeros for designs
	// that serialize mapping operations on mmap_sem).
	Ranges ranges.Stats `json:"ranges"`
	// Reclaim is the machine-wide reclaim ladder's counters.
	Reclaim reclaim.Stats `json:"reclaim"`
	// Latency is the always-on hot-path latency histograms, in
	// percentile form.
	Latency LatencySnapshot `json:"latency"`
	// Files is the per-file page-cache breakdown, keyed by the file's
	// stable label (name#id).
	Files map[string]pagecache.Stats `json:"files,omitempty"`
	// Account is the tenant's charge account, nil when the tenant is
	// unlimited (every vm.New space).
	Account *physmem.AccountStats `json:"account,omitempty"`
	// TenantOOMKills counts killer-of-last-resort reaps whose victim
	// was in this tenant (Space.OOMKills counts the same thing today;
	// kept distinct so the machine rollup can expose both views).
	TenantOOMKills uint64 `json:"tenant_oom_kills"`
	// Failpoints is the process-wide failure-injection registry's
	// counters (empty when no point is registered).
	Failpoints []fail.PointStats `json:"failpoints,omitempty"`
}

// Snapshot captures the unified statistics snapshot for this address
// space and its machine.
func (as *AddressSpace) Snapshot() StatsSnapshot {
	sn := StatsSnapshot{
		Design:         as.cfg.Design.String(),
		Tenant:         as.fam.tenant,
		Space:          as.Stats(),
		Ranges:         as.RangeStats(),
		Reclaim:        as.ReclaimStats(),
		Latency:        as.LatencySnapshot(),
		Files:          as.PageCachePerFile(),
		TenantOOMKills: as.fam.oomKills.Load(),
		Failpoints:     fail.Snapshot(),
	}
	if as.fam.acct != nil {
		st := as.fam.acct.Stats()
		sn.Account = &st
	}
	return sn
}
