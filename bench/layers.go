package main

import (
	"bonsai/internal/machine"
	"bonsai/internal/vm"
)

// Source (A) of the per-layer metrics: the layers' public Stats()
// counters, read before and after the timed segments of the untraced
// run and differenced. Histogram percentiles (rcu.gp_p99_us,
// ranges.wait_p99_us) are the exception: the public histograms cannot
// be differenced, so they cover the instance's whole life including
// its warm-up segment.

// counters is one reading of every layer counter the benchmark
// reports, summed over the instance's address spaces where a counter
// is per space.
type counters struct {
	faults, alreadyMapped, retries, reclaimRetries uint64
	thpHuge, thpFallbacks                          uint64

	ptesFilled, tablesAlloc    uint64
	pteLockAcq, pteLockContend uint64

	allocs, refills, runFailures, limitFailures uint64

	gracePeriods, overBudget uint64
	pendingHighWater         int
	gpP99Ns                  int64

	rangeAcquires, rangeConflicts uint64
	rangeMaxHeld                  int
	rangeWaitP99Ns                int64

	tlbFlushes, tlbPages uint64

	pcHits, pcFills, pcCoalesced, pcEvictions, pcEvictAborts, pcRefaults, pcWritebacks uint64

	directRuns, accountRuns, kswapdCycles, scanPasses, reclaimEvicted uint64

	hogLimitHits, evictionsUnderLimit uint64
}

// snapshotSpaces reads the counters of a set of sibling or unrelated
// address spaces on one machine (machine-wide layers are read once,
// through the first space).
func snapshotSpaces(spaces []*vm.AddressSpace) counters {
	var c counters
	for _, as := range spaces {
		st := as.Stats()
		c.faults += st.Faults
		c.alreadyMapped += st.FaultsAlreadyMapped
		c.retries += st.Retries()
		c.reclaimRetries += st.ReclaimRetries
		c.thpHuge += st.THPHugeFaults
		c.thpFallbacks += st.THPFallbacks

		pt := as.Tables().Stats()
		c.ptesFilled += pt.PTEsFilled
		c.tablesAlloc += pt.TablesAlloc
		acq, cont := as.Tables().PTELockStats()
		c.pteLockAcq += acq
		c.pteLockContend += cont

		rs := as.RangeStats()
		c.rangeAcquires += rs.Acquires
		c.rangeConflicts += rs.Conflicts
		c.rangeMaxHeld = max(c.rangeMaxHeld, rs.MaxHeld)
		c.rangeWaitP99Ns = max(c.rangeWaitP99Ns, rs.Wait.P99Ns)
	}
	as := spaces[0]
	st := as.Stats()
	c.tlbFlushes, c.tlbPages = st.TLBFlushes, st.TLBPagesFlushed

	ps := as.Allocator().Stats()
	c.allocs, c.refills = ps.Allocs, ps.Refills
	c.runFailures, c.limitFailures = ps.RunFailures, ps.LimitFailures

	ds := as.Domain().Stats()
	c.gracePeriods, c.overBudget = ds.GracePeriods, ds.OverBudget
	c.pendingHighWater, c.gpP99Ns = ds.PendingHighWater, ds.GP.P99Ns

	rc := as.ReclaimStats()
	c.directRuns, c.accountRuns, c.kswapdCycles = rc.DirectRuns, rc.AccountRuns, rc.KswapdCycles
	c.scanPasses = rc.ScanPasses
	c.reclaimEvicted = rc.KswapdEvicted + rc.DirectEvicted + rc.AccountEvicted
	return c
}

// addPageCache folds one family's page-cache counters in (the cache is
// family-shared, so one member per family reports it).
func (c *counters) addPageCache(as *vm.AddressSpace) {
	pc := as.PageCacheStats()
	c.pcHits += pc.Hits
	c.pcFills += pc.Misses
	c.pcCoalesced += pc.Coalesced
	c.pcEvictions += pc.Evictions
	c.pcEvictAborts += pc.EvictAborts
	c.pcRefaults += pc.Refaults
	c.pcWritebacks += pc.Writebacks
}

func (c *counters) addTenants(hog, quiet *machine.Tenant) {
	c.hogLimitHits = hog.Account().Stats().LimitHits
	c.evictionsUnderLimit = quiet.Account().Stats().EvictionsUnderLimit +
		hog.Account().Stats().EvictionsUnderLimit
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(ns float64) float64 { return ns / 1e3 }

// counterMetrics turns the before/after readings into the (A) metrics.
func counterMetrics(m map[string]metric, b, a counters) {
	d := func(x, y uint64) float64 { return float64(y - x) }
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

	faults := d(b.faults, a.faults)
	put("vm.retries_per_kfault", ratio(1000*d(b.retries, a.retries), faults), "ratio")
	put("vm.already_mapped_share", ratio(d(b.alreadyMapped, a.alreadyMapped), faults), "ratio")
	huge, fallback := d(b.thpHuge, a.thpHuge), d(b.thpFallbacks, a.thpFallbacks)
	put("vm.thp_huge_faults", huge, "count")
	put("vm.thp_fallback_share", ratio(fallback, huge+fallback), "ratio")
	put("vm.reclaim_retries_per_kfault", ratio(1000*d(b.reclaimRetries, a.reclaimRetries), faults), "ratio")

	put("pagetable.ptes_filled", d(b.ptesFilled, a.ptesFilled), "count")
	put("pagetable.tables_alloc", d(b.tablesAlloc, a.tablesAlloc), "count")
	// PTE-lock counters live on the attached leaf tables, so a table
	// freed between the readings takes its counts with it: the share is
	// of the tables alive at the end of the run.
	put("pagetable.pte_lock_contended_share", ratio(float64(a.pteLockContend), float64(a.pteLockAcq)), "ratio")

	put("physmem.refills_per_kalloc", ratio(1000*d(b.refills, a.refills), d(b.allocs, a.allocs)), "ratio")
	put("physmem.run_failures", d(b.runFailures, a.runFailures), "count")
	put("physmem.limit_failures", d(b.limitFailures, a.limitFailures), "count")

	put("rcu.grace_periods", d(b.gracePeriods, a.gracePeriods), "count")
	put("rcu.gp_p99_us", us(float64(a.gpP99Ns)), "us")
	put("rcu.pending_high_water", float64(a.pendingHighWater), "count")
	put("rcu.over_budget", d(b.overBudget, a.overBudget), "count")

	acquires := d(b.rangeAcquires, a.rangeAcquires)
	put("ranges.acquires", acquires, "count")
	put("ranges.conflict_share", ratio(d(b.rangeConflicts, a.rangeConflicts), acquires), "ratio")
	put("ranges.wait_p99_us", us(float64(a.rangeWaitP99Ns)), "us")
	put("ranges.max_held", float64(a.rangeMaxHeld), "count")

	flushes := d(b.tlbFlushes, a.tlbFlushes)
	put("tlb.flushes", flushes, "count")
	put("tlb.pages_per_flush", ratio(d(b.tlbPages, a.tlbPages), flushes), "ratio")

	hits, fills := d(b.pcHits, a.pcHits), d(b.pcFills, a.pcFills)
	evictions, aborts := d(b.pcEvictions, a.pcEvictions), d(b.pcEvictAborts, a.pcEvictAborts)
	put("pagecache.hit_share", ratio(hits, hits+fills), "ratio")
	put("pagecache.fills", fills, "count")
	put("pagecache.coalesced", d(b.pcCoalesced, a.pcCoalesced), "count")
	put("pagecache.evictions", evictions, "count")
	put("pagecache.refaults", d(b.pcRefaults, a.pcRefaults), "count")
	put("pagecache.writebacks", d(b.pcWritebacks, a.pcWritebacks), "count")
	put("pagecache.evict_abort_share", ratio(aborts, evictions+aborts), "ratio")

	put("reclaim.direct_runs", d(b.directRuns, a.directRuns), "count")
	put("reclaim.account_runs", d(b.accountRuns, a.accountRuns), "count")
	put("reclaim.kswapd_cycles", d(b.kswapdCycles, a.kswapdCycles), "count")
	put("reclaim.evicted_per_scan", ratio(d(b.reclaimEvicted, a.reclaimEvicted), d(b.scanPasses, a.scanPasses)), "ratio")

	put("machine.hog_limit_hits", d(b.hogLimitHits, a.hogLimitHits), "count")
	put("machine.evictions_under_limit", d(b.evictionsUnderLimit, a.evictionsUnderLimit), "count")
}
