package main

import (
	"os"
	"strconv"
	"strings"
)

// metricDef declares one metric: BENCHMARK.json lists the same names,
// units, directions and bounds, and smoke_test.go holds the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	source string  // per-layer only: A counter delta, B traced run, C probe, R the run itself
}

// endToEnd is what a user of the VM would see: a closed loop of fixed
// work reports work completed per second, plus set-up time and memory.
// Every workload reports every one of them (each workload makes both
// faults and mapping calls), measured with tracing off.
//
// ISSUE 11 asked for twelve end-to-end metrics with bounds of
// 0.10–0.15. On the 2-core sandbox that cannot be had: the host has
// slow periods of a few minutes in which handing work from one virtual
// CPU to the other costs a third more, and unchanged code that runs
// grace periods or shares lines between workers then loses up to a
// fifth (README.md, "Baseline at HEAD"). The throughputs therefore
// carry the widest bound the benchmark contract allows, and the seven
// metrics that swing more than that bound can
// stand, or have no value on some workload, moved to the per-layer
// group under vm., as the issue prescribes: the four latency
// percentiles (quartile spread of five seeds up to 30–55 %),
// fault_scale_x and mapop_scale_x (defined only where a workload has
// a one-worker variant) and failed_op_share (it reads 0, where a
// relative bound means nothing; the result line's "failed" count
// carries it). peak_rss_mb carries the wide bound as well: in processes
// this small, how far allocation overshoots a concurrent collection
// moves the median of five peaks by up to a tenth.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "faults_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "mapops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "pages_mapped_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25},
}

// perLayer is the diagnostic set, reported by the traced run
// (--trace 1). Not gated.
var perLayer = []metricDef{
	{name: "vm.fault_ns_mean", unit: "ns", better: "lower", source: "B"},
	{name: "vm.fault_time_share", unit: "ratio", better: "lower", source: "B"},
	{name: "vm.mmap_us_mean", unit: "us", better: "lower", source: "B"},
	{name: "vm.munmap_us_mean", unit: "us", better: "lower", source: "B"},
	{name: "vm.mprotect_us_mean", unit: "us", better: "lower", source: "B"},
	{name: "vm.madvise_us_mean", unit: "us", better: "lower", source: "B"},
	{name: "vm.mapop_time_share", unit: "ratio", better: "lower", source: "B"},
	{name: "vm.retries_per_kfault", unit: "ratio", better: "lower", source: "A"},
	{name: "vm.already_mapped_share", unit: "ratio", better: "lower", source: "A"},
	{name: "vm.thp_huge_faults", unit: "count", better: "higher", source: "A"},
	{name: "vm.thp_fallback_share", unit: "ratio", better: "lower", source: "A"},
	{name: "vm.reclaim_retries_per_kfault", unit: "ratio", better: "lower", source: "A"},
	{name: "vm.fault_p50_us", unit: "us", better: "lower", source: "R"},
	{name: "vm.fault_p99_us", unit: "us", better: "lower", source: "R"},
	{name: "vm.fault_p999_us", unit: "us", better: "lower", source: "R"},
	{name: "vm.mapop_p50_us", unit: "us", better: "lower", source: "R"},
	{name: "vm.mapop_p99_us", unit: "us", better: "lower", source: "R"},
	{name: "vm.fault_scale_x", unit: "ratio", better: "higher", source: "R"},
	{name: "vm.mapop_scale_x", unit: "ratio", better: "higher", source: "R"},
	{name: "vm.failed_op_share", unit: "ratio", better: "lower", source: "R"},
	{name: "vm.fault_ns.rwlock", unit: "ns", better: "lower", source: "C"},
	{name: "vm.fault_ns.faultlock", unit: "ns", better: "lower", source: "C"},
	{name: "vm.fault_ns.hybrid", unit: "ns", better: "lower", source: "C"},
	{name: "vm.fault_ns.purercu", unit: "ns", better: "lower", source: "C"},
	{name: "vm.mapcycle_us.rwlock", unit: "us", better: "lower", source: "C"},
	{name: "vm.mapcycle_us.faultlock", unit: "us", better: "lower", source: "C"},
	{name: "vm.mapcycle_us.hybrid", unit: "us", better: "lower", source: "C"},
	{name: "vm.mapcycle_us.purercu", unit: "us", better: "lower", source: "C"},

	{name: "core.floor_ns", unit: "ns", better: "lower", source: "C"},
	{name: "core.insert_ns", unit: "ns", better: "lower", source: "C"},
	{name: "core.delete_ns", unit: "ns", better: "lower", source: "C"},
	{name: "core.nodealloc_per_insert", unit: "ratio", better: "lower", source: "C"},

	{name: "pagetable.walk_ns", unit: "ns", better: "lower", source: "C"},
	{name: "pagetable.fill_ns", unit: "ns", better: "lower", source: "C"},
	{name: "pagetable.install_huge_ns", unit: "ns", better: "lower", source: "C"},
	{name: "pagetable.unmap_ns_per_page", unit: "ns", better: "lower", source: "C"},
	{name: "pagetable.ptes_filled", unit: "count", better: "lower", source: "A"},
	{name: "pagetable.tables_alloc", unit: "count", better: "lower", source: "A"},
	{name: "pagetable.pte_lock_contended_share", unit: "ratio", better: "lower", source: "A"},

	{name: "physmem.alloc_free_ns", unit: "ns", better: "lower", source: "C"},
	{name: "physmem.alloc_run_ns", unit: "ns", better: "lower", source: "C"},
	{name: "physmem.refills_per_kalloc", unit: "ratio", better: "lower", source: "A"},
	{name: "physmem.run_failures", unit: "count", better: "lower", source: "A"},
	{name: "physmem.limit_failures", unit: "count", better: "lower", source: "A"},

	{name: "rcu.read_section_ns", unit: "ns", better: "lower", source: "C"},
	{name: "rcu.defer_ns", unit: "ns", better: "lower", source: "C"},
	{name: "rcu.sync_us_mean", unit: "us", better: "lower", source: "C"},
	{name: "rcu.grace_periods", unit: "count", better: "lower", source: "A"},
	{name: "rcu.gp_p99_us", unit: "us", better: "lower", source: "A"},
	{name: "rcu.pending_high_water", unit: "count", better: "lower", source: "A"},
	{name: "rcu.over_budget", unit: "count", better: "lower", source: "A"},

	{name: "ranges.lock_unlock_ns", unit: "ns", better: "lower", source: "C"},
	{name: "ranges.acquires", unit: "count", better: "lower", source: "A"},
	{name: "ranges.conflict_share", unit: "ratio", better: "lower", source: "A"},
	{name: "ranges.wait_p99_us", unit: "us", better: "lower", source: "A"},
	{name: "ranges.max_held", unit: "count", better: "higher", source: "A"},

	{name: "locks.rwsem_rlock_ns", unit: "ns", better: "lower", source: "C"},

	{name: "tlb.gather_flush_ns", unit: "ns", better: "lower", source: "C"},
	{name: "tlb.flushes", unit: "count", better: "lower", source: "A"},
	{name: "tlb.pages_per_flush", unit: "ratio", better: "higher", source: "A"},

	{name: "pagecache.lookup_ns", unit: "ns", better: "lower", source: "C"},
	{name: "pagecache.hit_share", unit: "ratio", better: "higher", source: "A"},
	{name: "pagecache.fills", unit: "count", better: "lower", source: "A"},
	{name: "pagecache.coalesced", unit: "count", better: "lower", source: "A"},
	{name: "pagecache.evictions", unit: "count", better: "lower", source: "A"},
	{name: "pagecache.refaults", unit: "count", better: "lower", source: "A"},
	{name: "pagecache.writebacks", unit: "count", better: "lower", source: "A"},
	{name: "pagecache.evict_abort_share", unit: "ratio", better: "lower", source: "A"},

	{name: "reclaim.direct_runs", unit: "count", better: "lower", source: "A"},
	{name: "reclaim.account_runs", unit: "count", better: "lower", source: "A"},
	{name: "reclaim.kswapd_cycles", unit: "count", better: "lower", source: "A"},
	{name: "reclaim.evicted_per_scan", unit: "ratio", better: "higher", source: "A"},

	{name: "machine.quiet_fault_p99_us", unit: "us", better: "lower", source: "R"},
	{name: "machine.hog_limit_hits", unit: "count", better: "lower", source: "A"},
	{name: "machine.evictions_under_limit", unit: "count", better: "lower", source: "A"},

	{name: "stats.hist_record_ns", unit: "ns", better: "lower", source: "C"},
	{name: "trace.emit_disarmed_ns", unit: "ns", better: "lower", source: "C"},

	{name: "bench.timer_ns", unit: "ns", better: "lower", source: "C"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", source: "B"},
	{name: "bench.budget_coverage", unit: "ratio", better: "higher", source: "C"},
}

// peakRSSMiB is this process's high-water RSS, from VmHWM: it belongs
// to the address space exec created, whereas getrusage's ru_maxrss
// also remembers how large the parent was when it forked.
func peakRSSMiB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err != nil {
				return 0
			}
			return kib / 1024
		}
	}
	return 0
}

// endToEndMetrics fills the user-visible metrics from the untraced
// segments: throughputs and latency percentiles are the median segment.
func (r *runResult) endToEndMetrics() {
	segs := r.Segments
	put := func(name string, v float64, unit string, samples int) {
		r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
	}
	put("setup_s", median(r.Setups), "s", len(r.Setups))
	put("faults_per_s", medianOf(segs, segment.faultsPerS), "1/s", len(segs))
	put("mapops_per_s", medianOf(segs, segment.mapopsPerS), "1/s", len(segs))
	put("pages_mapped_per_s", medianOf(segs, segment.pagesPerS), "1/s", len(segs))
	put("peak_rss_mb", peakRSSMiB(), "MiB", 1)
}

// perLayerMetrics fills the diagnostic metrics of a traced run: the
// counter deltas (A), the span sums of the traced segments (B), the
// probes (C) and what the run itself measured.
func (r *runResult) perLayerMetrics(z sizing) error {
	m := r.Metrics
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	counterMetrics(m, r.before, r.after)

	var ns, n [numOps]int64
	for _, s := range r.Traced3 {
		for k := range ns {
			ns[k] += s.spanNs[k]
			n[k] += s.spanN[k]
		}
	}
	busy := float64(ns[opSweep])
	var mapNs float64
	for k := opMmap; k <= opMadvise; k++ {
		mapNs += float64(ns[k])
	}
	put("vm.fault_ns_mean", ratio(float64(ns[opFault]), float64(n[opFault])), "ns")
	put("vm.fault_time_share", ratio(float64(ns[opFault]), busy), "ratio")
	put("vm.mmap_us_mean", us(ratio(float64(ns[opMmap]), float64(n[opMmap]))), "us")
	put("vm.munmap_us_mean", us(ratio(float64(ns[opMunmap]), float64(n[opMunmap]))), "us")
	put("vm.mprotect_us_mean", us(ratio(float64(ns[opMprotect]), float64(n[opMprotect]))), "us")
	put("vm.madvise_us_mean", us(ratio(float64(ns[opMadvise]), float64(n[opMadvise]))), "us")
	put("vm.mapop_time_share", ratio(mapNs, busy), "ratio")

	plain, traced := medianOf(r.Segments, segment.faultsPerS), medianOf(r.Traced3, segment.faultsPerS)
	put("bench.trace_overhead_pct", 100*ratio(plain-traced, plain), "%")

	put("vm.fault_p50_us", us(medianOf(r.Segments, func(s segment) float64 { return s.FaultP50 })), "us")
	put("vm.fault_p99_us", us(medianOf(r.Segments, func(s segment) float64 { return s.FaultP99 })), "us")
	put("vm.fault_p999_us", us(r.p999), "us")
	put("vm.mapop_p50_us", us(medianOf(r.Segments, func(s segment) float64 { return s.MapP50 })), "us")
	put("vm.mapop_p99_us", us(medianOf(r.Segments, func(s segment) float64 { return s.MapP99 })), "us")
	put("vm.failed_op_share", failedShare(r.Failed, r.Attempted), "ratio")
	put("machine.quiet_fault_p99_us", us(medianOf(r.Segments, func(s segment) float64 { return s.QuietP99 })), "us")
	// The scaling ratios exist where the workload has a one-worker
	// variant and the host more than one core; elsewhere they read 0.
	put("vm.fault_scale_x", 0, "ratio")
	put("vm.mapop_scale_x", 0, "ratio")
	if len(r.Solo) > 0 {
		put("vm.fault_scale_x", ratio(medianOf(r.Segments, segment.faultsPerS), medianOf(r.Solo, segment.faultsPerS)), "ratio")
		put("vm.mapop_scale_x", ratio(medianOf(r.Segments, segment.mapopsPerS), medianOf(r.Solo, segment.mapopsPerS)), "ratio")
	}
	return runProbes(m, z)
}
