package introspect

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"bonsai/internal/contention"
	"bonsai/internal/stats"
)

// The metric naming rules are the package doc's "Metric naming".

// lbl is one label pair.
type lbl struct{ k, v string }

// family is one metric family: declared once with its name, type
// (counter, gauge or summary) and help, its sample lines appended while
// the snapshot is read, and written as one group.
type family struct {
	name, typ, help string
	lines           []string
}

// add appends one sample of the family.
func (f *family) add(v float64, labels ...lbl) { f.sample("", v, labels) }

// sample appends one sample line named the family's name plus suffix
// ("" or a summary's "_count").
func (f *family) sample(suffix string, v float64, labels []lbl) {
	var b strings.Builder
	b.WriteString(f.name + suffix)
	for i, l := range labels {
		if i == 0 {
			b.WriteByte('{')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(l.k + `="` + escapeLabel(l.v) + `"`)
	}
	if len(labels) > 0 {
		b.WriteByte('}')
	}
	b.WriteString(" " + strconv.FormatFloat(v, 'g', -1, 64))
	f.lines = append(f.lines, b.String())
}

// latency appends one summary series: s's p50, p99 and p999 as quantile
// samples, and count as the _count sample.
func (f *family) latency(s stats.LatencyStats, count uint64, labels ...lbl) {
	for _, q := range []struct {
		q string
		v int64
	}{{"0.5", s.P50Ns}, {"0.99", s.P99Ns}, {"0.999", s.P999Ns}} {
		f.sample("", float64(q.v), append(labels[:len(labels):len(labels)], lbl{"quantile", q.q}))
	}
	f.sample("_count", float64(count), labels)
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// contentionTopN bounds the per-site contention series cardinality.
const contentionTopN = 10

// WriteMetrics renders sn and the contention top list as one
// Prometheus text exposition document; label is the instance metric's.
// It sorts top in place.
func WriteMetrics(w io.Writer, sn Snapshot, top []contention.SiteStats, label string) error {
	var fams []*family
	fam := func(name, typ, help string) *family {
		f := &family{name: name, typ: typ, help: help}
		fams = append(fams, f)
		return f
	}
	n := func(v uint64) float64 { return float64(v) }

	fam("vm_instance_info", "gauge", "Constant 1, labeled with the introspection source's name.").add(1, lbl{"label", label})
	pool := fam("vm_pool_frames", "gauge", "Physical frame pool occupancy by state.")
	pool.add(n(sn.FramesTotal), lbl{"state", "total"})
	pool.add(float64(sn.FramesInUse), lbl{"state", "in_use"})
	pool.add(float64(int64(sn.FramesTotal)-sn.FramesInUse), lbl{"state", "free"})
	wm := fam("vm_pool_watermark_frames", "gauge", "Reclaim watermarks: kswapd wakes below low, parks above high.")
	wm.add(n(sn.WatermarkLow), lbl{"level", "low"})
	wm.add(n(sn.WatermarkHigh), lbl{"level", "high"})

	fam("vm_tenants_live", "gauge", "Live tenants.").add(float64(len(sn.Tenants)))
	fam("vm_tenants_admitted_total", "counter", "Tenants ever admitted.").add(n(sn.TenantsAdmitted))
	fam("vm_tenants_evicted_total", "counter", "Tenants ever retired: evicted, or every member closed.").add(n(sn.TenantsEvicted))
	fam("vm_oom_kills_total", "counter", "Killer-of-last-resort invocations, machine-wide.").add(n(sn.OOMKills))
	fam("vm_cross_tenant_evictions_total", "counter", "Pages evicted from under-limit tenants (the fairness metric; ~0 in a healthy run).").add(n(sn.CrossTenantEvictions))

	rc := sn.Reclaim
	runs := fam("vm_reclaim_runs_total", "counter", "Reclaim ladder runs by path.")
	evicted := fam("vm_reclaim_evicted_pages_total", "counter", "Pages evicted by path.")
	for _, p := range []struct {
		path        string
		runs, pages uint64
	}{{"kswapd", rc.KswapdCycles, rc.KswapdEvicted}, {"direct", rc.DirectRuns, rc.DirectEvicted}, {"account", rc.AccountRuns, rc.AccountEvicted}} {
		runs.add(n(p.runs), lbl{"path", p.path})
		evicted.add(n(p.pages), lbl{"path", p.path})
	}
	fam("vm_reclaim_writebacks_total", "counter", "Dirty pages written back before eviction.").add(n(rc.Writebacks))
	fam("vm_reclaim_scan_passes_total", "counter", "Clock passes over the cache rotation.").add(n(rc.ScanPasses))
	fam("vm_reclaim_injected_stalls_total", "counter", "Direct-reclaim runs failed by the stall failpoint.").add(n(rc.InjectedStalls))

	// The machine's counter set: the same rollup meminfo's
	// AnonHugePages line reports.
	thp := fam("vm_thp_faults_total", "counter", "Huge-eligible anonymous faults by outcome: huge entry installed, or fallback to base pages.")
	thp.add(n(sn.THPHugeFaults), lbl{"outcome", "huge"})
	thp.add(n(sn.THPFallbacks), lbl{"outcome", "fallback"})
	coll := fam("vm_thp_collapses_total", "counter", "Collapse attempts (background scanner and explicit CollapseRange) by outcome.")
	coll.add(n(sn.THPCollapses), lbl{"outcome", "promoted"})
	coll.add(n(sn.THPCollapseFails), lbl{"outcome", "aborted"})
	fam("vm_thp_splits_total", "counter", "Huge entries demoted to base pages in place.").add(n(sn.THPSplits))
	fam("vm_thp_zaps_total", "counter", "Huge entries unmapped whole.").add(n(sn.THPZaps))
	fam("vm_thp_anon_huge_pages", "gauge", "Base pages currently mapped by live huge entries.").add(float64(sn.AnonHugePages * hugePages))

	rs := sn.RCU
	fam("vm_rcu_grace_periods_total", "counter", "RCU grace periods completed.").add(n(rs.GracePeriods))
	fam("vm_rcu_callbacks_queued_total", "counter", "Callbacks queued via Defer.").add(n(rs.Defers))
	fam("vm_rcu_callbacks_ran_total", "counter", "Callbacks executed.").add(n(rs.Ran))
	fam("vm_rcu_pending_callbacks", "gauge", "Callbacks queued behind the next grace period.").add(float64(rs.Pending))
	inFlight := 0.0
	if rs.GPInFlight {
		inFlight = 1
	}
	fam("vm_rcu_gp_in_flight", "gauge", "1 while a grace period is executing.").add(inFlight)
	fam("vm_rcu_readers", "gauge", "Registered read-side contexts.").add(float64(rs.Readers))

	// Faults are timed by sampling: the quantiles come from the timed
	// sample, _count is the exact fault counter, and the sample size is
	// its own family.
	lat := sn.Latency
	fam("vm_fault_latency_ns", "summary", "Page-fault latency, machine-wide (fast path through OOM ladder); quantiles over the timed sample, _count every fault.").latency(lat.Fault, sn.Faults)
	fam("vm_fault_latency_samples_total", "counter", "Faults timed into vm_fault_latency_ns (1 in 16 while the tracer is disarmed, every fault while armed).").add(n(lat.Fault.Count))
	fam("vm_map_op_latency_ns", "summary", "Mapping-operation latency (mmap/munmap/mprotect/madvise), machine-wide.").latency(lat.MapOp, lat.MapOp.Count)
	fam("vm_range_wait_ns", "summary", "Contended range-lock wait latency, machine-wide.").latency(lat.RangeWait, lat.RangeWait.Count)
	fam("vm_gp_latency_ns", "summary", "RCU grace-period latency.").latency(rs.GP, rs.GP.Count)
	fam("vm_reclaim_scan_ns", "summary", "Reclaim scan duration (time under the scan lock).").latency(sn.Reclaim.Scan, sn.Reclaim.Scan.Count)

	// The account families have samples only while a tenant is limited.
	tFrames := fam("vm_tenant_frames", "gauge", "Per-tenant frame accounting by state (limit 0 = unlimited).")
	tFaults := fam("vm_tenant_faults_total", "counter", "Per-tenant page faults, member closes included.")
	tHits := fam("vm_tenant_limit_hits_total", "counter", "Per-tenant charge attempts that hit the limit.")
	tEvictions := fam("vm_tenant_evictions_total", "counter", "Per-tenant pages evicted from the tenant's account.")
	tUnder := fam("vm_tenant_evictions_under_limit_total", "counter", "Per-tenant pages evicted while under limit (cross-tenant interference).")
	tLatency := fam("vm_tenant_fault_latency_ns", "summary", "Per-tenant page-fault latency; quantiles over the timed sample, _count every fault.")
	for _, ts := range sn.Tenants {
		tl := lbl{"tenant", ts.Name}
		tFaults.add(n(ts.Faults), tl)
		tFrames.add(float64(ts.Limit), tl, lbl{"state", "limit"})
		if a := ts.Account; a != nil {
			tFrames.add(float64(a.Charged), tl, lbl{"state", "charged"})
			tFrames.add(float64(a.MaxCharged), tl, lbl{"state", "max_charged"})
			tHits.add(n(a.LimitHits), tl)
			tEvictions.add(n(a.Evictions), tl)
			tUnder.add(n(a.EvictionsUnderLimit), tl)
		}
		tLatency.latency(ts.Fault, ts.Faults, tl)
	}

	cWait := fam("vm_contention_wait_ns_total", "counter", "Cumulative contended-wait time by site (top sites only).")
	cWaits := fam("vm_contention_waits_total", "counter", "Contended acquisitions by site (top sites only).")
	cMax := fam("vm_contention_wait_max_ns", "gauge", "Worst single wait by site (top sites only).")
	// Deterministic sample order within the scrape: the top list is
	// already sorted by cumulative wait; re-sort ties by range.
	sort.SliceStable(top, func(i, j int) bool {
		if top[i].TotalWaitNs != top[j].TotalWaitNs {
			return top[i].TotalWaitNs > top[j].TotalWaitNs
		}
		return top[i].Lo < top[j].Lo
	})
	for _, s := range top {
		labels := []lbl{{"site", s.Site}}
		if s.Lo != 0 || s.Hi != 0 {
			labels = append(labels, lbl{"range", fmt.Sprintf("0x%x-0x%x", s.Lo, s.Hi)})
		}
		cWait.add(float64(s.TotalWaitNs), labels...)
		cWaits.add(n(s.Waits), labels...)
		cMax.add(float64(s.MaxWaitNs), labels...)
	}

	pw := &errWriter{w: w}
	for _, f := range fams {
		if len(f.lines) == 0 {
			continue
		}
		pw.printf("# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ)
		pw.printf("%s\n", strings.Join(f.lines, "\n"))
	}
	return pw.err
}
