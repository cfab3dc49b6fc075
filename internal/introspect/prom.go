package introspect

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"bonsai/internal/contention"
	"bonsai/internal/machine"
)

// Metric naming conventions (documented in the README's introspection
// section, enforced by the exposition tests and cmd/promcheck):
//
//   - every family is vm_-prefixed;
//   - counters end in _total and never decrease while their series
//     exists (the vm family's and the machine's departed rollups are
//     what make the fault/map-op counts churn-proof);
//   - gauges never end in _total;
//   - latency percentiles are summaries in nanoseconds: a _ns family
//     with quantile labels plus a _ns_count sample. Summary counts are
//     not typed as counters;
//   - per-tenant series carry a tenant label and disappear when the
//     tenant departs; contention series carry site (and range) labels
//     and cover the top contended sites only, to bound cardinality.

// lbl is one label pair.
type lbl struct{ k, v string }

// promWriter accumulates one exposition document, tracking family
// declarations so HELP/TYPE are emitted exactly once per family.
type promWriter struct {
	w        io.Writer
	err      error
	declared map[string]bool
}

func newPromWriter(w io.Writer) *promWriter {
	return &promWriter{w: w, declared: make(map[string]bool)}
}

// family declares a metric family; typ is counter, gauge, or summary.
// Declaring the same family twice is a programming error the
// exposition tests would catch as a duplicate.
func (p *promWriter) family(name, typ, help string) {
	if p.declared[name] {
		p.fail(fmt.Errorf("introspect: duplicate family %q", name))
		return
	}
	p.declared[name] = true
	p.printf("# HELP %s %s\n", name, escapeHelp(help))
	p.printf("# TYPE %s %s\n", name, typ)
}

// sample emits one sample line. name must be the declared family name
// or, for summaries, family+"_count".
func (p *promWriter) sample(name string, labels []lbl, v float64) {
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.k)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.v))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	p.printf("%s %s\n", b.String(), strconv.FormatFloat(v, 'g', -1, 64))
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, err := fmt.Fprintf(p.w, format, args...)
	p.fail(err)
}

func (p *promWriter) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// summary emits a latency summary family: quantile samples (p50, p99,
// p999) plus the _count sample, all in nanoseconds.
func (p *promWriter) summary(name, help string, labels []lbl, s statsLatency) {
	p.family(name, "summary", help)
	p.summarySeries(name, labels, s)
}

// summarySeries emits one label set's samples under an already-declared
// summary family.
func (p *promWriter) summarySeries(name string, labels []lbl, s statsLatency) {
	q := func(quantile string, v int64) {
		p.sample(name, append(append([]lbl(nil), labels...), lbl{"quantile", quantile}), float64(v))
	}
	q("0.5", s.P50Ns)
	q("0.99", s.P99Ns)
	q("0.999", s.P999Ns)
	p.sample(name+"_count", labels, float64(s.Count))
}

// statsLatency is the subset of stats.LatencyStats the writer needs;
// declared structurally so prom.go stays decoupled from the field set.
type statsLatency struct {
	Count                int64
	P50Ns, P99Ns, P999Ns int64
}

// contentionTopN bounds the per-site contention series cardinality.
const contentionTopN = 10

// WriteMetrics renders m's current state as one Prometheus text
// exposition document; label is the instance metric's.
func WriteMetrics(w io.Writer, m *machine.Machine, label string) error {
	sn := m.Snapshot()
	p := newPromWriter(w)

	p.family("vm_instance_info", "gauge", "Constant 1, labeled with the introspection source's name.")
	p.sample("vm_instance_info", []lbl{{"label", label}}, 1)

	p.family("vm_pool_frames", "gauge", "Physical frame pool occupancy by state.")
	p.sample("vm_pool_frames", []lbl{{"state", "total"}}, float64(sn.FramesTotal))
	p.sample("vm_pool_frames", []lbl{{"state", "in_use"}}, float64(sn.FramesInUse))
	p.sample("vm_pool_frames", []lbl{{"state", "free"}}, float64(int64(sn.FramesTotal)-sn.FramesInUse))
	alloc := m.Host().Allocator()
	p.family("vm_pool_watermark_frames", "gauge", "Reclaim watermarks: kswapd wakes below low, parks above high.")
	p.sample("vm_pool_watermark_frames", []lbl{{"level", "low"}}, float64(alloc.LowWater()))
	p.sample("vm_pool_watermark_frames", []lbl{{"level", "high"}}, float64(alloc.HighWater()))

	p.family("vm_tenants_live", "gauge", "Live tenants.")
	p.sample("vm_tenants_live", nil, float64(len(sn.Tenants)))
	p.family("vm_tenants_admitted_total", "counter", "Tenants ever admitted.")
	p.sample("vm_tenants_admitted_total", nil, float64(sn.TenantsAdmitted))
	p.family("vm_tenants_evicted_total", "counter", "Tenants ever retired: evicted, or every member closed.")
	p.sample("vm_tenants_evicted_total", nil, float64(sn.TenantsEvicted))
	p.family("vm_oom_kills_total", "counter", "Killer-of-last-resort invocations, machine-wide.")
	p.sample("vm_oom_kills_total", nil, float64(sn.OOMKills))
	p.family("vm_cross_tenant_evictions_total", "counter", "Pages evicted from under-limit tenants (the fairness metric; ~0 in a healthy run).")
	p.sample("vm_cross_tenant_evictions_total", nil, float64(sn.CrossTenantEvictions))

	p.family("vm_reclaim_runs_total", "counter", "Reclaim ladder runs by path.")
	p.sample("vm_reclaim_runs_total", []lbl{{"path", "kswapd"}}, float64(sn.Reclaim.KswapdCycles))
	p.sample("vm_reclaim_runs_total", []lbl{{"path", "direct"}}, float64(sn.Reclaim.DirectRuns))
	p.sample("vm_reclaim_runs_total", []lbl{{"path", "account"}}, float64(sn.Reclaim.AccountRuns))
	p.family("vm_reclaim_evicted_pages_total", "counter", "Pages evicted by path.")
	p.sample("vm_reclaim_evicted_pages_total", []lbl{{"path", "kswapd"}}, float64(sn.Reclaim.KswapdEvicted))
	p.sample("vm_reclaim_evicted_pages_total", []lbl{{"path", "direct"}}, float64(sn.Reclaim.DirectEvicted))
	p.sample("vm_reclaim_evicted_pages_total", []lbl{{"path", "account"}}, float64(sn.Reclaim.AccountEvicted))
	p.family("vm_reclaim_writebacks_total", "counter", "Dirty pages written back before eviction.")
	p.sample("vm_reclaim_writebacks_total", nil, float64(sn.Reclaim.Writebacks))
	p.family("vm_reclaim_scan_passes_total", "counter", "Clock passes over the cache rotation.")
	p.sample("vm_reclaim_scan_passes_total", nil, float64(sn.Reclaim.ScanPasses))
	p.family("vm_reclaim_injected_stalls_total", "counter", "Direct-reclaim runs failed by the stall failpoint.")
	p.sample("vm_reclaim_injected_stalls_total", nil, float64(sn.Reclaim.InjectedStalls))

	writeTHPMetrics(p, sn)

	rs := m.Host().Domain().Stats()
	p.family("vm_rcu_grace_periods_total", "counter", "RCU grace periods completed.")
	p.sample("vm_rcu_grace_periods_total", nil, float64(rs.GracePeriods))
	p.family("vm_rcu_callbacks_queued_total", "counter", "Callbacks queued via Defer.")
	p.sample("vm_rcu_callbacks_queued_total", nil, float64(rs.Defers))
	p.family("vm_rcu_callbacks_ran_total", "counter", "Callbacks executed.")
	p.sample("vm_rcu_callbacks_ran_total", nil, float64(rs.Ran))
	p.family("vm_rcu_pending_callbacks", "gauge", "Callbacks queued behind the next grace period.")
	p.sample("vm_rcu_pending_callbacks", nil, float64(rs.Pending))
	p.family("vm_rcu_gp_in_flight", "gauge", "1 while a grace period is executing.")
	gp := 0.0
	if rs.GPInFlight {
		gp = 1
	}
	p.sample("vm_rcu_gp_in_flight", nil, gp)
	p.family("vm_rcu_readers", "gauge", "Registered read-side contexts.")
	p.sample("vm_rcu_readers", nil, float64(rs.Readers))

	// Faults are timed by sampling: the quantiles come from the timed
	// sample, _count is the exact fault counter, and the sample size is
	// its own family.
	p.summary("vm_fault_latency_ns", "Page-fault latency, machine-wide (fast path through OOM ladder); quantiles over the timed sample, _count every fault.", nil,
		statsLatency{int64(sn.Faults), sn.Latency.Fault.P50Ns, sn.Latency.Fault.P99Ns, sn.Latency.Fault.P999Ns})
	p.family("vm_fault_latency_samples_total", "counter", "Faults timed into vm_fault_latency_ns (1 in 16 while the tracer is disarmed, every fault while armed).")
	p.sample("vm_fault_latency_samples_total", nil, float64(sn.Latency.Fault.Count))
	p.summary("vm_map_op_latency_ns", "Mapping-operation latency (mmap/munmap/mprotect/madvise), machine-wide.", nil,
		statsLatency{int64(sn.Latency.MapOp.Count), sn.Latency.MapOp.P50Ns, sn.Latency.MapOp.P99Ns, sn.Latency.MapOp.P999Ns})
	p.summary("vm_range_wait_ns", "Contended range-lock wait latency, machine-wide.", nil,
		statsLatency{int64(sn.Latency.RangeWait.Count), sn.Latency.RangeWait.P50Ns, sn.Latency.RangeWait.P99Ns, sn.Latency.RangeWait.P999Ns})
	p.summary("vm_gp_latency_ns", "RCU grace-period latency.", nil,
		statsLatency{int64(sn.Latency.GP.Count), sn.Latency.GP.P50Ns, sn.Latency.GP.P99Ns, sn.Latency.GP.P999Ns})
	p.summary("vm_reclaim_scan_ns", "Reclaim scan duration (time under the scan lock).", nil,
		statsLatency{int64(sn.Latency.ReclaimScan.Count), sn.Latency.ReclaimScan.P50Ns, sn.Latency.ReclaimScan.P99Ns, sn.Latency.ReclaimScan.P999Ns})

	writeTenantMetrics(p, sn)
	writeContentionMetrics(p)
	return p.err
}

// writeTHPMetrics emits the machine-wide transparent-huge-page
// families from the machine's counter set (the same rollup meminfo's
// AnonHugePages line reports).
func writeTHPMetrics(p *promWriter, sn machine.Snapshot) {
	p.family("vm_thp_faults_total", "counter", "Huge-eligible anonymous faults by outcome: huge entry installed, or fallback to base pages.")
	p.sample("vm_thp_faults_total", []lbl{{"outcome", "huge"}}, float64(sn.THPHugeFaults))
	p.sample("vm_thp_faults_total", []lbl{{"outcome", "fallback"}}, float64(sn.THPFallbacks))
	p.family("vm_thp_collapses_total", "counter", "Collapse attempts (background scanner and explicit CollapseRange) by outcome.")
	p.sample("vm_thp_collapses_total", []lbl{{"outcome", "promoted"}}, float64(sn.THPCollapses))
	p.sample("vm_thp_collapses_total", []lbl{{"outcome", "aborted"}}, float64(sn.THPCollapseFails))
	p.family("vm_thp_splits_total", "counter", "Huge entries demoted to base pages in place.")
	p.sample("vm_thp_splits_total", nil, float64(sn.THPSplits))
	p.family("vm_thp_zaps_total", "counter", "Huge entries unmapped whole.")
	p.sample("vm_thp_zaps_total", nil, float64(sn.THPZaps))
	p.family("vm_thp_anon_huge_pages", "gauge", "Base pages currently mapped by live huge entries.")
	p.sample("vm_thp_anon_huge_pages", nil, float64(sn.AnonHugePages*hugePages))
}

func writeTenantMetrics(p *promWriter, sn machine.Snapshot) {
	if len(sn.Tenants) == 0 {
		return
	}
	p.family("vm_tenant_frames", "gauge", "Per-tenant frame accounting by state (limit 0 = unlimited).")
	p.family("vm_tenant_faults_total", "counter", "Per-tenant page faults, member closes included.")
	// The account families exist only while at least one tenant is
	// limited — an empty family is an exposition error.
	hasAccount := false
	for _, ts := range sn.Tenants {
		if ts.Account != nil {
			hasAccount = true
			break
		}
	}
	if hasAccount {
		p.family("vm_tenant_limit_hits_total", "counter", "Per-tenant charge attempts that hit the limit.")
		p.family("vm_tenant_evictions_total", "counter", "Per-tenant pages evicted from the tenant's account.")
		p.family("vm_tenant_evictions_under_limit_total", "counter", "Per-tenant pages evicted while under limit (cross-tenant interference).")
	}
	p.family("vm_tenant_fault_latency_ns", "summary", "Per-tenant page-fault latency; quantiles over the timed sample, _count every fault.")
	for _, ts := range sn.Tenants {
		tl := []lbl{{"tenant", ts.Name}}
		p.sample("vm_tenant_faults_total", tl, float64(ts.Faults))
		if ts.Account != nil {
			a := ts.Account
			p.sample("vm_tenant_frames", append(tl[:1:1], lbl{"state", "limit"}), float64(a.Limit))
			p.sample("vm_tenant_frames", append(tl[:1:1], lbl{"state", "charged"}), float64(a.Charged))
			p.sample("vm_tenant_frames", append(tl[:1:1], lbl{"state", "max_charged"}), float64(a.MaxCharged))
			p.sample("vm_tenant_limit_hits_total", tl, float64(a.LimitHits))
			p.sample("vm_tenant_evictions_total", tl, float64(a.Evictions))
			p.sample("vm_tenant_evictions_under_limit_total", tl, float64(a.EvictionsUnderLimit))
		} else {
			p.sample("vm_tenant_frames", append(tl[:1:1], lbl{"state", "limit"}), float64(ts.Limit))
		}
		p.summarySeries("vm_tenant_fault_latency_ns", tl,
			statsLatency{int64(ts.Faults), ts.Fault.P50Ns, ts.Fault.P99Ns, ts.Fault.P999Ns})
	}
}

func writeContentionMetrics(p *promWriter) {
	top := contention.Top(contentionTopN)
	if len(top) == 0 {
		return
	}
	p.family("vm_contention_wait_ns_total", "counter", "Cumulative contended-wait time by site (top sites only).")
	p.family("vm_contention_waits_total", "counter", "Contended acquisitions by site (top sites only).")
	p.family("vm_contention_wait_max_ns", "gauge", "Worst single wait by site (top sites only).")
	// Deterministic sample order within the scrape: the snapshot is
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
		p.sample("vm_contention_wait_ns_total", labels, float64(s.TotalWaitNs))
		p.sample("vm_contention_waits_total", labels, float64(s.Waits))
		p.sample("vm_contention_wait_max_ns", labels, float64(s.MaxWaitNs))
	}
}
