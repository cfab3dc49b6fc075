package introspect

import (
	"bonsai/internal/physmem"
	"bonsai/internal/rcu"
	"bonsai/internal/reclaim"
	"bonsai/internal/stats"
	"bonsai/internal/vm"
)

// TenantSnapshot is one tenant's slice of the machine rollup.
type TenantSnapshot struct {
	Name string `json:"name"`
	// Limit is the tenant's admission frame limit (<= 0 = unlimited):
	// the figure every surface reports, even while an eviction has
	// already lowered the account's own limit.
	Limit int64 `json:"limit"`
	// Counts is the tenant's counter set summed across every member
	// space, members already closed included (its vm.Rollup): Faults is
	// the tenant's exact, monotonic fault count.
	vm.Counts
	// Account is the tenant's charge counters (nil when unlimited).
	Account *physmem.AccountStats `json:"account,omitempty"`
	// Fault is the tenant's fault-latency rollup over the same members.
	// Faults are timed by sampling, so its Count is the number of
	// samples behind the percentiles, not the number of faults.
	Fault stats.LatencyStats `json:"fault"`
}

// LatencySnapshot is the machine's always-on hot-path latency
// histograms in percentile form: the tail-attribution data the
// throughput counters cannot express.
type LatencySnapshot struct {
	// Fault spans CPU.Fault end to end (fast path through OOM ladder);
	// its Count is the timed sample's size, not Snapshot.Faults.
	Fault stats.LatencyStats `json:"fault"`
	// MapOp spans Mmap/Munmap/Mprotect/MadviseDontNeed calls.
	MapOp stats.LatencyStats `json:"map_op"`
	// RangeWait is the contended range-lock wait (zeros for RWLock and
	// FaultLock).
	RangeWait stats.LatencyStats `json:"range_wait"`
}

// Snapshot is the machine-wide rollup: shared-resource counters once,
// plus one entry per live tenant. It is everything the text surfaces
// (/metrics, /proc/meminfo, /proc/rcu) render, read in one call.
type Snapshot struct {
	FramesTotal uint64 `json:"frames_total"`
	FramesInUse int64  `json:"frames_in_use"`
	// WatermarkLow and WatermarkHigh are the pool's reclaim watermarks
	// in frames: kswapd wakes below low and parks above high.
	WatermarkLow  uint64        `json:"watermark_low"`
	WatermarkHigh uint64        `json:"watermark_high"`
	Reclaim       reclaim.Stats `json:"reclaim"`
	// RCU is the machine's RCU domain: grace periods, callbacks, the
	// per-shard backlog and the grace-period latency percentiles.
	RCU             rcu.Stats `json:"rcu"`
	OOMKills        uint64    `json:"oom_kills"`
	TenantsAdmitted uint64    `json:"tenants_admitted"`
	// TenantsEvicted counts retired tenants: evicted, or all members closed.
	TenantsEvicted uint64           `json:"tenants_evicted"`
	Tenants        []TenantSnapshot `json:"tenants,omitempty"`
	// Counts is the machine's counter set over every tenant ever
	// admitted — each live tenant's vm.Rollup plus the departed rollup —
	// so each count is monotonic across tenant churn, the property the
	// Prometheus exporter's counters and the vmstat delta engine rely
	// on. (Latency.Fault.Count is the timed sample only; Faults counts
	// every fault.)
	vm.Counts
	// Latency is the machine-wide hot-path latency rollup: fault,
	// mapping-operation, and range-wait histograms over the same
	// tenants, and the machine-shared reclaim-scan histogram (the
	// grace-period one is RCU.GP).
	Latency LatencySnapshot `json:"latency"`
	// CrossTenantEvictions is the reclaim-fairness metric: pages
	// evicted from accounts that were under their limit at eviction
	// time, summed over live and departed tenants. While every tenant
	// stays under its limit this should be ~0 — a nonzero count means
	// one tenant's pressure reached into another's working set.
	CrossTenantEvictions uint64 `json:"cross_tenant_evictions"`
}

// Read captures h's rollup from one read of its tenant table: a tenant
// retiring concurrently is counted exactly once — via the departed
// rollup if it left before the read, via its own (final or still
// growing) rollup otherwise.
func Read(h *vm.Host) Snapshot {
	tt := h.Tenants()
	all := tt.Departed
	alloc := h.Allocator()
	sn := Snapshot{
		FramesTotal:          alloc.NumFrames(),
		FramesInUse:          alloc.InUse(),
		WatermarkLow:         alloc.LowWater(),
		WatermarkHigh:        alloc.HighWater(),
		Reclaim:              h.Reclaimer().Stats(),
		RCU:                  h.Domain().Stats(),
		OOMKills:             h.OOMKills(),
		TenantsAdmitted:      tt.Admitted,
		TenantsEvicted:       tt.Retired,
		CrossTenantEvictions: tt.DepartedCross,
	}
	for _, root := range tt.Live {
		r := root.Rollup()
		ts := TenantSnapshot{Name: root.TenantName(), Limit: root.TenantLimit(), Counts: r.Counts, Fault: r.Fault.Stats()}
		if ac := root.Account(); ac != nil {
			st := ac.Stats()
			ts.Account = &st
			sn.CrossTenantEvictions += st.EvictionsUnderLimit
		}
		all.Add(r)
		sn.Tenants = append(sn.Tenants, ts)
	}
	sn.Counts = all.Counts
	sn.Latency = LatencySnapshot{
		Fault:     all.Fault.Stats(),
		MapOp:     all.MapOp.Stats(),
		RangeWait: all.RangeWait.Stats(),
	}
	return sn
}
