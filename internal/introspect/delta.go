package introspect

// DeltaEngine turns successive machine snapshots into interval deltas
// — one source of truth for counter differencing, shared by
// cmd/torture's vmstat line, cmd/vmtop's rate columns, and the exposition checker's
// monotonicity reasoning. The zero value is ready to use; the first
// Step reports First and zero deltas.
type DeltaEngine struct {
	started bool
	prev    Snapshot
	tenants map[string]TenantSnapshot
}

// TenantDelta is one tenant's interval activity.
type TenantDelta struct {
	// Cur is the tenant's current snapshot entry.
	Cur TenantSnapshot
	// Faults and Evictions are interval deltas; a tenant admitted since
	// the previous sample reports its whole lifetime.
	Faults    int64
	Evictions int64
}

// Delta is one interval's machine activity.
type Delta struct {
	// Snapshot is the sample the delta was computed against.
	Snapshot Snapshot
	// First marks the engine's first sample (all deltas zero).
	First bool
	// Interval deltas. The machine's counters are monotonic; these stay
	// signed so a sample taken across a restarted machine renders a dip
	// instead of a garbage unsigned wrap.
	Faults       int64
	MapOps       int64
	Scans        int64
	Evictions    int64
	Writebacks   int64
	GracePeriods int64
	OOMKills     int64
	// Tenants holds per-tenant deltas in snapshot order.
	Tenants []TenantDelta
}

// ReclaimScans sums the reclaim ladder's run counters: kswapd cycles,
// direct-reclaim runs, and tenant-local runs.
func ReclaimScans(s Snapshot) uint64 {
	return s.Reclaim.KswapdCycles + s.Reclaim.DirectRuns + s.Reclaim.AccountRuns
}

// ReclaimEvictions sums the pages evicted by every reclaim path.
func ReclaimEvictions(s Snapshot) uint64 {
	return s.Reclaim.KswapdEvicted + s.Reclaim.DirectEvicted + s.Reclaim.AccountEvicted
}

// Step folds in the next sample and returns the interval's deltas.
func (e *DeltaEngine) Step(sn Snapshot) Delta {
	d := Delta{Snapshot: sn}
	if !e.started {
		d.First = true
	} else {
		p := e.prev
		d.Faults = int64(sn.Faults) - int64(p.Faults)
		d.MapOps = int64(sn.Latency.MapOp.Count) - int64(p.Latency.MapOp.Count)
		d.Scans = int64(ReclaimScans(sn)) - int64(ReclaimScans(p))
		d.Evictions = int64(ReclaimEvictions(sn)) - int64(ReclaimEvictions(p))
		d.Writebacks = int64(sn.Reclaim.Writebacks) - int64(p.Reclaim.Writebacks)
		d.GracePeriods = int64(sn.RCU.GracePeriods) - int64(p.RCU.GracePeriods)
		d.OOMKills = int64(sn.OOMKills) - int64(p.OOMKills)
	}
	tenants := make(map[string]TenantSnapshot, len(sn.Tenants))
	for _, ts := range sn.Tenants {
		td := TenantDelta{Cur: ts, Faults: int64(ts.Faults)}
		if ts.Account != nil {
			td.Evictions = int64(ts.Account.Evictions)
		}
		if prev, ok := e.tenants[ts.Name]; ok {
			td.Faults -= int64(prev.Faults)
			if prev.Account != nil {
				td.Evictions -= int64(prev.Account.Evictions)
			}
		}
		d.Tenants = append(d.Tenants, td)
		tenants[ts.Name] = ts
	}
	e.prev = sn
	e.tenants = tenants
	e.started = true
	return d
}
