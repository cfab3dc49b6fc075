// Package machine hosts N address-space families as tenants of one
// simulated machine, each admitted with a memcg-style frame limit:
// every frame a tenant allocates — fault fills, COW copies, page
// tables, page-cache fills — is charged to its account, and a tenant
// at its limit climbs a tenant-local reclaim ladder (scan its own
// pages, then a per-tenant OOM kill) before it may touch the shared
// pool, so one thrashing tenant degrades alone. The package is policy
// over vm.Host, which keeps the machine's one tenant table (names,
// slots, the live set and the departed statistics): Evict departs a
// tenant with a teardown and leak audit, and Snapshot reads the table
// into per-tenant and machine-wide vm.Rollup figures. internal/torture
// drives it.
package machine

import (
	"fmt"

	"bonsai/internal/physmem"
	"bonsai/internal/reclaim"
	"bonsai/internal/stats"
	"bonsai/internal/vm"
)

// Config parameterizes a multi-tenant machine.
type Config struct {
	// VM is the per-tenant address-space configuration; the machine's
	// shared geometry (Frames, CPUs, MaxFamily) is read from it too.
	VM vm.Config
	// MaxTenants bounds concurrent tenants (<= 0 = vm.DefaultMaxTenants).
	MaxTenants int
}

// Machine is one simulated machine hosting tenants. All methods are
// safe for concurrent use.
type Machine struct {
	host *vm.Host
}

// Tenant is a handle on one admitted family: a root address space plus
// every sibling or fork child opened in its family, all charged to one
// account. A tenant may have several handles (Admit's and each
// Tenants call's); they share everything, the tenant's state living in
// its vm family.
type Tenant struct {
	m    *Machine
	root *vm.AddressSpace
}

// New builds an empty machine.
func New(cfg Config) *Machine {
	return &Machine{host: vm.NewHost(cfg.VM, cfg.MaxTenants)}
}

// Admit admits a tenant under a frame limit (<= 0 = unlimited). The
// returned tenant owns a fresh root address space; its name must be
// unique among live tenants ("" picks one).
func (m *Machine) Admit(name string, limitFrames int64) (*Tenant, error) {
	root, err := m.host.Admit(name, limitFrames)
	if err != nil {
		return nil, err
	}
	return &Tenant{m: m, root: root}, nil
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.root.TenantName() }

// Limit returns the tenant's admission frame limit (<= 0 = unlimited).
func (t *Tenant) Limit() int64 { return t.root.TenantLimit() }

// Root returns the tenant's root address space.
func (t *Tenant) Root() *vm.AddressSpace { return t.root }

// Account returns the tenant's charge account (nil when unlimited).
func (t *Tenant) Account() *physmem.Account { return t.root.Account() }

// Spaces returns the tenant's open member spaces — the root, then the
// siblings and fork children opened since, in that order.
func (t *Tenant) Spaces() []*vm.AddressSpace { return t.root.Members() }

// NewSibling opens a fresh empty member in the tenant's family (Evict
// will close it). It fails once the tenant has retired.
func (t *Tenant) NewSibling() (*vm.AddressSpace, error) { return t.root.NewSibling() }

// Evict departs the tenant: every member still open closes (children
// and siblings before the root), which retires the tenant, residual
// page-cache pages still charged to the tenant — pages of shared files
// neighbor tenants keep resident — are evicted so the survivors refault
// them under their own charge, and the leak audit runs: a departed
// tenant must end at zero charged frames. No operation on the tenant's
// spaces may be in flight. A tenant is evicted once, whichever handle
// asks.
func (t *Tenant) Evict() error {
	if !t.root.MarkEvicted() {
		return fmt.Errorf("machine: tenant %q already evicted", t.Name())
	}
	// Drop the limit to one frame before any teardown eviction runs:
	// a departing tenant has no under-limit claim, so the pages the
	// drain evicts must not count toward the cross-tenant fairness
	// metric (NoteEviction samples OverLimit at eviction time).
	acct := t.Account()
	if acct != nil {
		acct.SetLimit(1)
	}
	var firstErr error
	// The root joined first, so it closes last.
	spaces := t.Spaces()
	for i := len(spaces) - 1; i >= 0; i-- {
		if err := spaces[i].Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("machine: tenant %q teardown: %w", t.Name(), err)
		}
	}
	if residue := t.m.host.DrainAccount(acct); residue != 0 && firstErr == nil {
		firstErr = fmt.Errorf("machine: tenant %q leaked %d charged frames past eviction", t.Name(), residue)
	}
	return firstErr
}

// Close evicts every live tenant and tears the machine down; the
// allocator's frame-leak check error (or the first tenant teardown
// error) is returned.
func (m *Machine) Close() error {
	var firstErr error
	for _, t := range m.Tenants() {
		if err := t.Evict(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := m.host.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Host exposes the underlying vm.Host (for killers, allocator
// inspection, and tests).
func (m *Machine) Host() *vm.Host { return m.host }

// Tenants returns the live tenants sorted by name (for introspection
// views that need the tenant objects, not just the snapshot).
func (m *Machine) Tenants() []*Tenant {
	live := m.host.Tenants().Live
	ts := make([]*Tenant, len(live))
	for i, root := range live {
		ts[i] = &Tenant{m: m, root: root}
	}
	return ts
}

// TenantSnapshot is one tenant's slice of the machine rollup.
type TenantSnapshot struct {
	Name  string `json:"name"`
	Limit int64  `json:"limit"`
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
	// RangeWait is the contended range-lock wait (zeros for designs on
	// the global mmap_sem).
	RangeWait stats.LatencyStats `json:"range_wait"`
	// GP is the RCU grace-period latency, machine-wide.
	GP stats.LatencyStats `json:"gp"`
	// ReclaimScan is the reclaim scan duration (time under the scan
	// lock), machine-wide.
	ReclaimScan stats.LatencyStats `json:"reclaim_scan"`
}

// Snapshot is the machine-wide rollup: shared-resource counters once,
// plus one entry per live tenant.
type Snapshot struct {
	FramesTotal     uint64        `json:"frames_total"`
	FramesInUse     int64         `json:"frames_in_use"`
	Reclaim         reclaim.Stats `json:"reclaim"`
	OOMKills        uint64        `json:"oom_kills"`
	TenantsAdmitted uint64        `json:"tenants_admitted"`
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
	// tenants, and the machine-shared grace-period and reclaim-scan
	// histograms.
	Latency LatencySnapshot `json:"latency"`
	// CrossTenantEvictions is the reclaim-fairness metric: pages
	// evicted from accounts that were under their limit at eviction
	// time, summed over live and departed tenants. While every tenant
	// stays under its limit this should be ~0 — a nonzero count means
	// one tenant's pressure reached into another's working set.
	CrossTenantEvictions uint64 `json:"cross_tenant_evictions"`
}

// Snapshot captures the machine rollup from one read of the tenant
// table: a tenant retiring concurrently is counted exactly once — via
// the departed rollup if it left before the read, via its own (final
// or still growing) rollup otherwise.
func (m *Machine) Snapshot() Snapshot {
	tt := m.host.Tenants()
	all := tt.Departed
	alloc := m.host.Allocator()
	sn := Snapshot{
		FramesTotal:          alloc.NumFrames(),
		FramesInUse:          alloc.InUse(),
		Reclaim:              m.host.Reclaimer().Stats(),
		OOMKills:             m.host.OOMKills(),
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
		Fault:       all.Fault.Stats(),
		MapOp:       all.MapOp.Stats(),
		RangeWait:   all.RangeWait.Stats(),
		GP:          m.host.Domain().GPHist().Stats(),
		ReclaimScan: m.host.Reclaimer().ScanHist().Stats(),
	}
	return sn
}
