// Package machine hosts N address-space families as tenants of one
// simulated machine, each admitted with a memcg-style frame limit:
// every frame a tenant allocates — fault fills, COW copies, page
// tables, page-cache fills — is charged to its account, and a tenant
// at its limit climbs a tenant-local reclaim ladder (scan its own
// pages, then a per-tenant OOM kill) before it may touch the shared
// pool, so one thrashing tenant degrades alone. The package wraps
// vm.Host with tenant lifecycle (Admit, Evict with teardown + leak
// audit), a per-tenant statistics rollup, and the soak driver behind
// cmd/soak.
package machine

import (
	"fmt"
	"sort"
	"sync"

	"bonsai/internal/physmem"
	"bonsai/internal/reclaim"
	"bonsai/internal/stats"
	"bonsai/internal/vm"
)

// Config parameterizes a multi-tenant machine.
type Config struct {
	// VM is the per-tenant address-space configuration; the machine's
	// shared geometry (Frames, CPUs, MaxFamily, shootdown model) is
	// read from it too.
	VM vm.Config
	// MaxTenants bounds concurrent tenants (<= 0 = vm.DefaultMaxTenants).
	MaxTenants int
}

// Machine is one simulated machine hosting tenants. All methods are
// safe for concurrent use.
type Machine struct {
	host *vm.Host
	cfg  Config

	mu      sync.Mutex
	tenants map[string]*Tenant
	nextID  int
	// Rollup of departed tenants' final account counters, so the
	// fairness metric survives tenant churn.
	departed        []physmem.AccountStats
	departedCross   uint64
	tenantsAdmitted uint64
	tenantsEvicted  uint64
	// Departed tenants' latency samples, merged in at eviction (under
	// mu, in the same critical section that removes the tenant), so the
	// machine-wide histogram counts are monotonic across tenant churn —
	// a scrape-to-scrape delta is never negative.
	departedFault     stats.LatencyHist
	departedMapOp     stats.LatencyHist
	departedRangeWait stats.LatencyHist
	// departedFaults is the exact fault count of departed tenants (the
	// histograms hold only the timed sample), carried the same way.
	departedFaults uint64
}

// Tenant is one admitted family: a root address space plus every
// sibling or fork child registered with the tenant, all charged to
// one account.
type Tenant struct {
	m     *Machine
	name  string
	limit int64
	root  *vm.AddressSpace
	acct  *physmem.Account

	mu     sync.Mutex
	spaces []*vm.AddressSpace // open members, root first
	closed bool
	// Latency samples of members closed before the tenant departed
	// (CloseSpace), merged under mu in the same critical section that
	// forgets the member, so the tenant's rollup never dips when a
	// sibling or fork child closes mid-run.
	departedFault     stats.LatencyHist
	departedMapOp     stats.LatencyHist
	departedRangeWait stats.LatencyHist
	departedFaults    uint64 // exact fault count of those members
}

// New builds an empty machine.
func New(cfg Config) *Machine {
	return &Machine{
		host:    vm.NewHost(cfg.VM, cfg.MaxTenants),
		cfg:     cfg,
		tenants: make(map[string]*Tenant),
	}
}

// Admit admits a tenant under a frame limit (<= 0 = unlimited). The
// returned tenant owns a fresh root address space; its name must be
// unique among live tenants ("" picks one).
func (m *Machine) Admit(name string, limitFrames int64) (*Tenant, error) {
	m.mu.Lock()
	if name == "" {
		name = fmt.Sprintf("tenant-%d", m.nextID)
	}
	m.nextID++
	if _, dup := m.tenants[name]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("machine: tenant %q already admitted", name)
	}
	// Reserve the name before dropping the lock so concurrent Admits
	// of the same name fail fast rather than racing the slow path.
	m.tenants[name] = nil
	m.mu.Unlock()

	root, err := m.host.Admit(limitFrames)
	if err != nil {
		m.mu.Lock()
		delete(m.tenants, name)
		m.mu.Unlock()
		return nil, err
	}
	t := &Tenant{
		m:      m,
		name:   name,
		limit:  limitFrames,
		root:   root,
		acct:   root.Account(),
		spaces: []*vm.AddressSpace{root},
	}
	m.mu.Lock()
	m.tenants[name] = t
	m.tenantsAdmitted++
	m.mu.Unlock()
	return t, nil
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Limit returns the tenant's admission frame limit (<= 0 = unlimited).
func (t *Tenant) Limit() int64 { return t.limit }

// Root returns the tenant's root address space.
func (t *Tenant) Root() *vm.AddressSpace { return t.root }

// Account returns the tenant's charge account (nil when unlimited).
func (t *Tenant) Account() *physmem.Account { return t.acct }

// Spaces returns the tenant's open member spaces (root first).
func (t *Tenant) Spaces() []*vm.AddressSpace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*vm.AddressSpace(nil), t.spaces...)
}

// NewSibling opens a fresh empty member in the tenant's family and
// registers it with the tenant (Evict will close it).
func (t *Tenant) NewSibling() (*vm.AddressSpace, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("machine: tenant %q is evicted", t.name)
	}
	t.mu.Unlock()
	sib, err := t.root.NewSibling()
	if err != nil {
		return nil, err
	}
	t.adopt(sib)
	return sib, nil
}

// Adopt registers an address space the caller created inside this
// tenant's family — typically a Fork child — so Evict tears it down.
func (t *Tenant) Adopt(as *vm.AddressSpace) { t.adopt(as) }

func (t *Tenant) adopt(as *vm.AddressSpace) {
	t.mu.Lock()
	t.spaces = append(t.spaces, as)
	t.mu.Unlock()
}

// CloseSpace closes one member early (before Evict) and forgets it.
// The root must be closed by Evict, last.
func (t *Tenant) CloseSpace(as *vm.AddressSpace) error {
	if as == t.root {
		return fmt.Errorf("machine: tenant %q root closes at Evict", t.name)
	}
	t.mu.Lock()
	for i, s := range t.spaces {
		if s == as {
			t.spaces = append(t.spaces[:i], t.spaces[i+1:]...)
			// No operation is in flight on a closing member, so its
			// histograms are final; folding them in here, atomically
			// with the removal, keeps the tenant rollup monotonic.
			t.absorbLocked(as)
			break
		}
	}
	t.mu.Unlock()
	return as.Close()
}

// absorbLocked folds a departing member's latency samples and exact
// fault count into the tenant's departed accumulators. t.mu is held.
func (t *Tenant) absorbLocked(as *vm.AddressSpace) {
	t.departedFaults += as.Faults()
	t.departedFault.Merge(as.FaultHist())
	t.departedMapOp.Merge(as.MapHist())
	if rw := as.RangeWaitHist(); rw != nil {
		t.departedRangeWait.Merge(rw)
	}
}

// Evict departs the tenant: every registered member closes (children
// and siblings before the root), residual page-cache pages still
// charged to the tenant — pages of shared files neighbor tenants keep
// resident — are evicted so the survivors refault them under their own
// charge, and the leak audit runs: a departed tenant must end at zero
// charged frames. No operation on the tenant's spaces may be in
// flight.
func (t *Tenant) Evict() error { return t.m.evict(t) }

func (m *Machine) evict(t *Tenant) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("machine: tenant %q already evicted", t.name)
	}
	t.closed = true
	spaces := t.spaces
	t.spaces = nil
	// No operation is in flight on an evicting tenant's spaces (the
	// Evict contract), so their histograms are final: fold them into
	// the tenant accumulators atomically with the list reset, keeping
	// a concurrent Snapshot's count monotonic.
	for _, as := range spaces {
		t.absorbLocked(as)
	}
	t.mu.Unlock()

	// Drop the limit to one frame before any teardown eviction runs:
	// a departing tenant has no under-limit claim, so the pages the
	// drain evicts must not count toward the cross-tenant fairness
	// metric (NoteEviction samples OverLimit at eviction time).
	if t.acct != nil {
		t.acct.SetLimit(1)
	}
	var firstErr error
	for i := len(spaces) - 1; i >= 0; i-- {
		if err := spaces[i].Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("machine: tenant %q teardown: %w", t.name, err)
		}
	}
	var residue int64
	var final physmem.AccountStats
	if t.acct != nil {
		residue = m.host.DrainAccount(t.acct)
		final = t.acct.Stats()
	}
	m.mu.Lock()
	delete(m.tenants, t.name)
	m.tenantsEvicted++
	if t.acct != nil {
		m.departed = append(m.departed, final)
		m.departedCross += final.EvictionsUnderLimit
	}
	// Same critical section as the removal: a Snapshot sees the tenant
	// either live (and reads its accumulators under t.mu) or departed
	// (and reads these), never neither and never both.
	m.departedFault.Merge(&t.departedFault)
	m.departedMapOp.Merge(&t.departedMapOp)
	m.departedRangeWait.Merge(&t.departedRangeWait)
	m.departedFaults += t.departedFaults
	m.mu.Unlock()
	if residue != 0 && firstErr == nil {
		firstErr = fmt.Errorf("machine: tenant %q leaked %d charged frames past eviction", t.name, residue)
	}
	return firstErr
}

// Close evicts every live tenant and tears the machine down; the
// allocator's frame-leak check error (or the first tenant teardown
// error) is returned.
func (m *Machine) Close() error {
	m.mu.Lock()
	live := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		if t != nil {
			live = append(live, t)
		}
	}
	m.mu.Unlock()
	var firstErr error
	for _, t := range live {
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
	m.mu.Lock()
	live := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		if t != nil {
			live = append(live, t)
		}
	}
	m.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].name < live[j].name })
	return live
}

// TenantSnapshot is one tenant's slice of the machine rollup.
type TenantSnapshot struct {
	Name  string `json:"name"`
	Limit int64  `json:"limit"`
	// Space is the tenant root's unified snapshot (machine-wide
	// sections — Reclaim, Failpoints — are hoisted to the machine
	// level and omitted here).
	Space vm.Stats `json:"space"`
	// Account is the tenant's charge counters (nil when unlimited).
	Account *physmem.AccountStats `json:"account,omitempty"`
	// Faults is the tenant's exact fault count, summed across every
	// member space including members already closed: the tenant's
	// monotonic fault counter.
	Faults uint64 `json:"faults"`
	// Fault is the tenant's fault-latency rollup over the same members.
	// Faults are timed by sampling, so its Count is the number of
	// samples behind the percentiles, not the number of faults.
	Fault stats.LatencyStats `json:"fault"`
}

// Snapshot is the machine-wide rollup: shared-resource counters once,
// plus one entry per live tenant and the final counters of departed
// ones.
type Snapshot struct {
	FramesTotal     uint64                 `json:"frames_total"`
	FramesInUse     int64                  `json:"frames_in_use"`
	Reclaim         reclaim.Stats          `json:"reclaim"`
	OOMKills        uint64                 `json:"oom_kills"`
	TenantsAdmitted uint64                 `json:"tenants_admitted"`
	TenantsEvicted  uint64                 `json:"tenants_evicted"`
	Tenants         []TenantSnapshot       `json:"tenants,omitempty"`
	Departed        []physmem.AccountStats `json:"departed,omitempty"`
	// Latency is the machine-wide hot-path latency rollup: fault,
	// mapping-operation, and range-wait histograms merged across every
	// live tenant's member spaces plus the departed accumulators (a
	// member's samples are folded in when it closes), and the
	// machine-shared grace-period and reclaim-scan histograms. The
	// counts are monotonic across tenant churn — the property the
	// Prometheus exporter's counters and the vmstat delta engine rely
	// on. Spaces never registered with a tenant (fork children closed
	// directly) are not counted, before or after close.
	Latency vm.LatencySnapshot `json:"latency"`
	// CrossTenantEvictions is the reclaim-fairness metric: pages
	// evicted from accounts that were under their limit at eviction
	// time, summed over live and departed tenants. While every tenant
	// stays under its limit this should be ~0 — a nonzero count means
	// one tenant's pressure reached into another's working set.
	CrossTenantEvictions uint64 `json:"cross_tenant_evictions"`
	// Faults is the machine-wide exact fault count: live tenants plus
	// the departed accumulator, monotonic across tenant churn like the
	// histogram counts. (Latency.Fault.Count is the timed sample only.)
	Faults uint64 `json:"faults"`
}

// Snapshot captures the machine rollup.
func (m *Machine) Snapshot() Snapshot {
	m.mu.Lock()
	live := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		if t != nil {
			live = append(live, t)
		}
	}
	sn := Snapshot{
		TenantsAdmitted:      m.tenantsAdmitted,
		TenantsEvicted:       m.tenantsEvicted,
		Departed:             append([]physmem.AccountStats(nil), m.departed...),
		CrossTenantEvictions: m.departedCross,
		Faults:               m.departedFaults,
	}
	// The departed-latency copy shares m.mu with the live-tenant copy:
	// a tenant evicting concurrently is counted exactly once — via its
	// own accumulators if it left before this point, via the live list
	// otherwise.
	var fault, mapOp, rangeWait stats.LatencyHist
	fault.Merge(&m.departedFault)
	mapOp.Merge(&m.departedMapOp)
	rangeWait.Merge(&m.departedRangeWait)
	m.mu.Unlock()

	alloc := m.host.Allocator()
	sn.FramesTotal = alloc.NumFrames()
	sn.FramesInUse = alloc.InUse()
	sn.Reclaim = m.host.ReclaimStats()
	sn.OOMKills = m.host.OOMKills()
	for _, t := range live {
		ts := TenantSnapshot{Name: t.name, Limit: t.limit, Space: t.root.Stats()}
		if t.acct != nil {
			st := t.acct.Stats()
			ts.Account = &st
			sn.CrossTenantEvictions += st.EvictionsUnderLimit
		}
		// Merge under t.mu so a concurrently closing member lands in
		// exactly one of t.spaces / t.departed*; a snapshot can then
		// never observe a half-retired member (satellite of the
		// monotonicity guarantee above).
		var tf stats.LatencyHist
		t.mu.Lock()
		ts.Faults = t.departedFaults
		tf.Merge(&t.departedFault)
		mapOp.Merge(&t.departedMapOp)
		rangeWait.Merge(&t.departedRangeWait)
		spaces := append([]*vm.AddressSpace(nil), t.spaces...)
		t.mu.Unlock()
		for _, as := range spaces {
			ts.Faults += as.Faults()
			tf.Merge(as.FaultHist())
			mapOp.Merge(as.MapHist())
			if rw := as.RangeWaitHist(); rw != nil {
				rangeWait.Merge(rw)
			}
		}
		ts.Fault = tf.Stats()
		sn.Faults += ts.Faults
		fault.Merge(&tf)
		sn.Tenants = append(sn.Tenants, ts)
	}
	sn.Latency = vm.LatencySnapshot{
		Fault:       fault.Stats(),
		MapOp:       mapOp.Stats(),
		RangeWait:   rangeWait.Stats(),
		GP:          m.host.Domain().GPHist().Stats(),
		ReclaimScan: m.host.Reclaimer().ScanHist().Stats(),
	}
	return sn
}
