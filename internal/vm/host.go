package vm

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"bonsai/internal/pagecache"
	"bonsai/internal/physmem"
	"bonsai/internal/rcu"
	"bonsai/internal/reclaim"
	"bonsai/internal/tlb"
)

// DefaultMaxTenants is the tenant-slot count of a Host built with
// maxTenants <= 0.
const DefaultMaxTenants = 8

// machine is the state one simulated machine shares across every
// tenant family it hosts: one frame pool, one RCU domain, one TLB
// shootdown-gather domain, one frame-to-page registry, one reclaim
// driver, the OOM killer of last resort, and the machine's one tenant
// table. vm.New builds a single-tenant machine (the compat path every
// existing test rides); Host exposes the multi-tenant surface
// internal/machine sets its policy on.
type machine struct {
	cfg        Config // normalized; geometry shared by every tenant
	maxTenants int

	alloc *physmem.Allocator
	dom   *rcu.Domain
	reg   *pagecache.Registry
	tlb   *tlb.Domain
	rec   *reclaim.Reclaimer

	// tenantsMu guards the tenant table: the slot free list, the live
	// families by name, the admission and retirement counts, the
	// departed rollup, the Host hold and the teardown latch. Tenant
	// slots partition the allocator's magazines exactly like member
	// slots partition a tenant's share; they recycle the same way, so
	// admission churn cannot exhaust the table.
	tenantsMu  sync.Mutex
	tenantFree []int
	tenantNext int
	tenants    map[string]*family
	// nextID numbers the names picked for tenants admitted without one.
	nextID int
	// The departed totals (see Tenants): a tenant leaves tenants and
	// joins them in one critical section, so a reader of the table
	// counts it exactly once.
	admitted, retired uint64
	departed          Rollup
	departedCross     uint64
	// held is true while a Host keeps the machine open across windows
	// with zero live tenants; on the vm.New path it is never set, and
	// the machine tears down with its last tenant.
	held bool
	// tornDown latches the one teardown: the last tenant's retire and
	// the Host's Close race to observe "no tenants, no hold", and
	// exactly one of them may stop the reclaimer and close the domain.
	tornDown bool

	// thpStop/thpDone bracket the background collapse scanner (the
	// khugepaged analogue); nil when the scanner is disabled.
	// Stopped once, by whichever side wins the teardown latch.
	thpStop chan struct{}
	thpDone chan struct{}

	// oomMu serializes killer-of-last-resort invocations machine-wide:
	// one exhausted operation reaps at a time, and the ones queued
	// behind it re-run their allocation against whatever the kill freed
	// before picking another victim. oomKiller is written under it too.
	oomMu     sync.Mutex
	oomKiller func(victim *AddressSpace) bool
	oomKills  atomic.Uint64
}

// newMachine builds the shared machine state for up to maxTenants
// concurrent tenant families. cfg must already be normalized.
func newMachine(cfg Config, maxTenants int) *machine {
	if maxTenants <= 0 {
		maxTenants = DefaultMaxTenants
	}
	ms := &machine{
		cfg:        cfg,
		maxTenants: maxTenants,
		tenants:    make(map[string]*family),
	}
	ms.alloc = physmem.New(physmem.Config{
		Frames: cfg.Frames,
		// Every (tenant, member) pair gets a private partition of
		// magazines: its fault CPUs plus one mapping-operation magazine.
		CPUs:      (cfg.CPUs + 1) * cfg.MaxFamily * maxTenants,
		Backing:   cfg.Backing,
		LowWater:  cfg.tune.lowWater,
		HighWater: cfg.tune.highWater,
	})
	ms.dom = rcu.NewDomain(rcu.Options{BatchSize: cfg.tune.rcuBatch})
	ms.reg = pagecache.NewRegistry(ms.alloc.NumFrames())
	ms.tlb = tlb.NewDomain(ms.alloc, ms.dom, tlb.CostModel{})
	ms.rec = reclaim.New(ms.alloc, ms.dom, reclaim.Config{
		BatchPages: cfg.tune.reclaimBatch,
		TLB:        ms.tlb,
	})
	ms.startCollapser()
	return ms
}

// tenantSpan is the width of one tenant's magazine partition.
func (ms *machine) tenantSpan() int {
	return (ms.cfg.CPUs + 1) * ms.cfg.MaxFamily
}

// admitTenant checks the name and claims a slot in one critical section,
// then builds the tenant's family and root space (see Host.Admit).
// limitFrames > 0 gives the tenant a memcg-style charge account: every
// frame it allocates is charged, and allocation fails with a
// tenant-local shortage — driving tenant-local reclaim, then per-tenant
// OOM — once the charge reaches the limit. limitFrames <= 0 admits an
// unlimited, unaccounted tenant (the single-tenant compat path, which
// must not pay a shared charge cache line per fault).
func (ms *machine) admitTenant(name string, limitFrames int64) (*AddressSpace, error) {
	ms.tenantsMu.Lock()
	if name == "" {
		name = fmt.Sprintf("tenant-%d", ms.nextID)
		ms.nextID++
	}
	slot := ms.tenantNext
	switch {
	case ms.tenants[name] != nil:
		ms.tenantsMu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q already admitted", ErrInvalid, name)
	case len(ms.tenantFree) > 0:
		slot = ms.tenantFree[len(ms.tenantFree)-1]
		ms.tenantFree = ms.tenantFree[:len(ms.tenantFree)-1]
	case slot < ms.maxTenants:
		ms.tenantNext++
	default:
		ms.tenantsMu.Unlock()
		return nil, fmt.Errorf("%w: machine exceeds %d live tenants", ErrNoMemory, ms.maxTenants)
	}
	fam := &family{
		ms:      ms,
		name:    name,
		limit:   limitFrames,
		tenant:  slot,
		cpuBase: slot * ms.tenantSpan(),
		max:     int32(ms.cfg.MaxFamily),
	}
	ms.tenants[name] = fam
	ms.tenantsMu.Unlock()

	if limitFrames > 0 {
		fam.acct = physmem.NewAccount(fmt.Sprintf("tenant-%d", slot), limitFrames)
		for cpu := fam.cpuBase; cpu < fam.cpuBase+ms.tenantSpan(); cpu++ {
			ms.alloc.BindAccount(cpu, fam.acct)
		}
		ms.rec.RegisterAccount(fam.acct)
	}
	as, err := newMember(ms.cfg, fam)
	if err != nil {
		ms.retireTenant(fam)
		return nil, err
	}
	ms.tenantsMu.Lock()
	fam.root = as
	ms.admitted++
	ms.tenantsMu.Unlock()
	return as, nil
}

// retireTenant tears the tenant down once its last member closed (or
// its admission unwound): the tenant's file caches are dropped and
// removed from the reclaim rotation, its account unbound, its slot
// recycled, and its final rollup folded into the machine's departed
// totals. When this was the machine's last tenant and no Host holds
// the machine open, the whole machine tears down.
func (ms *machine) retireTenant(fam *family) error {
	// Unbind the charge account before the slot becomes reusable: once
	// fam.tenant is on the free list, a concurrent admitTenant may bind
	// its fresh account to this exact CPU range, and unbinding after
	// that would silently strip the new tenant's accounting.
	if fam.acct != nil {
		ms.rec.UnregisterAccount(fam.acct)
		for cpu := fam.cpuBase; cpu < fam.cpuBase+ms.tenantSpan(); cpu++ {
			ms.alloc.BindAccount(cpu, nil)
		}
	}
	fam.dropCaches()
	ms.tenantsMu.Lock()
	delete(ms.tenants, fam.name)
	ms.tenantFree = append(ms.tenantFree, fam.tenant)
	if fam.root != nil {
		// Every member has left: the rollup is final.
		ms.retired++
		ms.departed.Add(fam.root.Rollup())
		if fam.acct != nil {
			ms.departedCross += fam.acct.Stats().EvictionsUnderLimit
		}
	}
	last := ms.lastLocked()
	ms.tenantsMu.Unlock()
	if last {
		return ms.teardown()
	}
	ms.dom.Synchronize()
	return nil
}

// lastLocked reports whether the machine has no tenant and no Host
// hold, and latches the teardown so it reports that once. tenantsMu is
// held.
func (ms *machine) lastLocked() bool {
	if len(ms.tenants) != 0 || ms.held || ms.tornDown {
		return false
	}
	ms.tornDown = true
	return true
}

// teardown stops the empty machine, run by whichever of the last
// tenant's retire and the Host's Close latched it: the collapse scanner
// and the background reclaimer stop first (a sweep or scan in flight
// would race the rest), then the RCU domain closes, and its closing
// flush runs the deferred frees the frame-leak check counts.
func (ms *machine) teardown() error {
	ms.stopCollapser()
	ms.rec.Close()
	ms.dom.Close()
	if n := ms.alloc.InUse(); n != 0 {
		return fmt.Errorf("vm: %d frames still allocated at machine teardown", n)
	}
	return nil
}

// families returns the machine's tenant families, admissions in flight
// included.
func (ms *machine) families() []*family {
	ms.tenantsMu.Lock()
	defer ms.tenantsMu.Unlock()
	return slices.Collect(maps.Values(ms.tenants))
}

// largestVictim picks the live member with the most mapped pages
// across every tenant, excluding the caller — the machine-wide
// fallback when the offending tenant has no reapable sibling.
func (ms *machine) largestVictim(except *AddressSpace) *AddressSpace {
	var victim *AddressSpace
	var most uint64
	for _, fam := range ms.families() {
		if v := fam.largestVictim(except); v != nil {
			if n := v.LivePages(); victim == nil || n > most {
				victim, most = v, n
			}
		}
	}
	return victim
}

// Host is the multi-tenant entry point: one simulated machine hosting
// up to maxTenants concurrent address-space families, each admitted
// under a unique name with its own memcg-style frame limit. It owns the
// machine's one tenant table — family construction, slot recycling,
// the departed statistics, and the teardown leak checks have one home;
// vm.New is a thin single-tenant wrapper over the same path.
// internal/machine sets tenant policy (eviction, the snapshot) on it.
type Host struct {
	ms *machine
}

// NewHost builds a machine for up to maxTenants tenants (<= 0 means
// DefaultMaxTenants). The Host holds the machine open across zero-
// tenant windows; Close it to tear the machine down.
func NewHost(cfg Config, maxTenants int) *Host {
	ms := newMachine(cfg.normalized(), maxTenants)
	ms.held = true
	return &Host{ms: ms}
}

// Admit creates a new tenant: a fresh address-space family whose every
// frame allocation is charged against limitFrames (<= 0 = unlimited,
// unaccounted). name must be unique among the live tenants ("" picks
// "tenant-N"). The returned space is the tenant's root; Fork and
// NewSibling grow the family within the tenant, and closing the last
// member retires the tenant and recycles its slot.
func (h *Host) Admit(name string, limitFrames int64) (*AddressSpace, error) {
	return h.ms.admitTenant(name, limitFrames)
}

// Tenants is one read of a Host's tenant table, taken in one critical
// section with retirement: a tenant is either listed live or folded
// into the departed totals, never both and never neither.
type Tenants struct {
	Live              []*AddressSpace // each live tenant's root, sorted by name
	Admitted, Retired uint64          // ever; len(Live) == Admitted - Retired
	// Departed is every retired tenant's final Rollup, DepartedCross
	// the sum of their accounts' EvictionsUnderLimit.
	Departed      *Rollup
	DepartedCross uint64
}

// Tenants reads the tenant table.
func (h *Host) Tenants() Tenants {
	ms := h.ms
	t := Tenants{Departed: new(Rollup)}
	ms.tenantsMu.Lock()
	for _, fam := range ms.tenants {
		if fam.root != nil {
			t.Live = append(t.Live, fam.root)
		}
	}
	t.Admitted, t.Retired, t.DepartedCross = ms.admitted, ms.retired, ms.departedCross
	t.Departed.Add(&ms.departed)
	ms.tenantsMu.Unlock()
	slices.SortFunc(t.Live, func(a, b *AddressSpace) int { return strings.Compare(a.fam.name, b.fam.name) })
	return t
}

// Allocator returns the machine's shared frame allocator.
func (h *Host) Allocator() *physmem.Allocator { return h.ms.alloc }

// Domain returns the machine's RCU domain.
func (h *Host) Domain() *rcu.Domain { return h.ms.dom }

// Reclaimer exposes the machine's shared reclaimer (its counters and
// scan-latency histogram).
func (h *Host) Reclaimer() *reclaim.Reclaimer { return h.ms.rec }

// OOMKills returns the machine-wide count of OOM-killer reaps.
func (h *Host) OOMKills() uint64 { return h.ms.oomKills.Load() }

// SetOOMKiller installs the machine's killer of last resort (see
// AddressSpace.SetOOMKiller; the killer is machine-wide either way).
func (h *Host) SetOOMKiller(kill func(victim *AddressSpace) bool) {
	h.ms.oomMu.Lock()
	h.ms.oomKiller = kill
	h.ms.oomMu.Unlock()
}

// DrainAccount evicts every page-cache page still charged to ac —
// pages a departed tenant filled that other tenants' PTEs may keep
// resident; revoking them forces the survivors to refault and re-fill
// under their own charge — and returns the charge left afterwards.
// Zero is the clean-teardown verdict the tenant-eviction leak audit
// gates on; a non-zero residue means frames charged to ac are pinned
// outside the page caches (a member still open, or a leak).
func (h *Host) DrainAccount(ac *physmem.Account) int64 {
	if ac == nil {
		return 0
	}
	for ac.Charged() > 0 {
		if h.ms.rec.ReclaimAccount(ac, 0) == 0 {
			break
		}
	}
	// The drain scans recreated clock hands for ac in every cache they
	// touched; ac is departed, so drop them again.
	h.ms.rec.ForgetAccount(ac)
	h.ms.dom.Synchronize()
	return ac.Charged()
}

// Close tears the machine down. Every tenant must already be retired
// (all members closed); the frame-leak check's error is returned. The
// hold, the live-tenant check, and the teardown latch are read and
// written in one tenantsMu critical section so a racing retireTenant
// of the last tenant cannot also decide to tear down.
func (h *Host) Close() error {
	ms := h.ms
	ms.tenantsMu.Lock()
	if live := len(ms.tenants); live != 0 && ms.held {
		ms.tenantsMu.Unlock()
		return fmt.Errorf("%w: Host.Close with %d live tenants", ErrInvalid, live)
	}
	ms.held = false
	last := ms.lastLocked()
	ms.tenantsMu.Unlock()
	if last {
		return ms.teardown()
	}
	return nil
}
