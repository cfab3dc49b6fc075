package vm

import (
	"fmt"
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
// driver, and the OOM killer of last resort. vm.New builds a
// single-tenant machine (the compat path every existing test rides);
// Host exposes the multi-tenant surface internal/machine wraps.
type machine struct {
	cfg        Config // normalized; geometry shared by every tenant
	maxTenants int

	alloc *physmem.Allocator
	dom   *rcu.Domain
	reg   *pagecache.Registry
	tlb   *tlb.Domain
	rec   *reclaim.Reclaimer

	// tenantsMu guards the tenant-slot free list, the live-tenant set,
	// the Host hold count, and the teardown latch. Tenant slots
	// partition the allocator's magazines exactly like member slots
	// partition a tenant's share; they recycle the same way, so
	// admission churn cannot exhaust the table.
	tenantsMu  sync.Mutex
	tenantFree []int
	tenantNext int
	tenants    map[*family]struct{}
	// held counts Host handles keeping the machine open across windows
	// with zero live tenants (arrival/departure churn). When it is zero
	// — the vm.New path — the machine tears down with its last tenant.
	held int
	// tornDown latches the one teardown: the last tenant's retire and
	// the last Host's Close race to observe "no tenants, no holds", and
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
		tenants:    make(map[*family]struct{}),
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

// admitTenant claims a tenant slot and builds the tenant's family with
// its root address space. limitFrames > 0 gives the tenant a memcg-
// style charge account: every frame it allocates (fault fills, COW
// copies, page tables, cache fills) is charged, and allocation fails
// with a tenant-local shortage — driving tenant-local reclaim, then
// per-tenant OOM — once the charge reaches the limit. limitFrames <= 0
// admits an unlimited, unaccounted tenant (the single-tenant compat
// path, which must not pay a shared charge cache line per fault).
func (ms *machine) admitTenant(limitFrames int64) (*AddressSpace, error) {
	ms.tenantsMu.Lock()
	var slot int
	switch {
	case len(ms.tenantFree) > 0:
		slot = ms.tenantFree[len(ms.tenantFree)-1]
		ms.tenantFree = ms.tenantFree[:len(ms.tenantFree)-1]
	case ms.tenantNext < ms.maxTenants:
		slot = ms.tenantNext
		ms.tenantNext++
	default:
		ms.tenantsMu.Unlock()
		return nil, fmt.Errorf("%w: machine exceeds %d live tenants", ErrNoMemory, ms.maxTenants)
	}
	ms.tenantsMu.Unlock()

	fam := &family{
		ms:      ms,
		tenant:  slot,
		cpuBase: slot * ms.tenantSpan(),
		max:     int32(ms.cfg.MaxFamily),
	}
	if limitFrames > 0 {
		fam.acct = physmem.NewAccount(fmt.Sprintf("tenant-%d", slot), limitFrames)
		for cpu := fam.cpuBase; cpu < fam.cpuBase+ms.tenantSpan(); cpu++ {
			ms.alloc.BindAccount(cpu, fam.acct)
		}
		ms.rec.RegisterAccount(fam.acct)
	}
	ms.tenantsMu.Lock()
	ms.tenants[fam] = struct{}{}
	ms.tenantsMu.Unlock()

	as, err := newMember(ms.cfg, fam)
	if err != nil {
		ms.retireTenant(fam)
		return nil, err
	}
	return as, nil
}

// retireTenant tears the tenant down once its last member closed (or
// its admission unwound): the tenant's file caches are dropped and
// removed from the reclaim rotation, its account unbound, and its slot
// recycled. When this was the machine's last tenant and no Host holds
// the machine open, the whole machine tears down — background
// reclaimer stopped, RCU domain closed — and the frame-leak check
// runs.
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
	ms.tenantsMu.Lock()
	delete(ms.tenants, fam)
	ms.tenantFree = append(ms.tenantFree, fam.tenant)
	last := len(ms.tenants) == 0 && ms.held == 0 && !ms.tornDown
	if last {
		ms.tornDown = true
	}
	ms.tenantsMu.Unlock()
	if last {
		// Stop the collapse scanner and the background reclaimer first
		// (a sweep or scan in flight would race the teardown), then
		// release the page caches' frame references; the deferred frees
		// drain in the domain's closing flush, so the leak check below
		// sees them.
		ms.stopCollapser()
		ms.rec.Close()
		fam.dropCaches()
		ms.dom.Close()
		if n := ms.alloc.InUse(); n != 0 {
			return fmt.Errorf("vm: %d frames still allocated after the last family member closed", n)
		}
		return nil
	}
	fam.dropCaches()
	ms.dom.Flush()
	return nil
}

// largestVictim picks the live member with the most mapped pages
// across every tenant, excluding the caller — the machine-wide
// fallback when the offending tenant has no reapable sibling.
func (ms *machine) largestVictim(except *AddressSpace) *AddressSpace {
	ms.tenantsMu.Lock()
	fams := make([]*family, 0, len(ms.tenants))
	for fam := range ms.tenants {
		fams = append(fams, fam)
	}
	ms.tenantsMu.Unlock()
	var victim *AddressSpace
	var most uint64
	for _, fam := range fams {
		if v := fam.largestVictim(except); v != nil {
			if n := v.LivePages(); victim == nil || n > most {
				victim, most = v, n
			}
		}
	}
	return victim
}

// teardown closes an empty machine (no live tenants): Host.Close's
// half of the last-member teardown in retireTenant.
func (ms *machine) teardown() error {
	ms.stopCollapser()
	ms.rec.Close()
	ms.dom.Close()
	if n := ms.alloc.InUse(); n != 0 {
		return fmt.Errorf("vm: %d frames still allocated at machine teardown", n)
	}
	return nil
}

// Host is the multi-tenant entry point: one simulated machine hosting
// up to maxTenants concurrent address-space families, each admitted
// with its own memcg-style frame limit. It is the single owner of
// family construction — vm.New is a thin single-tenant wrapper over
// the same path — so slot recycling, the file registries, and the
// teardown leak checks have one home. internal/machine wraps Host
// with tenant lifecycle and stats rollup.
type Host struct {
	ms *machine
}

// NewHost builds a machine for up to maxTenants tenants (<= 0 means
// DefaultMaxTenants). The Host holds the machine open across zero-
// tenant windows; Close it to tear the machine down.
func NewHost(cfg Config, maxTenants int) *Host {
	ms := newMachine(cfg.normalized(), maxTenants)
	ms.held = 1
	return &Host{ms: ms}
}

// Admit creates a new tenant: a fresh address-space family whose every
// frame allocation is charged against limitFrames (<= 0 = unlimited,
// unaccounted). The returned space is the tenant's root; Fork and
// NewSibling grow the family within the tenant, and closing the last
// member retires the tenant and recycles its slot.
func (h *Host) Admit(limitFrames int64) (*AddressSpace, error) {
	return h.ms.admitTenant(limitFrames)
}

// Allocator returns the machine's shared frame allocator.
func (h *Host) Allocator() *physmem.Allocator { return h.ms.alloc }

// Domain returns the machine's RCU domain.
func (h *Host) Domain() *rcu.Domain { return h.ms.dom }

// ReclaimStats returns the machine's reclaim counters.
func (h *Host) ReclaimStats() reclaim.Stats { return h.ms.rec.Stats() }

// Reclaimer exposes the machine's shared reclaimer (for latency-
// histogram rollups).
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
	h.ms.dom.Flush()
	return ac.Charged()
}

// Close tears the machine down. Every tenant must already be retired
// (all members closed); the frame-leak check's error is returned. The
// hold count, the live-tenant check, and the teardown latch are read
// and written in one tenantsMu critical section so a racing
// retireTenant of the last tenant cannot also decide to tear down.
func (h *Host) Close() error {
	ms := h.ms
	ms.tenantsMu.Lock()
	ms.held--
	if ms.held != 0 {
		ms.tenantsMu.Unlock()
		return nil
	}
	if live := len(ms.tenants); live != 0 {
		ms.held++
		ms.tenantsMu.Unlock()
		return fmt.Errorf("%w: Host.Close with %d live tenants", ErrInvalid, live)
	}
	if ms.tornDown {
		ms.tenantsMu.Unlock()
		return nil
	}
	ms.tornDown = true
	ms.tenantsMu.Unlock()
	return ms.teardown()
}
