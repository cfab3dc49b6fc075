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
	"bonsai/internal/vma"
)

// DefaultMaxTenants is the tenant-slot count of a Host built with
// maxTenants <= 0.
const DefaultMaxTenants = 8

// Host is one simulated machine and the state it shares across every
// tenant family it hosts: one frame pool, one RCU domain, one TLB
// shootdown-gather domain, one frame-to-page registry, one reclaim
// driver, the OOM killer of last resort, and the machine's one tenant
// table. Each tenant is admitted under a unique name with its own
// memcg-style frame limit and is named by its root address space:
// family construction, slot recycling, eviction, the departed
// statistics and the teardown leak checks have one home. NewHost
// builds a multi-tenant machine; vm.New is a thin single-tenant
// wrapper over the same path, and internal/introspect reads the
// tenant table into its snapshot. All methods are safe for concurrent
// use.
type Host struct {
	cfg        Config // normalized; geometry shared by every tenant
	maxTenants int

	alloc *physmem.Allocator
	dom   *rcu.Domain
	reg   *pagecache.Registry
	tlb   *tlb.Domain
	rec   *reclaim.Reclaimer

	// tenantsMu guards the tenant table: the slot free list, the live
	// families by name, the admission and retirement counts, the
	// departed rollup, the hold and the teardown latch. Tenant slots
	// partition the allocator's magazines exactly like member slots
	// partition a tenant's share; they recycle the same way, so
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
	// held keeps a NewHost machine open across windows with zero live
	// tenants, until Close; on the vm.New path it is never set, and the
	// machine tears down with its last tenant.
	held bool
	// tornDown latches the one teardown: the last tenant's retire and
	// Close race to observe "no tenants, no hold", and exactly one of
	// them may stop the reclaimer and close the domain.
	tornDown bool

	// filesMu guards the file registry: fileUsers counts, per file with
	// a page cache on this machine, the live families that map it, and
	// every family's files list is written and read under it too. A
	// cache leaves the eviction rotation and is dropped when its count
	// reaches zero. The lock is taken on a family's first mapping of a
	// file, on stats snapshots and audits, and at a tenant's retirement
	// — never on the fault path, which reaches the cache through the
	// handle the file itself carries.
	filesMu   sync.Mutex
	fileUsers map[*vma.File]int

	// oomMu serializes killer-of-last-resort invocations machine-wide:
	// one exhausted operation reaps at a time, and the ones queued
	// behind it re-run their allocation against whatever the kill freed
	// before picking another victim. oomKiller is written under it too.
	oomMu     sync.Mutex
	oomKiller func(victim *AddressSpace) bool
	oomKills  atomic.Uint64
}

// newHost builds the shared machine state for up to maxTenants
// concurrent tenant families. cfg must already be normalized.
func newHost(cfg Config, maxTenants int) *Host {
	if maxTenants <= 0 {
		maxTenants = DefaultMaxTenants
	}
	h := &Host{
		cfg:        cfg,
		maxTenants: maxTenants,
		tenants:    make(map[string]*family),
		fileUsers:  make(map[*vma.File]int),
	}
	h.alloc = physmem.New(physmem.Config{
		Frames: cfg.Frames,
		// Every (tenant, member) pair gets a private partition of
		// magazines: its fault CPUs plus one mapping-operation magazine.
		CPUs:      (cfg.CPUs + 1) * cfg.MaxFamily * maxTenants,
		Backing:   cfg.Backing,
		LowWater:  cfg.tune.lowWater,
		HighWater: cfg.tune.highWater,
	})
	h.dom = rcu.NewDomain(rcu.Options{BatchSize: cfg.tune.rcuBatch})
	h.reg = pagecache.NewRegistry(h.alloc.NumFrames())
	h.tlb = tlb.NewDomain(h.alloc, h.dom, tlb.CostModel{})
	h.rec = reclaim.New(h.alloc, h.dom, reclaim.Config{
		BatchPages: cfg.tune.reclaimBatch,
		TLB:        h.tlb,
	})
	return h
}

// tenantSpan is the width of one tenant's magazine partition.
func (h *Host) tenantSpan() int {
	return (h.cfg.CPUs + 1) * h.cfg.MaxFamily
}

// Admit creates a new tenant: a fresh address-space family whose every
// frame allocation is charged against limitFrames. name must be unique
// among the live tenants ("" picks "tenant-N"); the name check and the
// slot claim are one critical section. The returned space is the
// tenant's root; Fork and NewSibling grow the family within the tenant,
// and closing the last member retires the tenant and recycles its slot.
// limitFrames > 0 gives the tenant a memcg-style charge account: every
// frame it allocates is charged, and allocation fails with a
// tenant-local shortage — driving tenant-local reclaim, then per-tenant
// OOM — once the charge reaches the limit. limitFrames <= 0 admits an
// unlimited, unaccounted tenant (the single-tenant compat path, which
// must not pay a shared charge cache line per fault).
func (h *Host) Admit(name string, limitFrames int64) (*AddressSpace, error) {
	h.tenantsMu.Lock()
	if name == "" {
		name = fmt.Sprintf("tenant-%d", h.nextID)
		h.nextID++
	}
	slot := h.tenantNext
	switch {
	case h.tenants[name] != nil:
		h.tenantsMu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q already admitted", ErrInvalid, name)
	case len(h.tenantFree) > 0:
		slot = h.tenantFree[len(h.tenantFree)-1]
		h.tenantFree = h.tenantFree[:len(h.tenantFree)-1]
	case slot < h.maxTenants:
		h.tenantNext++
	default:
		h.tenantsMu.Unlock()
		return nil, fmt.Errorf("%w: machine exceeds %d live tenants", ErrNoMemory, h.maxTenants)
	}
	fam := &family{
		ms:      h,
		name:    name,
		limit:   limitFrames,
		tenant:  slot,
		cpuBase: slot * h.tenantSpan(),
		max:     int32(h.cfg.MaxFamily),
	}
	h.tenants[name] = fam
	h.tenantsMu.Unlock()

	if limitFrames > 0 {
		fam.acct = physmem.NewAccount(fmt.Sprintf("tenant-%d", slot), limitFrames)
		for cpu := fam.cpuBase; cpu < fam.cpuBase+h.tenantSpan(); cpu++ {
			h.alloc.BindAccount(cpu, fam.acct)
		}
		h.rec.RegisterAccount(fam.acct)
	}
	as, err := newMember(h.cfg, fam)
	if err != nil {
		h.retireTenant(fam)
		return nil, err
	}
	h.tenantsMu.Lock()
	fam.root = as
	h.admitted++
	h.tenantsMu.Unlock()
	return as, nil
}

// retireTenant tears the tenant down once its last member closed (or
// its admission unwound): it stops counting as a user of the files it
// mapped (dropping the caches no other live tenant maps), its account
// is unbound, its slot recycled, and its final rollup folded into the
// machine's departed totals. When this was the machine's last tenant and no NewHost hold
// keeps the machine open, the whole machine tears down.
func (h *Host) retireTenant(fam *family) error {
	// Unbind the charge account before the slot becomes reusable: once
	// fam.tenant is on the free list, a concurrent Admit may bind
	// its fresh account to this exact CPU range, and unbinding after
	// that would silently strip the new tenant's accounting.
	if fam.acct != nil {
		h.rec.UnregisterAccount(fam.acct)
		for cpu := fam.cpuBase; cpu < fam.cpuBase+h.tenantSpan(); cpu++ {
			h.alloc.BindAccount(cpu, nil)
		}
	}
	fam.dropCaches()
	h.tenantsMu.Lock()
	delete(h.tenants, fam.name)
	h.tenantFree = append(h.tenantFree, fam.tenant)
	if fam.root != nil {
		// Every member has left: the rollup is final.
		h.retired++
		h.departed.Add(fam.root.Rollup())
		if fam.acct != nil {
			h.departedCross += fam.acct.Stats().EvictionsUnderLimit
		}
	}
	last := h.lastLocked()
	h.tenantsMu.Unlock()
	if last {
		return h.teardown()
	}
	h.dom.Synchronize()
	return nil
}

// Evict departs root's tenant: every member still open closes
// (children and siblings before the root), which retires the tenant,
// residual page-cache pages still charged to the tenant — pages of
// shared files neighbor tenants keep resident — are evicted so the
// survivors refault them under their own charge, and the leak audit
// runs: a departed tenant must end at zero charged frames. No
// operation on the tenant's spaces may be in flight. A tenant is
// evicted once, through whichever of its members asks.
func (h *Host) Evict(root *AddressSpace) error {
	fam := root.fam
	if fam.ms != h {
		return fmt.Errorf("%w: tenant %q belongs to another host", ErrInvalid, fam.name)
	}
	if !fam.evicted.CompareAndSwap(false, true) {
		return fmt.Errorf("%w: tenant %q already evicted", ErrInvalid, fam.name)
	}
	// Drop the limit to one frame before any teardown eviction runs:
	// a departing tenant has no under-limit claim, so the pages the
	// drain evicts must not count toward the cross-tenant fairness
	// metric (NoteEviction samples OverLimit at eviction time).
	if fam.acct != nil {
		fam.acct.SetLimit(1)
	}
	var firstErr error
	// The root joined first, so it closes last.
	spaces := fam.liveMembers()
	for i := len(spaces) - 1; i >= 0; i-- {
		if err := spaces[i].Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("vm: tenant %q teardown: %w", fam.name, err)
		}
	}
	if residue := h.drainAccount(fam.acct); residue != 0 && firstErr == nil {
		firstErr = fmt.Errorf("vm: tenant %q leaked %d charged frames past eviction", fam.name, residue)
	}
	return firstErr
}

// drainAccount evicts every page-cache page still charged to ac —
// pages a departed tenant filled that other tenants' PTEs may keep
// resident; revoking them forces the survivors to refault and re-fill
// under their own charge — and returns the charge left afterwards.
// Zero is the clean-teardown verdict the tenant-eviction leak audit
// gates on; a non-zero residue means frames charged to ac are pinned
// outside the page caches (a member still open, or a leak).
func (h *Host) drainAccount(ac *physmem.Account) int64 {
	if ac == nil {
		return 0
	}
	for ac.Charged() > 0 {
		if h.rec.ReclaimAccount(ac) == 0 {
			break
		}
	}
	// The drain scans recreated clock hands for ac in every cache they
	// touched; ac is departed, so drop them again.
	h.rec.ForgetAccount(ac)
	return ac.Charged()
}

// lastLocked reports whether the machine has no tenant and no hold,
// and latches the teardown so it reports that once. tenantsMu is held.
func (h *Host) lastLocked() bool {
	if len(h.tenants) != 0 || h.held || h.tornDown {
		return false
	}
	h.tornDown = true
	return true
}

// teardown stops the empty machine, run by whichever of the last
// tenant's retire and the Host's Close latched it: the background
// reclaimer stops first (a scan in flight would race the rest), then
// the RCU domain closes, and its closing flush runs the deferred frees
// the frame-leak check counts.
func (h *Host) teardown() error {
	h.rec.Close()
	h.dom.Close()
	if n := h.alloc.InUse(); n != 0 {
		return fmt.Errorf("vm: %d frames still allocated at machine teardown", n)
	}
	return nil
}

// families returns the machine's tenant families, admissions in flight
// included.
func (h *Host) families() []*family {
	h.tenantsMu.Lock()
	defer h.tenantsMu.Unlock()
	return slices.Collect(maps.Values(h.tenants))
}

// largestVictim picks the live member with the most mapped pages
// across every tenant, excluding the caller — the machine-wide
// fallback when the offending tenant has no reapable sibling.
func (h *Host) largestVictim(except *AddressSpace) *AddressSpace {
	var victim *AddressSpace
	var most uint64
	for _, fam := range h.families() {
		if v := fam.largestVictim(except); v != nil {
			if n := v.LivePages(); victim == nil || n > most {
				victim, most = v, n
			}
		}
	}
	return victim
}

// NewHost builds a machine for up to maxTenants tenants (<= 0 means
// DefaultMaxTenants). The Host holds the machine open across zero-
// tenant windows; Close it to tear the machine down.
func NewHost(cfg Config, maxTenants int) *Host {
	h := newHost(cfg.normalized(), maxTenants)
	h.held = true
	return h
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
	t := Tenants{Departed: new(Rollup)}
	h.tenantsMu.Lock()
	for _, fam := range h.tenants {
		if fam.root != nil {
			t.Live = append(t.Live, fam.root)
		}
	}
	t.Admitted, t.Retired, t.DepartedCross = h.admitted, h.retired, h.departedCross
	t.Departed.Add(&h.departed)
	h.tenantsMu.Unlock()
	slices.SortFunc(t.Live, func(a, b *AddressSpace) int { return strings.Compare(a.fam.name, b.fam.name) })
	return t
}

// Allocator returns the machine's shared frame allocator.
func (h *Host) Allocator() *physmem.Allocator { return h.alloc }

// Domain returns the machine's RCU domain.
func (h *Host) Domain() *rcu.Domain { return h.dom }

// Reclaimer exposes the machine's shared reclaimer (its counters and
// scan-latency histogram).
func (h *Host) Reclaimer() *reclaim.Reclaimer { return h.rec }

// OOMKills returns the machine-wide count of OOM-killer reaps.
func (h *Host) OOMKills() uint64 { return h.oomKills.Load() }

// SetOOMKiller installs the machine's killer of last resort. When an
// operation's shortage outlasts its reclaim-and-retry budget, the VM
// picks the live member with the most mapped pages (excluding the
// caller) and hands it to kill, which must either release that
// space's memory — typically by Closing it, which requires that no
// operation on the victim is in flight, a guarantee only the
// embedding application can make — and return true, or decline with
// false. On true the failed operation retries once with a fresh
// budget; on false (or with no killer installed) it returns
// ErrNoMemory. The killer applies machine-wide: any member's
// exhausted operation may invoke it, and the victim is picked from
// the offending operation's own tenant first — only when that tenant
// has no reapable sibling does the search widen to the whole machine
// (pool exhaustion only: a tenant-limit OOM never reaps outside the
// tenant, because killing a neighbor cannot lower this tenant's
// charge).
func (h *Host) SetOOMKiller(kill func(victim *AddressSpace) bool) {
	h.oomMu.Lock()
	h.oomKiller = kill
	h.oomMu.Unlock()
}

// Close tears the machine down. Every tenant must already be retired
// (all members closed); the frame-leak check's error is returned. The
// hold, the live-tenant check, and the teardown latch are read and
// written in one tenantsMu critical section so a racing retireTenant
// of the last tenant cannot also decide to tear down.
func (h *Host) Close() error {
	h.tenantsMu.Lock()
	if live := len(h.tenants); live != 0 && h.held {
		h.tenantsMu.Unlock()
		return fmt.Errorf("%w: Host.Close with %d live tenants", ErrInvalid, live)
	}
	h.held = false
	last := h.lastLocked()
	h.tenantsMu.Unlock()
	if last {
		return h.teardown()
	}
	return nil
}
