package vm

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"bonsai/internal/pagecache"
	"bonsai/internal/pagetable"
	"bonsai/internal/physmem"
	"bonsai/internal/rcu"
	"bonsai/internal/trace"
	"bonsai/internal/vma"
)

// Design selects one of the four concurrency designs of §5.
type Design int

// The four designs, in the paper's order of increasing concurrency.
const (
	RWLock Design = iota
	FaultLock
	Hybrid
	PureRCU
)

// Designs lists all four designs in presentation order.
var Designs = []Design{RWLock, FaultLock, Hybrid, PureRCU}

func (d Design) String() string {
	switch d {
	case RWLock:
		return "Read/write locking"
	case FaultLock:
		return "Fault locking"
	case Hybrid:
		return "Hybrid locking/RCU"
	case PureRCU:
		return "Pure RCU"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// designKeys are the designs' short lower-case names, the spellings
// command lines accept.
var designKeys = [...]string{RWLock: "rwlock", FaultLock: "faultlock", Hybrid: "hybrid", PureRCU: "purercu"}

// ParseDesign returns the design a short name denotes (rwlock,
// faultlock, hybrid, purercu), ignoring case and surrounding space.
func ParseDesign(name string) (Design, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for d, k := range designKeys {
		if k == key {
			return Design(d), nil
		}
	}
	return 0, fmt.Errorf("vm: unknown design %q (want %s)", name, strings.Join(designKeys[:], ", "))
}

// UsesRCU reports whether the design's fault path relies on RCU.
func (d Design) UsesRCU() bool { return d == Hybrid || d == PureRCU }

// Address-space geometry.
const (
	// PageSize re-exports the page size for callers.
	PageSize = pagetable.PageSize
	// MaxAddress is one past the highest mappable address.
	MaxAddress = pagetable.MaxAddress
	// UnmappedBase is where non-fixed mappings are placed by default.
	UnmappedBase = uint64(1) << 32
)

// Errors returned by address-space operations.
var (
	// ErrSegv is returned by Fault when no VMA maps the address.
	ErrSegv = errors.New("vm: segmentation fault")
	// ErrAccess is returned by Fault on a protection violation.
	ErrAccess = errors.New("vm: access violates mapping protection")
	// ErrNoMemory is returned when physical frames or address space run out.
	ErrNoMemory = errors.New("vm: out of memory")
	// ErrInvalid is returned for malformed arguments.
	ErrInvalid = errors.New("vm: invalid argument")

	// ErrFrameShortage is the typed, retryable form of a physical-frame
	// allocation failure inside a fault or fork. The failing operation
	// unwinds completely first — no half-installed PTEs, every lock
	// released — so the caller (retryShortage) can run direct reclaim
	// and try again. It reaches API callers only wrapped in
	// ErrNoMemory, once the retry budget and the OOM killer are spent;
	// errors.Is(err, ErrNoMemory) therefore still identifies every
	// out-of-memory outcome.
	ErrFrameShortage = errors.New("vm: transient frame shortage")

	// ErrTenantShortage is the tenant-limit analogue of
	// ErrFrameShortage: the pool has frames, but the operating tenant's
	// charge account is at its limit. The retry ladder answers it with
	// tenant-local reclaim (evicting only this tenant's pages) and, at
	// the end, per-tenant OOM — never with a global scan, which would
	// make a thrashing tenant's limit its neighbors' problem. Like
	// ErrFrameShortage it escapes API callers only wrapped in
	// ErrNoMemory.
	ErrTenantShortage = errors.New("vm: transient tenant frame-limit shortage")
)

// oomError types an allocation failure: frame-pool exhaustion becomes
// the retryable ErrFrameShortage (the raw physmem error never escapes
// mid-operation), a refused tenant charge the retryable
// ErrTenantShortage, a page-cache I/O error propagates as itself (it
// is not a memory condition — retrying with reclaim cannot cure a
// failing disk), anything else the terminal ErrNoMemory.
func oomError(err error) error {
	if errors.Is(err, physmem.ErrOutOfMemory) {
		return ErrFrameShortage
	}
	if errors.Is(err, physmem.ErrOverLimit) {
		return ErrTenantShortage
	}
	if errors.Is(err, pagecache.ErrIO) {
		return err
	}
	return ErrNoMemory
}

// Config configures an AddressSpace.
type Config struct {
	// Design selects the concurrency design. The zero value is RWLock
	// (stock Linux). RWLock and FaultLock serialize mapping operations
	// on mmap_sem; Hybrid and PureRCU range-lock them, so operations on
	// disjoint ranges run concurrently.
	Design Design
	// CPUs is the number of fault contexts that will be created with
	// NewCPU. Zero means 1.
	CPUs int
	// Frames is the physical memory size in 4 KiB frames. Zero means
	// physmem.DefaultFrames.
	Frames uint64
	// Backing gives pages real data buffers (required by ReadBytes and
	// WriteBytes).
	Backing bool
	// MaxFamily is the maximum number of address spaces (the original
	// plus forked children) that may be alive at once; they share one
	// physical allocator, whose per-CPU magazines are partitioned among
	// them. Zero means DefaultMaxFamily.
	MaxFamily int

	// tune holds the runtime's batch sizes and watermarks; only this
	// package's tests set it.
	tune tuning
}

// tuning is the runtime's internal batching and reclaim pacing. Zero
// fields take the defaults normalized fills in.
type tuning struct {
	// rcuBatch is the rcu.Domain batch size: zero means the default,
	// negative leaves grace periods to explicit flushes.
	rcuBatch int
	// lowWater and highWater are the reclaim watermarks in frames: below
	// lowWater free frames the background reclaimer wakes and evicts
	// page-cache pages until free frames exceed highWater. An allocation
	// that fails outright always triggers direct reclaim, watermarks or
	// not. Zero means Frames/16 and Frames/8.
	lowWater, highWater uint64
	// reclaimBatch bounds the eviction candidates per reclaim scan pass.
	// Zero means the reclaim package default (64).
	reclaimBatch int
}

// DefaultMaxFamily supports an original address space plus seven
// concurrently live forks.
const DefaultMaxFamily = 8

// maxStackGrowth allows stacks to grow up to 8 MB below their current
// start, mirroring a typical RLIMIT_STACK.
const maxStackGrowth = 8 << 20

// AddressSpace is a shared address space: a set of VMAs in a region
// tree plus a four-level page-table tree (Figure 1). Mmap and Munmap
// may be called from any goroutine; Fault requires a CPU context.
type AddressSpace struct {
	cfg Config

	// sy is the synchronization policy: the whole lock set above the
	// page tables and every rule about it (sync.go). idx is the region
	// tree the policy built.
	sy syncPolicy

	idx    *regionIndex
	tables *pagetable.Tables
	alloc  *physmem.Allocator
	dom    *rcu.Domain

	// fam is shared with forked relatives: one frame pool, one RCU
	// domain, and the liveness count used for leak checking at the
	// last Close.
	fam    *family
	member int // index into the family's magazine partition

	mmapCache atomic.Pointer[vma.VMA] // kept only if sy.keepsMmapCache

	mapCPU int // allocator magazine reserved for mapping operations

	// readers are the RCU readers of the space's fault contexts, which
	// Close unregisters: every grace period walks the registered ones.
	readersMu sync.Mutex
	readers   []*rcu.Reader

	stats statsCounters
}

// family is one tenant: the state shared between an address space and
// its forks and siblings — the tenant's name and limit, the member slots
// partitioning the tenant's share of the machine's magazines, the
// files any member has mapped (each with its machine-wide page cache),
// the tenant's memcg-style charge account, and the liveness
// count that retires the tenant at the last Close. The machine-wide
// resources and the tenant table live on ms, the tenant's Host.
type family struct {
	ms *Host

	// name is unique among the machine's live tenants; limit is the
	// frame limit the tenant was admitted under (<= 0 = unlimited).
	name  string
	limit int64
	// root is the tenant's first member, set under ms.tenantsMu once it
	// is built: until then the admission is in flight and unlisted.
	root *AddressSpace

	// acct is the tenant's charge account (nil = unlimited and
	// unaccounted, the single-tenant compat path): every frame any
	// member allocates is charged against it, and the fault/fork retry
	// ladder answers its limit with tenant-local reclaim.
	acct *physmem.Account

	// tenant is the machine tenant slot; cpuBase is where the tenant's
	// magazine partition starts in the machine allocator.
	tenant  int
	cpuBase int
	max     int32

	// oomKills counts OOM reaps whose victim was picked from this
	// tenant (the machine-wide total lives on ms).
	oomKills atomic.Uint64
	// evicted is the run-once guard of the tenant's eviction (Host.Evict).
	evicted atomic.Bool

	// membersMu guards the member-index slots that partition the
	// tenant's magazines. A slot returns to the free list when its
	// address space is fully closed (or a fork attempt unwinds), so
	// retried forks and churning siblings cannot exhaust MaxFamily.
	// It also guards members, the live address spaces in the order they
	// joined (the OOM killer's and Members' list), and departed, the
	// statistics of every member that has left it: a member moves from
	// one to the other in one critical section.
	// live counts spaces holding a slot; the one that takes it to zero
	// retires the family, which then refuses new members for good.
	membersMu sync.Mutex
	freeSlots []int
	nextSlot  int
	members   []*AddressSpace
	departed  Rollup
	live      int
	retired   bool

	// files lists each file any member has mapped, once (guarded by
	// ms.filesMu): the family is one of the file's users until it
	// retires.
	files []*vma.File
}

// CPU is a per-worker fault context: its RCU reader registration and
// its allocator magazine. Each CPU must be used by one goroutine at a
// time, like a kernel CPU context.
type CPU struct {
	// Every fault writes the sampling state and pathFlags below; the
	// pads keep them off the lines of the next context allocated, which
	// without them may share a line with this one.
	_  [cacheLine]byte
	as *AddressSpace
	// id is the machine-wide allocator magazine index; it also picks the
	// CPU's cells in every per-CPU counter on the fault path (one space's
	// ids are contiguous, all stats.PerCPU needs to keep them apart).
	id int
	st *statRow // as.stats' row for id
	rd *rcu.Reader

	// sampleDue's state: faults until the next timed one, and its gap
	// generator. Per CPU value, so two CPUs on one id sample independently.
	untilSample int
	rng         uint64

	// pathFlags accumulates trace.Fault* path bits across one Fault
	// call (single-goroutine ownership makes a plain field safe); the
	// exit event reports them.
	pathFlags uint64
	_         [cacheLine]byte
}

// cacheLine is the coherence granule CPU contexts are padded to.
const cacheLine = 64

// normalized fills the Config's defaults.
func (cfg Config) normalized() Config {
	if cfg.CPUs <= 0 {
		cfg.CPUs = 1
	}
	if cfg.MaxFamily <= 0 {
		cfg.MaxFamily = DefaultMaxFamily
	}
	frames := cfg.Frames
	if frames == 0 {
		frames = physmem.DefaultFrames
	}
	if cfg.tune.lowWater == 0 {
		cfg.tune.lowWater = frames / 16
	}
	if cfg.tune.highWater <= cfg.tune.lowWater {
		cfg.tune.highWater = 2 * cfg.tune.lowWater
	}
	return cfg
}

// New creates an empty address space on a fresh single-tenant machine
// — the compat wrapper over the machine/tenant path Host owns. The
// machine tears down (and leak-checks) when the last family member
// closes.
func New(cfg Config) (*AddressSpace, error) {
	h := newHost(cfg.normalized(), 1)
	as, err := h.Admit("", 0)
	if err != nil {
		// Admit already retired the tenant, which — with no hold on
		// the machine — tore the machine down too.
		if errors.Is(err, ErrFrameShortage) {
			// A brand-new machine has no caches to reclaim from: the
			// pool simply cannot hold the page-table root. Terminal.
			err = fmt.Errorf("%w: frame pool cannot hold the initial page tables", ErrNoMemory)
		}
		return nil, err
	}
	return as, nil
}

// claimMember takes a free member slot and counts the joining space
// live. It refuses a retired family (ErrInvalid: its slot may already
// belong to another tenant) and MaxFamily exhaustion (terminal, not a
// frame shortage: retrying cannot help until a member closes).
func (fam *family) claimMember() (int, error) {
	fam.membersMu.Lock()
	defer fam.membersMu.Unlock()
	if fam.retired {
		return 0, fmt.Errorf("%w: tenant %q has retired", ErrInvalid, fam.name)
	}
	m := fam.nextSlot
	if n := len(fam.freeSlots); n > 0 {
		m = fam.freeSlots[n-1]
		fam.freeSlots = fam.freeSlots[:n-1]
	} else if m < int(fam.max) {
		fam.nextSlot++
	} else {
		return 0, fmt.Errorf("%w: family exceeds MaxFamily=%d live members", ErrNoMemory, fam.max)
	}
	fam.live++
	return m, nil
}

// releaseMember returns a slot once its space can no longer touch its
// magazine partition (fully closed, or an unwound fork attempt).
func (fam *family) releaseMember(m int) {
	fam.membersMu.Lock()
	fam.freeSlots = append(fam.freeSlots, m)
	fam.membersMu.Unlock()
}

// depart drops a space from the live-member set (closing, or an unwound
// fork attempt) so the OOM killer can no longer pick it, and folds its
// statistics into the family's departed rollup in the same critical
// section, so Rollup sees every member exactly once. The space has
// recorded its last sample. It reports whether the space was the
// family's last member: the caller then retires the tenant.
func (fam *family) depart(as *AddressSpace) bool {
	fam.membersMu.Lock()
	defer fam.membersMu.Unlock()
	fam.members = slices.DeleteFunc(fam.members, func(m *AddressSpace) bool { return m == as })
	fam.departed.addMember(as)
	fam.live--
	fam.retired = fam.live == 0
	return fam.retired
}

// liveMembers returns the live members in the order they joined.
func (fam *family) liveMembers() []*AddressSpace {
	fam.membersMu.Lock()
	defer fam.membersMu.Unlock()
	return slices.Clone(fam.members)
}

// Members returns the live address spaces of this space's family — the
// tenant — in the order they joined: the tenant's first space, then its
// siblings and fork children.
func (as *AddressSpace) Members() []*AddressSpace { return as.fam.liveMembers() }

// LivePages returns the number of pages currently mapped in this
// address space — the OOM victim-selection badness score.
func (as *AddressSpace) LivePages() uint64 {
	c := as.counts()
	return c.PagesMapped - c.PagesUnmapped
}

// largestVictim picks the live member with the most mapped pages,
// excluding the caller (an operation never reaps its own address
// space out from under itself).
func (fam *family) largestVictim(except *AddressSpace) *AddressSpace {
	fam.membersMu.Lock()
	defer fam.membersMu.Unlock()
	var victim *AddressSpace
	var most uint64
	for _, m := range fam.members {
		if m == except {
			continue
		}
		if n := m.LivePages(); victim == nil || n > most {
			victim, most = m, n
		}
	}
	return victim
}

// oomKill runs the killer of last resort on behalf of an operation
// whose retry budget is exhausted, reporting whether it freed memory
// worth one more retry. Serialized on the machine's oomMu so
// concurrent exhausted operations reap one victim, not one each; a
// kill is followed by a domain flush so the reaped space's deferred
// frame frees are allocatable before the caller retries.
//
// Victim selection is tenant-first: the offending operation's own
// tenant is searched for its largest member before the machine-wide
// fallback. tenantOnly confines the search to the tenant entirely —
// the tenant-limit OOM, where an out-of-tenant kill would free pool
// frames but no charge.
func (as *AddressSpace) oomKill(tenantOnly bool) bool {
	fam, ms := as.fam, as.fam.ms
	ms.oomMu.Lock()
	defer ms.oomMu.Unlock()
	if ms.oomKiller == nil {
		return false
	}
	victim := fam.largestVictim(as)
	victimFam := fam
	if victim == nil {
		if tenantOnly {
			return false
		}
		victim = ms.largestVictim(as)
		if victim == nil {
			return false
		}
		victimFam = victim.fam
	}
	if !ms.oomKiller(victim) {
		return false
	}
	ms.oomKills.Add(1)
	victimFam.oomKills.Add(1)
	var tb, vtag uint64
	if tenantOnly {
		tb = 1
	}
	if victimFam.acct != nil {
		vtag = victimFam.acct.Tag()
	}
	trace.Emit(trace.AuxCPU, trace.EvOOMKill, trace.OomKillVictim, tb, vtag)
	ms.dom.Synchronize()
	return true
}

// newMember builds an address space inside a family (either the
// original via New, a child via Fork, or a sibling process).
func newMember(cfg Config, fam *family) (*AddressSpace, error) {
	member, err := fam.claimMember()
	if err != nil {
		return nil, err
	}
	as := &AddressSpace{
		cfg:    cfg,
		fam:    fam,
		member: member,
		alloc:  fam.ms.alloc,
		dom:    fam.ms.dom,
	}
	as.mapCPU = as.physCPU(cfg.CPUs)
	as.stats.init(cfg.CPUs)
	as.tables, err = pagetable.New(as.alloc, as.dom, as.mapCPU, pagetable.Config{
		CPUs: cfg.CPUs + 1, // the fault contexts plus mapCPU, contiguous from physCPU(0)
	})
	if err != nil {
		fam.depart(as) // a failed root empties its family: Admit retires it
		fam.releaseMember(member)
		return nil, oomError(err)
	}
	as.sy.init(cfg)
	as.idx = as.sy.idx
	fam.membersMu.Lock()
	fam.members = append(fam.members, as)
	fam.membersMu.Unlock()
	return as, nil
}

// physCPU maps a member-relative CPU id to the machine-wide allocator
// magazine index: the tenant's partition base, then the member's slice
// of it, so neither relatives nor neighbor tenants share a magazine.
func (as *AddressSpace) physCPU(id int) int {
	return as.fam.cpuBase + as.member*(as.cfg.CPUs+1) + id
}

// Design returns the configured concurrency design.
func (as *AddressSpace) Design() Design { return as.cfg.Design }

// Domain returns the address space's RCU domain.
func (as *AddressSpace) Domain() *rcu.Domain { return as.dom }

// Allocator returns the physical frame allocator (for inspection).
func (as *AddressSpace) Allocator() *physmem.Allocator { return as.alloc }

// Account returns the tenant's charge account, or nil when the tenant
// was admitted without a frame limit (every vm.New space).
func (as *AddressSpace) Account() *physmem.Account { return as.fam.acct }

// TenantName returns the name the space's tenant was admitted under
// ("tenant-0" for a vm.New space).
func (as *AddressSpace) TenantName() string { return as.fam.name }

// TenantLimit returns the tenant's admission frame limit (<= 0 =
// unlimited).
func (as *AddressSpace) TenantLimit() int64 { return as.fam.limit }

// Tables returns the page-table tree (for inspection).
func (as *AddressSpace) Tables() *pagetable.Tables { return as.tables }

// NewCPU returns the fault context for the given CPU id, which must be
// in [0, Config.CPUs).
func (as *AddressSpace) NewCPU(id int) *CPU {
	if id < 0 || id >= as.cfg.CPUs {
		panic(fmt.Sprintf("vm: CPU id %d out of range [0,%d)", id, as.cfg.CPUs))
	}
	phys := as.physCPU(id)
	rd := as.dom.Register()
	as.readersMu.Lock()
	as.readers = append(as.readers, rd)
	as.readersMu.Unlock()
	return &CPU{as: as, id: phys, st: as.stats.cpu.At(phys), rd: rd,
		rng: uint64(id+1) * 0x9E3779B97F4A7C15}
}

// Close tears down the address space: it unmaps everything,
// unregisters its fault contexts' RCU readers, frees its page-table
// root, and flushes the RCU domain (the one place the mapping side
// blocks on a grace period). Once its own unmap has ended — its last
// recorded sample — and before its page tables go, the space leaves the
// family's member set and its statistics join the family's Rollup. When
// the last family member closes, the tenant retires — its caches drop,
// its account unbinds, its slot recycles — and, if no Host holds the
// machine open, the whole machine tears down and the frame-leak check's
// error is returned. No operation on this address space may be in
// flight, and its fault contexts must not be used again.
func (as *AddressSpace) Close() error {
	op := as.beginOp()
	mg := as.sy.lockAll(op)
	mg.mutate()
	as.munmapLocked(op, 0, MaxAddress)
	mg.unlock()
	op.end()
	as.readersMu.Lock()
	for _, rd := range as.readers {
		as.dom.Unregister(rd)
	}
	as.readers = nil
	as.readersMu.Unlock()
	last := as.fam.depart(as)
	as.tables.ReleaseRoot(as.mapCPU)
	var err error
	if last {
		err = as.fam.ms.retireTenant(as.fam)
	} else {
		as.dom.Synchronize()
	}
	as.fam.releaseMember(as.member)
	return err
}

// pageDown rounds addr down to a page boundary.
func pageDown(addr uint64) uint64 { return addr &^ (PageSize - 1) }

// pageUp rounds addr up to a page boundary.
func pageUp(addr uint64) uint64 { return (addr + PageSize - 1) &^ (PageSize - 1) }

// pageRange checks a mapping operation's range — addr page-aligned,
// length nonzero, [addr, addr+length) inside the address space — and
// returns its length in whole pages. A length above MaxAddress fails
// before rounding, which would wrap one within a page of 2^64 to zero.
func pageRange(addr, length uint64) (uint64, bool) {
	if addr%PageSize != 0 || length == 0 || length > MaxAddress {
		return 0, false
	}
	length = pageUp(length)
	return length, addr < MaxAddress && length <= MaxAddress-addr
}
