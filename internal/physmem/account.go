package physmem

import (
	"errors"
	"sync/atomic"

	"bonsai/internal/trace"
)

// ErrOverLimit is returned by Alloc when the CPU's bound Account is at
// its frame limit. It is distinct from ErrOutOfMemory on purpose: the
// pool may have plenty of free frames — only this account's budget is
// exhausted — so the right response is account-local reclaim (evict
// the account's own page-cache pages), not a global scan.
var ErrOverLimit = errors.New("physmem: account frame limit exceeded")

// Account is a memcg-style charge counter: every frame allocated
// through a CPU bound to the account is charged to it, and uncharged
// when the frame's last reference drops — whoever drops it. Frames are
// charged to their first allocator ("first toucher pays"), so a
// page-cache page shared by several tenants is charged to the tenant
// that filled it. All fields are atomics; an Account takes no locks
// and may be read concurrently with charging.
type Account struct {
	name string
	tag  uint64 // FNV-1a of name; the trace's account identity

	// limit is the charge ceiling in frames; 0 means unlimited.
	// Charging fails (ErrOverLimit) once charged would exceed it.
	limit   atomic.Int64
	charged atomic.Int64

	maxCharged atomic.Int64  // high-water mark of charged
	limitHits  atomic.Uint64 // charges refused at the limit

	// evictions counts this account's page-cache pages evicted by any
	// reclaim scan; evictionsUnderLimit counts the subset evicted while
	// the account was under its limit — eviction pressure the account
	// did not cause, i.e. cross-tenant interference. A machine whose
	// tenants all fit their limits should keep this at ~0.
	evictions           atomic.Uint64
	evictionsUnderLimit atomic.Uint64
}

// NewAccount returns an account with the given name and frame limit
// (0 = unlimited).
func NewAccount(name string, limit int64) *Account {
	ac := &Account{name: name, tag: hashTag(name)}
	ac.limit.Store(limit)
	return ac
}

// hashTag is FNV-1a over the account name: a stable 64-bit identity
// trace events carry, since a ring record can't hold the string.
func hashTag(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Tag returns the account's trace identity (FNV-1a of its name), the
// value EvTenantCharge/EvTenantRefuse events carry in arg a.
func (ac *Account) Tag() uint64 { return ac.tag }

// Name returns the account's name.
func (ac *Account) Name() string { return ac.name }

// Limit returns the account's frame limit (0 = unlimited).
func (ac *Account) Limit() int64 { return ac.limit.Load() }

// SetLimit changes the account's frame limit (0 = unlimited). Lowering
// it below the current charge does not evict anything by itself; the
// next charge fails and drives the caller's reclaim ladder.
func (ac *Account) SetLimit(limit int64) { ac.limit.Store(limit) }

// Charged returns the frames currently charged to the account.
func (ac *Account) Charged() int64 { return ac.charged.Load() }

// MaxCharged returns the high-water mark of Charged.
func (ac *Account) MaxCharged() int64 { return ac.maxCharged.Load() }

// OverLimit reports whether the account is at or above its limit.
func (ac *Account) OverLimit() bool {
	lim := ac.limit.Load()
	return lim > 0 && ac.charged.Load() >= lim
}

// tryChargeN charges count frames as one atomic step, refusing (and
// counting a limit hit) when the whole charge would exceed the limit.
// A contiguous run charges all-or-nothing: a tenant near its limit
// must not end up holding half a huge run's charge. The charge is a
// compare-and-swap, so a refused charge is never added at all and no
// reader of Charged ever sees the limit exceeded.
func (ac *Account) tryChargeN(count int64) bool {
	lim := ac.limit.Load()
	var n int64
	for {
		cur := ac.charged.Load()
		if n = cur + count; lim > 0 && n > lim {
			ac.limitHits.Add(1)
			trace.Emit(trace.AuxCPU, trace.EvTenantRefuse, ac.tag, uint64(cur), uint64(lim))
			return false
		}
		if ac.charged.CompareAndSwap(cur, n) {
			break
		}
	}
	trace.Emit(trace.AuxCPU, trace.EvTenantCharge, ac.tag, uint64(n), uint64(lim))
	for {
		max := ac.maxCharged.Load()
		if n <= max || ac.maxCharged.CompareAndSwap(max, n) {
			return true
		}
	}
}

// unchargeN returns count frames' charge.
func (ac *Account) unchargeN(count int64) {
	if ac.charged.Add(-count) < 0 {
		panic("physmem: account charge underflow")
	}
}

// NoteEviction records that one of the account's pages was evicted by
// a reclaim scan. external says the scan was NOT the account's own
// tenant-local reclaim — a machine-wide pass, or another tenant's
// drain. Only external evictions of an under-limit account count
// toward the cross-tenant fairness metric: an account's own reclaim
// evicting its own page is self-inflicted even when a concurrent free
// already dropped the charge back under the limit by eviction time.
func (ac *Account) NoteEviction(external bool) {
	ac.evictions.Add(1)
	if external && !ac.OverLimit() {
		ac.evictionsUnderLimit.Add(1)
	}
}

// AccountStats is a snapshot of an account's counters.
type AccountStats struct {
	Name                string `json:"name"`
	Limit               int64  `json:"limit"`
	Charged             int64  `json:"charged"`
	MaxCharged          int64  `json:"max_charged"`
	LimitHits           uint64 `json:"limit_hits"`
	Evictions           uint64 `json:"evictions"`
	EvictionsUnderLimit uint64 `json:"evictions_under_limit"`
}

// Stats returns a snapshot of the account's counters.
func (ac *Account) Stats() AccountStats {
	return AccountStats{
		Name:                ac.name,
		Limit:               ac.limit.Load(),
		Charged:             ac.charged.Load(),
		MaxCharged:          ac.maxCharged.Load(),
		LimitHits:           ac.limitHits.Load(),
		Evictions:           ac.evictions.Load(),
		EvictionsUnderLimit: ac.evictionsUnderLimit.Load(),
	}
}

// BindAccount binds cpu's magazine index to the account: subsequent
// Alloc(cpu) calls charge it (and stamp the frame's owner). A nil
// account unbinds. Rebinding while allocations are in flight on the
// same cpu is racy in the benign way — each allocation charges
// whichever account it observed — so bind before handing the cpu out.
func (a *Allocator) BindAccount(cpu int, ac *Account) {
	a.accounts[cpu%len(a.mags)].Store(ac)
}

// AccountOf returns the account bound to cpu's magazine index, or nil.
func (a *Allocator) AccountOf(cpu int) *Account {
	return a.accounts[cpu%len(a.mags)].Load()
}

// Owner returns the account charged for an allocated frame, or nil.
// Valid only while the frame stays allocated — the owner stamp is
// cleared when the last reference drops. A tail of an unsplit run has no
// stamp of its own (it is always nil) and reports its head's. The word
// is read first: a split stamps each tail's owner before it clears the
// tail's bit, so a word still marked tail means the head's stamp holds,
// and a cleared one means the tail's own stamp is already there.
func (a *Allocator) Owner(f Frame) *Account {
	if f == NoFrame || uint64(f) > a.cfg.Frames {
		return nil
	}
	if w := a.meta[f].Load(); uint32(w)&tailBit != 0 {
		f = headOf(f, w)
	}
	return a.owner[f].Load()
}

// unchargeFrame clears the frame's owner stamp and returns its charge,
// if any. Called on the final-reference free paths, before the frame
// goes back to a pool, so nobody else touches the stamp: it loads first,
// and freeing an unaccounted frame writes nothing.
func (a *Allocator) unchargeFrame(f Frame) { a.unchargeRun(f, 1) }

// unchargeRun is unchargeFrame for the n frames of an unsplit run whose
// last reference has dropped: the head's stamp, the only one AllocRun
// wrote, speaks for the run, so an unaccounted run costs one load and an
// accounted one a single stamp clear and a single uncharge.
func (a *Allocator) unchargeRun(head, n Frame) {
	if ac := a.owner[head].Load(); ac != nil {
		a.owner[head].Store(nil)
		ac.unchargeN(int64(n))
	}
}
