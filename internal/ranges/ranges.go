// Package ranges implements an address-range lock manager: exclusive
// locks keyed by half-open [lo, hi) intervals, granted concurrently
// whenever the intervals are disjoint. It is the mechanism that lets
// memory-mapping operations on disjoint address ranges run in parallel
// — the serialization the paper deliberately keeps ("mmap, munmap, and
// mprotect are still serialized with the mmap_sem") and that this
// reproduction removes for its RCU-based designs, where page faults
// never take the semaphore and mapping operations only need mutual
// exclusion against overlapping mapping operations.
//
// Stripes: the manager is 16 stripes, each with its own mutex, held
// list, wait queue and counters, on cache lines of its own. Stripe i
// covers every 1 GiB span of the address space whose index (addr>>30)
// is i mod 16 — one level-3 directory entry — and a request takes its
// range in every stripe [lo, hi) touches: one for an operation inside a
// span, all 16 for one spanning 16 GiB (the whole-space lock). Two
// requests whose ranges touch no common stripe therefore write no
// common word: not a mutex, not a counter, not a guard-id source.
//
// Grant policy, inside each stripe: a request is granted there
// immediately when it conflicts with no range held in that stripe and
// no earlier waiter of that stripe; otherwise it queues there in FIFO
// order. Checking earlier *waiters*, not just holders, makes the queue
// starvation-free: once a wide range (say, fork's whole-space lock) is
// waiting in a stripe, later overlapping requests line up behind it
// there instead of leap-frogging it forever. Disjoint requests still
// overtake freely, so the fairness costs no parallelism between
// non-conflicting operations. What "FIFO among conflicting requests"
// guarantees across stripes is this: a request is never overtaken by a
// later conflicting one at a stripe it has queued on. A later request
// may still take a stripe the earlier one has not reached yet; the
// earlier one then waits for it there, once.
//
// A request takes its stripes one at a time in ascending stripe index,
// never in address order. Address order wraps (a range crossing the
// 16 GiB boundary touches stripe 15, then stripe 0), and a request that
// took 15 first could hold it while waiting at 0 for a whole-space
// request that holds 0 and waits at 15. With one global order no
// request holds a stripe another waits for while waiting at a lower
// one, so the stripes cannot deadlock.
//
// The contract is Lock, LockGuard and Unlock, plus three snapshots:
// Guards (the live table), Stats and WaitHist. Every caller, a
// non-fixed mmap reserving its gap included, waits its FIFO turn for
// the range it asks for.
package ranges

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/contention"
	"bonsai/internal/fail"
	"bonsai/internal/stats"
	"bonsai/internal/trace"
)

// The stripes: StripeCount of them, each covering the 1<<StripeShift
// byte spans whose index is its own mod StripeCount. They are exported
// so a structure partitioned the same way (the PureRCU region index, one
// tree per stripe) cannot drift from the lock's partition.
const (
	StripeShift = 30
	stripeBits  = 4
	StripeCount = 1 << stripeBits
	cacheLine   = 64
)

// Stripe returns the stripe of the span holding addr.
func Stripe(addr uint64) int { return int(addr >> StripeShift % StripeCount) }

// stripeMask returns the stripes [lo, hi) touches, one bit each.
func stripeMask(lo, hi uint64) uint16 {
	first, last := lo>>StripeShift, (hi-1)>>StripeShift
	if last-first >= StripeCount-1 {
		return 1<<StripeCount - 1
	}
	return bits.RotateLeft16(uint16(1)<<(last-first+1)-1, int(first%StripeCount))
}

// lowest and highest are the first and last stripes of a mask in lock
// order.
func lowest(mask uint16) int  { return bits.TrailingZeros16(mask) }
func highest(mask uint16) int { return StripeCount - 1 - bits.LeadingZeros16(mask) }

// stripeStepPoint is the schedule point between two of a request's
// stripe acquisitions (fail.Point.Yield): the first held, the next not
// yet asked for.
var stripeStepPoint = fail.NewPoint("ranges.stripe-step")

// Guard is one granted or queued range-lock request. A granted Guard
// must be released exactly once with Unlock. The manager links guards,
// it does not make them: Lock allocates one per call, while an
// operation that locks on every call keeps one and re-arms it with
// LockGuard — between an Unlock and the next LockGuard the manager holds
// no reference to it.
type Guard struct {
	m      *Manager
	id     uint64 // unique per manager: a sequence number and the lowest stripe
	lo, hi uint64
	ready  chan struct{} // made when the request queues at a stripe; closed when it is granted there
	// granted is set by the granting Unlock just before it closes
	// ready, so a waiter can poll for a short hold's release instead of
	// paying a park and wake-up for it (see awaitGrant). A request
	// waits at one stripe at a time, so one flag and one channel serve
	// all of them.
	granted atomic.Bool
	held    bool   // granted in every stripe and not yet released (written by the owner)
	mask    uint16 // the stripes the range touches
	// grantedAt is stamped when the last stripe is granted, and only
	// while the tracer or the contention profiler is armed, so the
	// disarmed grant path pays no clock read. queuedAt is stamped when
	// the request first queues, on the contended path, which already
	// pays the clock read for the wait histogram. Both are stamp()
	// values; zero means not stamped.
	grantedAt int64
	queuedAt  int64
}

// epoch anchors the guards' time stamps.
var epoch = time.Now()

// stamp returns the monotonic time since epoch in nanoseconds, never
// zero.
func stamp() int64 { return int64(time.Since(epoch)) | 1 }

// Lo returns the inclusive lower bound of the locked range.
func (g *Guard) Lo() uint64 { return g.lo }

// Hi returns the exclusive upper bound of the locked range.
func (g *Guard) Hi() uint64 { return g.hi }

// Covers reports whether the guard's range contains [lo, hi).
func (g *Guard) Covers(lo, hi uint64) bool { return g.lo <= lo && hi <= g.hi }

// overlapsAny reports whether [lo, hi) intersects any guard's range.
// Ranges are half-open, so touching ones ([0,4) and [4,8)) do not
// conflict.
func overlapsAny(gs []*Guard, lo, hi uint64) bool {
	for _, g := range gs {
		if lo < g.hi && g.lo < hi {
			return true
		}
	}
	return false
}

// Manager is an address-range lock manager. The zero value is ready to
// use. All methods are safe for concurrent use.
type Manager struct {
	stripes [StripeCount]stripe

	// waitHist is the always-on latency histogram of contended Lock
	// waits — the tail the per-VMA-locks roadmap item will have to
	// beat. Uncontended grants don't record (they'd bury the tail in
	// zeros).
	waitHist stats.LatencyHist
}

// stripe is one stripe's lock table. A guard is counted (acquires,
// own, the id source) in its lowest stripe only, and as a conflict in
// the first stripe it queues at.
type stripe struct {
	mu    sync.Mutex
	held  []*Guard // granted, unreleased guards
	queue []*Guard // waiting requests in arrival order

	acquires  uint64 // guards granted their lowest stripe here
	conflicts uint64 // guards that first queued here
	own       int    // held guards whose lowest stripe this is
	maxOwn    int    // high-water of own
	nextID    uint64 // id sequence of the guards whose lowest stripe this is

	_ [cacheLine]byte // no two stripes' words share a line, however the manager is aligned
}

// Stats is a snapshot of a Manager's counters.
type Stats struct {
	Acquires  uint64 `json:"acquires"`  // locks granted over the manager's lifetime
	Conflicts uint64 `json:"conflicts"` // Lock calls that blocked on a conflicting range
	// MaxHeld is the sum of each stripe's high-water of concurrently
	// held locks (a lock counted in its lowest stripe): an upper bound
	// on the most locks ever held at once, exact while the stripes'
	// peaks coincide, as disjoint writers' do.
	MaxHeld int                `json:"max_held"`
	Held    int                `json:"held"`    // locks holding their lowest stripe, those still acquiring included
	Waiting int                `json:"waiting"` // requests currently queued at a stripe
	Wait    stats.LatencyStats `json:"wait"`    // contended-wait latency percentiles
}

// lockStripes takes every stripe mutex, in ascending index. Nothing
// else holds two stripe mutexes at once, so this cannot deadlock.
func (m *Manager) lockStripes() {
	for i := range m.stripes {
		m.stripes[i].mu.Lock()
	}
}

func (m *Manager) unlockStripes() {
	for i := range m.stripes {
		m.stripes[i].mu.Unlock()
	}
}

// Stats returns a snapshot of the manager's counters, summed over the
// stripes with each request counted once.
func (m *Manager) Stats() Stats {
	m.lockStripes()
	defer m.unlockStripes()
	var st Stats
	for i := range m.stripes {
		s := &m.stripes[i]
		st.Acquires += s.acquires
		st.Conflicts += s.conflicts
		st.MaxHeld += s.maxOwn
		st.Held += s.own
		st.Waiting += len(s.queue)
	}
	st.Wait = m.waitHist.Stats()
	return st
}

// WaitHist exposes the contended-wait histogram for merging into
// machine-level latency rollups.
func (m *Manager) WaitHist() *stats.LatencyHist { return &m.waitHist }

// GuardInfo describes one live range-lock request — a current holder
// or a queued waiter — as reported by Guards for /proc/locks-style
// introspection.
type GuardInfo struct {
	ID      uint64 `json:"id"`
	Lo      uint64 `json:"lo"`
	Hi      uint64 `json:"hi"`
	Waiting bool   `json:"waiting"`
	// AgeNs is how long the request has been held (holders) or queued
	// (waiters). Zero for holders granted while neither the tracer nor
	// the contention profiler was armed: grant times are only stamped
	// then, so the disarmed grant path pays no clock read.
	AgeNs int64 `json:"age_ns"`
}

// Guards snapshots the live lock table, each request once: holders
// first, then waiters, each by id. A request that holds some stripes
// and waits at another is a waiter. It takes every stripe mutex at
// once, so the table is one moment's; the ages are read against a
// clock taken under them, so a guard granted while Guards waited for a
// mutex never shows a negative age.
func (m *Manager) Guards() []GuardInfo {
	m.lockStripes()
	defer m.unlockStripes()
	now := stamp()
	var holders, waiters []GuardInfo
	var queued []*Guard
	for i := range m.stripes {
		for _, g := range m.stripes[i].queue {
			gi := GuardInfo{ID: g.id, Lo: g.lo, Hi: g.hi, Waiting: true}
			if g.queuedAt != 0 {
				gi.AgeNs = now - g.queuedAt
			}
			waiters = append(waiters, gi)
			queued = append(queued, g)
		}
	}
	for i := range m.stripes {
		for _, g := range m.stripes[i].held {
			if lowest(g.mask) != i || slices.Contains(queued, g) {
				continue
			}
			gi := GuardInfo{ID: g.id, Lo: g.lo, Hi: g.hi}
			if g.grantedAt != 0 {
				gi.AgeNs = now - g.grantedAt
			}
			holders = append(holders, gi)
		}
	}
	byID := func(a, b GuardInfo) int { return cmp.Compare(a.ID, b.ID) }
	slices.SortFunc(holders, byID)
	slices.SortFunc(waiters, byID)
	return append(holders, waiters...)
}

// grantLocked moves g into stripe i's held set. The stripe mutex is
// held. Trace emission here takes no locks of its own (package vm's
// "Lock hierarchy"): it is a few atomic stores into the ring, safe
// under the mutex.
func (s *stripe) grantLocked(g *Guard, i int) {
	if s.held == nil {
		// A line of its own: two stripes' one-guard lists would
		// otherwise be neighbours in one 8-byte size class.
		s.held = make([]*Guard, 0, cacheLine/8)
	}
	s.held = append(s.held, g)
	if i == lowest(g.mask) {
		s.acquires++
		s.own++
		s.maxOwn = max(s.maxOwn, s.own)
	}
	if i == highest(g.mask) && (trace.Armed() || contention.Armed()) {
		g.grantedAt = stamp()
		trace.Emit(trace.AuxCPU, trace.EvRangeAcquire, g.id, g.lo, g.hi)
	}
}

// Lock acquires an exclusive lock on [lo, hi), blocking while any
// conflicting range is held or queued ahead of it.
func (m *Manager) Lock(lo, hi uint64) *Guard {
	g := new(Guard)
	m.LockGuard(g, lo, hi)
	return g
}

// LockGuard is Lock into a guard the caller owns: a fresh one, or one
// it has released. An uncontended acquisition allocates nothing. It
// takes the range's stripes one at a time, in ascending index (the
// package comment says why); the lowest one gives the guard its id.
func (m *Manager) LockGuard(g *Guard, lo, hi uint64) {
	if lo >= hi {
		panic(fmt.Sprintf("ranges: invalid range [%#x, %#x)", lo, hi))
	}
	if g.held {
		panic("ranges: Lock into a held Guard")
	}
	g.m, g.lo, g.hi, g.mask = m, lo, hi, stripeMask(lo, hi)
	g.ready, g.grantedAt, g.queuedAt = nil, 0, 0
	for mask := g.mask; ; {
		i := bits.TrailingZeros16(mask)
		mask &^= 1 << i
		s := &m.stripes[i]
		s.mu.Lock()
		if i == lowest(g.mask) {
			g.id = s.nextID<<stripeBits | uint64(i)
			s.nextID++
		}
		if !overlapsAny(s.held, lo, hi) && !overlapsAny(s.queue, lo, hi) {
			s.grantLocked(g, i)
			s.mu.Unlock()
		} else {
			s.queueLocked(g)
		}
		if mask == 0 {
			break
		}
		stripeStepPoint.Yield()
	}
	g.held = true
	if g.queuedAt != 0 {
		wait := time.Duration(stamp() - g.queuedAt)
		m.waitHist.Record(wait)
		contention.Note("range", g.lo, g.hi, wait)
		trace.Emit(trace.AuxCPU, trace.EvRangeWait, g.id, g.lo, uint64(wait))
	}
}

// queueLocked queues g at stripe s, releases the stripe mutex and waits
// for the grant there. A guard counts as a conflict at the first stripe
// it queues at, and its wait runs from then.
func (s *stripe) queueLocked(g *Guard) {
	g.ready = make(chan struct{})
	g.granted.Store(false)
	queuedAt := stamp()
	if g.queuedAt == 0 {
		g.queuedAt = queuedAt
		s.conflicts++
	}
	s.queue = append(s.queue, g)
	s.mu.Unlock()
	g.awaitGrant(queuedAt)
}

// spinLimit bounds how long a queued request polls its granted flag
// before parking on its channel: holds measured 3–12 µs on the 2-core
// host, a park and wake-up 50 µs–2 ms. spinYieldEvery polls separate
// the clock checks, each followed by a yield so a descheduled holder
// can run.
const (
	spinLimit      = 25 * time.Microsecond
	spinYieldEvery = 32
)

// awaitGrant blocks until the queued guard is granted at the stripe it
// queued at: a bounded poll of the granted flag when another processor
// could be running the holder, then the channel park. The grant itself
// (FIFO order, made under the stripe mutex by the releasing Unlock) is
// the same either way; Unlock sets the flag and then closes the
// channel, so a waiter that gives up polling just as the grant lands
// still finds the channel closed.
func (g *Guard) awaitGrant(queuedAt int64) {
	if runtime.GOMAXPROCS(0) > 1 {
		for polls := 1; ; polls++ {
			if g.granted.Load() {
				return
			}
			if polls%spinYieldEvery == 0 {
				if time.Duration(stamp()-queuedAt) > spinLimit {
					break
				}
				runtime.Gosched()
			}
		}
	}
	<-g.ready
}

// Unlock releases the guard, stripe by stripe in ascending index, and
// in each grants every waiter that the release unblocks there. It
// panics if the guard was already released.
func (g *Guard) Unlock() {
	if !g.held {
		panic("ranges: Unlock of released Guard")
	}
	g.held = false
	if g.grantedAt != 0 {
		trace.Emit(trace.AuxCPU, trace.EvRangeRelease, g.id, g.lo,
			uint64(stamp()-g.grantedAt))
	}
	for mask := g.mask; mask != 0; mask &= mask - 1 {
		i := lowest(mask)
		s := &g.m.stripes[i]
		s.mu.Lock()
		for k, h := range s.held {
			if h == g {
				last := len(s.held) - 1
				copy(s.held[k:], s.held[k+1:])
				s.held[last] = nil // the caller may re-arm or drop the guard
				s.held = s.held[:last]
				break
			}
		}
		if i == lowest(g.mask) {
			s.own--
		}
		if len(s.queue) != 0 {
			s.promoteLocked(i)
		}
		s.mu.Unlock()
	}
}

// promoteLocked grants the waiters at stripe i that a release
// unblocked, scanning the queue in FIFO order: a waiter is granted when
// it conflicts with no held range and no waiter still queued ahead of
// it. Earlier waiters that stay queued block later overlapping ones,
// preserving FIFO fairness among conflicts while letting disjoint
// waiters through. The stripe mutex is held.
func (s *stripe) promoteLocked(i int) {
	remaining := s.queue[:0]
	for _, w := range s.queue {
		if !overlapsAny(s.held, w.lo, w.hi) && !overlapsAny(remaining, w.lo, w.hi) {
			s.grantLocked(w, i)
			// Read ready before the flag: a waiter that sees the flag
			// may go on to queue at its next stripe with a new channel.
			ready := w.ready
			w.granted.Store(true)
			close(ready)
		} else {
			remaining = append(remaining, w)
		}
	}
	// Clear the tail so promoted guards aren't retained by the backing
	// array.
	for k := len(remaining); k < len(s.queue); k++ {
		s.queue[k] = nil
	}
	s.queue = remaining
}
