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
// Grant policy: a request is granted immediately when it conflicts with
// no currently held range and no earlier waiter; otherwise it queues in
// FIFO order. Checking earlier *waiters*, not just holders, makes the
// queue starvation-free: once a wide range (say, fork's whole-space
// lock) is waiting, later overlapping requests line up behind it
// instead of leap-frogging it forever. Disjoint requests still overtake
// freely, so the fairness costs no parallelism between non-conflicting
// operations.
//
// The contract is Lock, LockGuard and Unlock, plus three snapshots:
// Guards (the live table), Stats and WaitHist. Every caller, a
// non-fixed mmap reserving its gap included, waits its FIFO turn for
// the range it asks for.
package ranges

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/contention"
	"bonsai/internal/stats"
	"bonsai/internal/trace"
)

// Guard is one granted or queued range-lock request. A granted Guard
// must be released exactly once with Unlock. The manager links guards,
// it does not make them: Lock allocates one per call, while an
// operation that locks on every call keeps one and re-arms it with
// LockGuard — between an Unlock and the next LockGuard the manager holds
// no reference to it.
type Guard struct {
	m      *Manager
	id     uint64 // unique per manager; attributes trace events and table rows
	lo, hi uint64
	ready  chan struct{} // made when the request queues; closed when it is granted
	// granted is set by the granting Unlock just before it closes
	// ready, so a waiter can poll for a short hold's release instead of
	// paying a park and wake-up for it (see awaitGrant).
	granted atomic.Bool
	held    bool // granted and not yet released (manager mutex held when written)
	// grantedAt is stamped at grant time only while the tracer or the
	// contention profiler is armed, so the disarmed grant path pays no
	// clock read. queuedAt is stamped on the contended path, which
	// already pays the clock read for the wait histogram. Both are
	// stamp() values; zero means not stamped.
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
	mu    sync.Mutex
	held  []*Guard // granted, unreleased guards
	queue []*Guard // waiting requests in arrival order

	acquires  uint64 // locks granted
	conflicts uint64 // requests that had to wait
	maxHeld   int    // high-water of concurrently held locks
	nextID    uint64 // guard id source

	// waitHist is the always-on latency histogram of contended Lock
	// waits — the tail the per-VMA-locks roadmap item will have to
	// beat. Uncontended grants don't record (they'd bury the tail in
	// zeros).
	waitHist stats.LatencyHist
}

// Stats is a snapshot of a Manager's counters.
type Stats struct {
	Acquires  uint64             `json:"acquires"`  // locks granted over the manager's lifetime
	Conflicts uint64             `json:"conflicts"` // Lock calls that blocked on a conflicting range
	MaxHeld   int                `json:"max_held"`  // most locks held concurrently (max parallel writers)
	Held      int                `json:"held"`      // locks currently held
	Waiting   int                `json:"waiting"`   // requests currently queued
	Wait      stats.LatencyStats `json:"wait"`      // contended-wait latency percentiles
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Acquires:  m.acquires,
		Conflicts: m.conflicts,
		MaxHeld:   m.maxHeld,
		Held:      len(m.held),
		Waiting:   len(m.queue),
		Wait:      m.waitHist.Stats(),
	}
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

// Guards snapshots the live lock table: held ranges first (grant
// order), then queued waiters (arrival order). It takes only the
// manager mutex, the lock every acquire already takes. The ages are
// read against a clock taken under it, so a guard granted while Guards
// waited for the mutex never shows a negative age.
func (m *Manager) Guards() []GuardInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := stamp()
	out := make([]GuardInfo, 0, len(m.held)+len(m.queue))
	for _, g := range m.held {
		gi := GuardInfo{ID: g.id, Lo: g.lo, Hi: g.hi}
		if g.grantedAt != 0 {
			gi.AgeNs = now - g.grantedAt
		}
		out = append(out, gi)
	}
	for _, g := range m.queue {
		gi := GuardInfo{ID: g.id, Lo: g.lo, Hi: g.hi, Waiting: true}
		if g.queuedAt != 0 {
			gi.AgeNs = now - g.queuedAt
		}
		out = append(out, gi)
	}
	return out
}

// grantLocked moves g into the held set. The manager mutex is held.
// Trace emission here takes no locks of its own (package vm's "Lock
// hierarchy"): it is a few atomic stores into the ring, safe under m.mu.
func (m *Manager) grantLocked(g *Guard) {
	m.held = append(m.held, g)
	g.held = true
	m.acquires++
	if len(m.held) > m.maxHeld {
		m.maxHeld = len(m.held)
	}
	if trace.Armed() || contention.Armed() {
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
// it has released. An uncontended acquisition allocates nothing.
func (m *Manager) LockGuard(g *Guard, lo, hi uint64) {
	if lo >= hi {
		panic(fmt.Sprintf("ranges: invalid range [%#x, %#x)", lo, hi))
	}
	m.mu.Lock()
	if g.held {
		m.mu.Unlock()
		panic("ranges: Lock into a held Guard")
	}
	g.m, g.lo, g.hi, g.id = m, lo, hi, m.nextID
	m.nextID++
	g.ready, g.grantedAt, g.queuedAt = nil, 0, 0
	if g.granted.Load() { // set only by a contended grant
		g.granted.Store(false)
	}
	if !overlapsAny(m.held, lo, hi) && !overlapsAny(m.queue, lo, hi) {
		m.grantLocked(g)
		m.mu.Unlock()
		return
	}
	g.ready = make(chan struct{})
	queuedAt := stamp()
	g.queuedAt = queuedAt
	m.queue = append(m.queue, g)
	m.conflicts++
	m.mu.Unlock()
	g.awaitGrant(queuedAt)
	wait := time.Duration(stamp() - queuedAt)
	m.waitHist.Record(wait)
	contention.Note("range", g.lo, g.hi, wait)
	trace.Emit(trace.AuxCPU, trace.EvRangeWait, g.id, g.lo, uint64(wait))
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

// awaitGrant blocks until the queued guard is granted: a bounded poll
// of the granted flag when another processor could be running the
// holder, then the channel park. The grant itself (FIFO order, made
// under the manager mutex by the releasing Unlock) is the same either
// way; Unlock sets the flag and then closes the channel, so a waiter
// that gives up polling just as the grant lands still finds the channel
// closed.
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

// Unlock releases the guard and grants every waiter that the release
// unblocks, scanning the queue in FIFO order: a waiter is granted when
// it conflicts with no held range and no waiter still queued ahead of
// it. Unlock panics if the guard was already released.
func (g *Guard) Unlock() {
	m := g.m
	m.mu.Lock()
	if !g.held {
		m.mu.Unlock()
		panic("ranges: Unlock of released Guard")
	}
	g.held = false
	for i, h := range m.held {
		if h == g {
			last := len(m.held) - 1
			copy(m.held[i:], m.held[i+1:])
			m.held[last] = nil // the caller may re-arm or drop the guard
			m.held = m.held[:last]
			break
		}
	}
	if g.grantedAt != 0 {
		trace.Emit(trace.AuxCPU, trace.EvRangeRelease, g.id, g.lo,
			uint64(stamp()-g.grantedAt))
	}
	// Promote waiters. Earlier waiters that stay queued block later
	// overlapping ones, preserving FIFO fairness among conflicts while
	// letting disjoint waiters through.
	remaining := m.queue[:0]
	for _, w := range m.queue {
		if !overlapsAny(m.held, w.lo, w.hi) && !overlapsAny(remaining, w.lo, w.hi) {
			m.grantLocked(w)
			w.granted.Store(true)
			close(w.ready)
		} else {
			remaining = append(remaining, w)
		}
	}
	// Clear the tail so promoted guards aren't retained by the backing
	// array.
	for i := len(remaining); i < len(m.queue); i++ {
		m.queue[i] = nil
	}
	m.queue = remaining
	m.mu.Unlock()
}
