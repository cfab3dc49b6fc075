// Package rcu implements an epoch-based read-copy-update runtime in the
// style of userspace RCU (liburcu) and the kernel RCU the paper builds
// on (§2). It provides:
//
//   - Registered readers with read-side critical sections that perform no
//     stores to shared cache lines beyond one padded per-reader slot
//     (mirroring the paper's requirement that page faults not contend on
//     shared lines).
//   - Defer (the analogue of call_rcu): run a callback after a grace
//     period, used to delay-free tree nodes, VMAs, page tables, and
//     physical frames (§5.2, Figure 11). Defer is asynchronous: it
//     appends to a per-shard callback segment and returns. It never
//     waits for a grace period and never takes a domain-global lock,
//     so retiring memory from the munmap path costs one padded
//     per-shard append — reclamation stays off the mutation hot path,
//     which is the paper's central scalability requirement. The shard
//     is picked by a goroutine-affine hint, or by DeferOn's caller id (a
//     fault's CPU, a mapping operation's slot), so concurrent operations
//     spread across shards whatever addresses they touch. A callback is
//     a function value the retiring side keeps (a tree transaction's
//     retired nodes, a gather's frame batch), so queuing allocates
//     nothing.
//   - A background grace-period detector (the analogue of the kernel's
//     softirq callback processing): a goroutine that advances the
//     epoch, waits for pre-existing readers with spin, yield and then
//     exponential parking backoff, and drains expired callback
//     segments. Batch thresholds and a backpressure budget wake it; over
//     budget, retiring goroutines donate their timeslice, never waiting
//     for a grace period.
//   - Synchronize (synchronize_rcu, and rcu_barrier too: it runs every
//     callback queued before it) and Close: the only blocking entry
//     points. Mutators that must observe reclamation (teardown, leak
//     checks, OOM recovery) call Synchronize; nothing else blocks.
//
// Although Go's garbage collector already guarantees that memory is not
// recycled while a reader can still reach it, the VM system reuses
// *resources* — physical frames and page-table frames — through its own
// allocator. Returning those to the allocator before a grace period has
// elapsed is a real bug that this package's grace-period machinery
// prevents, exactly as in the kernel.
package rcu

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/fail"
	"bonsai/internal/stats"
	"bonsai/internal/trace"
)

// failGPDelay stretches grace periods (armed only by fault injection;
// see internal/fail): every deferred free and zap retirement behind the
// stalled epoch backs up, the backlog the DeferOn backpressure path
// exists to absorb.
var failGPDelay = fail.NewPoint("rcu.gp-delay")

// cacheLine is the assumed cache-line size used to pad per-reader and
// per-shard state so concurrent CPUs never share a line (the property
// the paper's pure-RCU design depends on).
const cacheLine = 64

// Domain is an independent RCU domain: a set of registered readers plus
// sharded segments of deferred callbacks processed by a background
// grace-period detector. The zero value is not usable; call NewDomain.
type Domain struct {
	epoch atomic.Uint64 // current grace-period epoch; advanced per grace period

	readersMu sync.Mutex // guards the readers list only
	readers   []*Reader

	shards    []shard
	shardMask uint32

	// gpMu serializes grace-period execution between the detector and
	// the blocking entry points (Synchronize/Close). It is never
	// touched by Defer.
	gpMu sync.Mutex

	opts       Options
	wakeThresh int // per-shard pending count that wakes the detector
	budget     int // per-shard pending count considered over budget

	wake      chan struct{} // buffered(1) nudge to the detector
	stopc     chan struct{}
	startOnce sync.Once
	started   atomic.Bool
	exited    chan struct{}
	closed    atomic.Bool

	// hintPool hands out goroutine-affine shard hints; see hint().
	hintPool sync.Pool
	hintSeq  atomic.Uint32

	// statistics
	gpActive     atomic.Bool // a grace period is executing right now
	gracePeriods atomic.Uint64
	gpTotalNanos atomic.Uint64
	gpMaxNanos   atomic.Uint64
	pendingHW    atomic.Int64
	overBudget   atomic.Uint64

	// gpHist is the always-on grace-period latency histogram: the
	// reclamation-delay tail every deferred free rides on.
	gpHist stats.LatencyHist
}

// shard is one callback segment. Shards are padded so concurrent
// retiring goroutines touch disjoint cache lines; all hot counters are
// shard-local.
type shard struct {
	_       [cacheLine]byte
	mu      sync.Mutex
	cbs     []callback
	queued  atomic.Uint64 // callbacks ever appended to this shard
	drained atomic.Uint64 // callbacks run from this shard
	drains  atomic.Uint64 // drain passes that removed at least one callback
	_       [cacheLine]byte

	// spare is the previous drain pass's segment, recycled to keep the
	// steady-state append path allocation-free. Only the detector (or a
	// blocking entry point, under gpMu) touches it.
	spare []callback
}

// pending returns the shard's currently queued callback count.
func (s *shard) pending() int64 {
	return int64(s.queued.Load()) - int64(s.drained.Load())
}

type callback struct {
	epoch uint64 // epoch observed when the callback was queued
	fn    func()
}

// Options configures a Domain.
type Options struct {
	// BatchSize is the number of pending callbacks that accumulate
	// (domain-wide) before the background detector is woken to run a
	// grace period and drain, modeling the kernel's batched softirq
	// processing of call_rcu callbacks. Zero means DefaultBatchSize.
	// Negative disables the background detector entirely: callbacks
	// run only when the caller invokes Synchronize,
	// which keeps reclamation deterministic for tests.
	BatchSize int

	// Shards is the number of callback segments, rounded up to a power
	// of two. Zero means a power of two covering GOMAXPROCS, capped at
	// MaxShards.
	Shards int

	// MaxPending is the backpressure budget. It is divided evenly
	// across the shards; when one shard's pending count exceeds its
	// slice (so a skewed retire pattern trips it sooner than a
	// perfectly spread one), Defer counts the event in
	// Stats.OverBudget, urgently wakes the detector, and yields its
	// timeslice so the detector can run on a saturated machine. Defer
	// still never waits for a grace period — with readers active there
	// is nothing useful a blocked writer could wait for (that inline
	// wait is exactly the deadlock the synchronous design had). Zero
	// means DefaultMaxPending.
	MaxPending int
}

// DefaultBatchSize is the automatic drain threshold used when
// Options.BatchSize is zero.
const DefaultBatchSize = 4096

// DefaultMaxPending is the default backpressure budget. It is sized so
// the yield-based safety valve only engages when reclamation has truly
// fallen behind (a wedged reader), not during ordinary bursts.
const DefaultMaxPending = 1 << 17

// MaxShards caps the shard count.
const MaxShards = 64

// NewDomain returns a ready-to-use RCU domain. Domains with a
// non-negative BatchSize lazily start one background detector goroutine
// on first Defer; call Close to stop it and flush remaining callbacks.
func NewDomain(opts Options) *Domain {
	if opts.BatchSize == 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = DefaultMaxPending
	}
	n := opts.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > MaxShards {
		n = MaxShards
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	d := &Domain{
		opts:   opts,
		shards: make([]shard, shards),

		shardMask: uint32(shards - 1),
		wake:      make(chan struct{}, 1),
		stopc:     make(chan struct{}),
		exited:    make(chan struct{}),
	}
	if d.wakeThresh = opts.BatchSize / shards; d.wakeThresh < 1 {
		d.wakeThresh = 1
	}
	if d.budget = opts.MaxPending / shards; d.budget < 1 {
		d.budget = 1
	}
	d.hintPool.New = func() any {
		h := new(uint32)
		*h = d.hintSeq.Add(1) - 1
		return h
	}
	d.epoch.Store(1)
	return d
}

// Reader is a registered read-side context, analogous to a thread
// registered with urcu. A Reader must be used by one goroutine at a
// time. Read-side critical sections may nest.
type Reader struct {
	_     [cacheLine]byte
	state atomic.Uint64 // 0 = quiescent, else epoch at outermost Lock
	nest  int32         // nesting depth; accessed only by the owner
	_     [cacheLine]byte
	dom   *Domain
}

// Register creates and registers a new Reader with the domain.
func (d *Domain) Register() *Reader {
	r := &Reader{dom: d}
	d.readersMu.Lock()
	d.readers = append(d.readers, r)
	d.readersMu.Unlock()
	return r
}

// Unregister removes the reader from the domain. The reader must be
// quiescent (not inside a critical section).
func (d *Domain) Unregister(r *Reader) {
	if r.state.Load() != 0 {
		panic("rcu: Unregister of active reader")
	}
	d.readersMu.Lock()
	for i, rr := range d.readers {
		if rr == r {
			d.readers = append(d.readers[:i], d.readers[i+1:]...)
			break
		}
	}
	d.readersMu.Unlock()
}

// Lock enters a read-side critical section. It performs a single store
// to the reader's private padded slot; it never touches shared state.
func (r *Reader) Lock() {
	if r.nest == 0 {
		r.state.Store(r.dom.epoch.Load())
	}
	r.nest++
}

// Unlock leaves a read-side critical section.
func (r *Reader) Unlock() {
	r.nest--
	switch {
	case r.nest == 0:
		r.state.Store(0)
	case r.nest < 0:
		panic("rcu: Unlock without matching Lock")
	}
}

// Active reports whether the reader is inside a critical section. It is
// intended for assertions in tests.
func (r *Reader) Active() bool { return r.state.Load() != 0 }

// hint returns a goroutine-affine shard hint. Hints live in a
// sync.Pool, whose Get/Put fast path is per-P and lock-free, so
// concurrent Defer callers on different Ps spread across shards without
// sharing a cache line; the round-robin assignment counter is touched
// only when the pool is empty.
func (d *Domain) hint() int {
	h := d.hintPool.Get().(*uint32)
	i := *h
	d.hintPool.Put(h)
	return int(i)
}

// Defer queues fn to run after a grace period. It appends to one
// callback shard and returns: no domain-global lock, no grace-period
// wait, regardless of how many callbacks are pending. When a shard
// crosses the batch threshold the background detector is woken (a
// non-blocking notification) to process the grace period off the
// caller's path; the caller that wakes it yields its processor once,
// so the detector starts now rather than a time slice later.
func (d *Domain) Defer(fn func()) { d.DeferOn(d.hint(), fn) }

// DeferOn is Defer with an explicit shard hint, for callers that
// already have a cheap CPU-like identity (the VM layer passes a fault's
// CPU id or a mapping operation's slot). Hints beyond the shard count
// wrap around. fn is stored as given: a caller that keeps one function
// value per recycled batch (tlb's frame batches, core's retired-node
// lists) queues it without allocating.
func (d *Domain) DeferOn(hint int, fn func()) {
	if d.closed.Load() {
		panic("rcu: Defer on closed Domain")
	}
	s := &d.shards[uint32(hint)&d.shardMask]
	e := d.epoch.Load()
	s.mu.Lock()
	s.cbs = append(s.cbs, callback{epoch: e, fn: fn})
	s.queued.Add(1)
	s.mu.Unlock()
	n := s.pending()
	trace.Emit(trace.AuxCPU, trace.EvRCUDefer, e, uint64(uint32(hint)&d.shardMask), uint64(n))

	if d.opts.BatchSize < 0 {
		return // manual mode: drained only by Synchronize
	}
	switch {
	case n >= int64(d.budget):
		// Over the backpressure budget: reclamation has fallen behind.
		// Wake the detector urgently and donate this timeslice so it can
		// run even on a fully loaded machine. This bounds the backlog
		// without ever waiting for a grace period on the caller's path.
		d.overBudget.Add(1)
		d.ensureDetector()
		d.nudge()
		yield()
	case n >= int64(d.wakeThresh) || !d.started.Load():
		d.ensureDetector()
		if d.nudge() {
			// The detector was idle and is runnable now, behind this
			// goroutine: hand it the processor once, or on a machine
			// whose every processor runs a retiring goroutine that
			// never blocks it waits out a scheduler time slice
			// (milliseconds) while the backlog grows at full rate.
			yield()
		}
	}
}

// nudge wakes the detector without blocking, reporting whether it was
// this nudge that woke it (false: one was already pending).
func (d *Domain) nudge() bool {
	select {
	case d.wake <- struct{}{}:
		return true
	default:
		return false
	}
}

// ensureDetector starts the background grace-period detector once.
func (d *Domain) ensureDetector() {
	d.startOnce.Do(func() {
		d.started.Store(true)
		go d.detector()
	})
}

// Synchronize waits until every read-side critical section that was
// active when Synchronize was called has completed (a full grace
// period). Callbacks queued before the call are run before it returns.
// It is a blocking entry point: never call it while holding locks that
// an active reader may be waiting for.
func (d *Domain) Synchronize() {
	d.gpMu.Lock()
	defer d.gpMu.Unlock()
	d.gracePeriodLocked()
}

// Close stops the background detector (if it ever started) and flushes
// all remaining callbacks. The caller must quiesce all retiring paths
// first — a Defer racing Close may be silently dropped, exactly as a
// call_rcu racing module unload would be; the closed check is
// best-effort, so sequenced-after Defers panic. The blocking entry
// points keep working after Close (inline, on the caller). Close is
// idempotent.
func (d *Domain) Close() {
	if d.closed.Swap(true) {
		return
	}
	if d.started.Load() {
		close(d.stopc)
		<-d.exited
	}
	d.Synchronize()
}

// gracePeriodLocked advances the epoch, waits for pre-existing readers,
// and drains expired callbacks. Caller holds gpMu.
func (d *Domain) gracePeriodLocked() {
	d.gpActive.Store(true)
	defer d.gpActive.Store(false)
	start := time.Now()
	target := d.epoch.Add(1) // readers that observe >= target started after us
	gpID := d.gracePeriods.Add(1)
	trace.Emit(trace.AuxCPU, trace.EvGPStart, gpID, target, 0)
	if delay := failGPDelay.FireDelay(); delay > 0 {
		// Injected grace-period stall: the detector (or a synchronous
		// waiter) sits on the epoch while callbacks pile up behind it.
		time.Sleep(delay)
	}

	d.readersMu.Lock()
	readers := make([]*Reader, len(d.readers))
	copy(readers, d.readers)
	d.readersMu.Unlock()

	for _, r := range readers {
		waitQuiescent(r, target)
	}
	ran := d.drainAll(target)

	elapsed := time.Since(start)
	nanos := uint64(elapsed.Nanoseconds())
	d.gpTotalNanos.Add(nanos)
	for {
		max := d.gpMaxNanos.Load()
		if nanos <= max || d.gpMaxNanos.CompareAndSwap(max, nanos) {
			break
		}
	}
	d.gpHist.Record(elapsed)
	trace.Emit(trace.AuxCPU, trace.EvGPEnd, gpID, uint64(ran), nanos)
}

// waitQuiescent blocks until the reader is quiescent or started its
// current critical section at or after the target epoch. It spins
// briefly, then yields, then parks with exponential backoff — the
// detector can afford to sleep; readers never signal (signaling would
// put a shared store on the read path).
func waitQuiescent(r *Reader, target uint64) {
	sleep := time.Microsecond
	for i := 0; ; i++ {
		s := r.state.Load()
		if s == 0 || s >= target {
			return
		}
		switch {
		case i < 256:
			// spin: the reader is likely mid-critical-section
		case i < 512:
			yield()
		default:
			time.Sleep(sleep)
			if sleep < 128*time.Microsecond {
				sleep *= 2
			}
		}
	}
}

// drainAll runs all callbacks queued at an epoch strictly before
// target, returning how many ran. The grace period advancing the
// domain to target has already elapsed. Callbacks run outside the
// shard locks, so a callback may itself Defer.
func (d *Domain) drainAll(target uint64) int {
	var total int64
	for i := range d.shards {
		total += d.shards[i].pending()
	}
	d.noteHighWater(total)

	ranTotal := 0
	for i := range d.shards {
		s := &d.shards[i]
		// Swap the segment out under the lock, run callbacks outside it
		// (a callback may itself Defer into this shard). The swapped-out
		// array is recycled as the next segment so the steady state
		// allocates nothing.
		s.mu.Lock()
		old := s.cbs
		s.cbs = s.spare[:0]
		s.spare = nil
		s.mu.Unlock()

		ran := 0
		keep := old[:0] // compacts in place; only indices already read are rewritten
		for _, cb := range old {
			if cb.epoch < target {
				cb.fn()
				ran++
			} else {
				// Queued while this grace period was already underway
				// (epoch == target): not yet safe, hold for the next one.
				keep = append(keep, cb)
			}
		}
		s.mu.Lock()
		if len(keep) == 0 {
			clear(old[:cap(old)])
			s.spare = old[:0]
		} else {
			// Put survivors back in front of any new arrivals; the
			// arrivals' backing array is then free to recycle as the
			// next segment.
			arrivals := s.cbs
			s.cbs = append(keep, arrivals...)
			clear(arrivals[:cap(arrivals)])
			s.spare = arrivals[:0]
		}
		s.mu.Unlock()
		if ran > 0 {
			s.drained.Add(uint64(ran))
			s.drains.Add(1)
			ranTotal += ran
		}
	}
	return ranTotal
}

// noteHighWater records the largest pending-callback count ever
// observed (sampled at grace-period boundaries).
func (d *Domain) noteHighWater(total int64) {
	for {
		hw := d.pendingHW.Load()
		if total <= hw || d.pendingHW.CompareAndSwap(hw, total) {
			return
		}
	}
}

// pendingTotal sums the shards' pending callback counts.
func (d *Domain) pendingTotal() int64 {
	var total int64
	for i := range d.shards {
		total += d.shards[i].pending()
	}
	return total
}

// Stats is a snapshot of a domain's counters.
type Stats struct {
	GracePeriods uint64 // grace periods completed
	Defers       uint64 // callbacks queued via Defer/DeferOn
	Ran          uint64 // callbacks executed
	Pending      int    // callbacks still queued
	Readers      int    // registered readers
	Shards       int    // callback segments

	PendingHighWater int    // max pending sampled at grace-period boundaries
	OverBudget       uint64 // Defers that found their shard over the backpressure budget

	GPLatencyAvg time.Duration      // mean grace-period latency
	GPLatencyMax time.Duration      // worst grace-period latency
	GP           stats.LatencyStats // grace-period latency percentiles

	ShardQueued  []uint64 // per-shard callbacks ever queued
	ShardDrains  []uint64 // per-shard drain passes that removed callbacks
	ShardPending []int    // per-shard callbacks still queued (the backlog view)

	// GPInFlight reports whether a grace period was executing at
	// snapshot time — the live half of the GP latency story.
	GPInFlight bool
}

// Stats returns a snapshot of the domain's counters.
func (d *Domain) Stats() Stats {
	st := Stats{
		GracePeriods:     d.gracePeriods.Load(),
		Shards:           len(d.shards),
		PendingHighWater: int(d.pendingHW.Load()),
		OverBudget:       d.overBudget.Load(),
		GPLatencyMax:     time.Duration(d.gpMaxNanos.Load()),
		GP:               d.gpHist.Stats(),
		ShardQueued:      make([]uint64, len(d.shards)),
		ShardDrains:      make([]uint64, len(d.shards)),
		ShardPending:     make([]int, len(d.shards)),
		GPInFlight:       d.gpActive.Load(),
	}
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		q, n := s.queued.Load(), len(s.cbs)
		s.mu.Unlock()
		st.Defers += q
		st.Ran += s.drained.Load()
		st.Pending += n
		st.ShardQueued[i] = q
		st.ShardDrains[i] = s.drains.Load()
		st.ShardPending[i] = n
	}
	d.readersMu.Lock()
	st.Readers = len(d.readers)
	d.readersMu.Unlock()
	if st.GracePeriods > 0 {
		st.GPLatencyAvg = time.Duration(d.gpTotalNanos.Load() / st.GracePeriods)
	}
	return st
}
