// Package rcu implements an epoch-based read-copy-update runtime in the
// style of userspace RCU (liburcu) and the kernel RCU the paper builds
// on (§2). It provides:
//
//   - Registered readers with read-side critical sections that perform no
//     stores to shared cache lines beyond one padded per-reader slot
//     (mirroring the paper's requirement that page faults not contend on
//     shared lines).
//   - DeferOn (the analogue of call_rcu): run a callback after a grace
//     period, used to delay-free physical frames — the frames of data
//     pages, page tables and the page cache (§5.2, Figure 11); tree
//     nodes and VMAs are Go objects, left to the collector. DeferOn
//     appends to one callback shard, the caller's id (a fault's CPU, a
//     mapping operation's slot), so concurrent operations spread across
//     shards whatever addresses they touch; Defer, for a caller with no
//     such id (a page-cache truncate), queues on shard 0. A callback is
//     a function value the retiring side keeps (a gather's frame batch),
//     so queuing allocates nothing.
//   - Grace periods that the retiring side advances itself: epochs in
//     the verify-then-advance style of Fraser's epoch-based reclamation.
//     The epoch moves from E to E+1 only once every reader is quiescent
//     or entered at E or later, and a callback queued at epoch q runs
//     once the epoch reaches q+2. DeferOn counts the pages each callback
//     releases; when a shard holds more than its share of
//     Options.BatchSize pages, the retiring caller advances the epoch
//     once, by a compare-and-swap, if no reader holds it back, and runs
//     its shard's expired callbacks. It takes no domain-wide lock and
//     never waits: a reader holding the epoch back only leaves the
//     backlog for a later call. So on a machine whose every processor
//     runs a retiring goroutine, reclamation keeps pace without waiting
//     for a scheduler time slice to reach some other goroutine.
//   - A background poller for trickles below the batch: a timer-driven
//     goroutine that makes the same non-blocking attempt while anything
//     is pending.
//   - Synchronize (synchronize_rcu, and rcu_barrier too: it runs every
//     callback queued before it) and Close: the only blocking entry
//     points. Mutators that must observe reclamation (teardown, leak
//     checks, OOM recovery) call Synchronize; nothing else blocks.
//
// Go's garbage collector already guarantees that memory is not recycled
// while a reader can still reach it, so the BONSAI tree's displaced
// nodes need no grace period here. But the VM system reuses *resources*
// — physical frames, page-table frames among them — through its own
// allocator, by number. Returning those to the allocator before a grace
// period has elapsed is a real bug that this package's grace-period
// machinery prevents, exactly as in the kernel.
package rcu

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/fail"
	"bonsai/internal/stats"
	"bonsai/internal/trace"
)

// failGPDelay stretches grace periods (armed only by fault injection;
// see internal/fail): when it fires at an advance, the epoch holds for
// the armed delay, and every deferred free and zap retirement behind it
// backs up. Retiring callers never sleep on it; their advances are
// refused until the delay has passed.
var failGPDelay = fail.NewPoint("rcu.gp-delay")

// cacheLine is the assumed cache-line size used to pad per-reader and
// per-shard state so concurrent CPUs never share a line (the property
// the paper's pure-RCU design depends on).
const cacheLine = 64

// clockBase anchors the domain's monotonic clock readings.
var clockBase = time.Now()

func now() time.Duration { return time.Since(clockBase) }

// Domain is an independent RCU domain: a set of registered readers plus
// sharded segments of deferred callbacks. The zero value is not usable;
// call NewDomain.
type Domain struct {
	epoch atomic.Uint64 // current epoch; a reader's Lock records it

	// readers is the registered readers, copied on every change under
	// readersMu, so an advance scans it without a lock.
	readersMu sync.Mutex
	readers   atomic.Pointer[[]*Reader]

	shards    []shard
	shardMask uint32

	// published is when the current epoch was published (or, while
	// nothing was pending, last found idle): an advance records its age.
	published atomic.Int64
	// heldUntil is when an injected grace-period delay ends.
	heldUntil atomic.Int64

	manual bool // no poller, no caller advances: callbacks run only in Synchronize
	share  int  // pages a shard may hold before its retiring caller advances

	stopc     chan struct{}
	startOnce sync.Once
	started   atomic.Bool
	exited    chan struct{}
	closed    atomic.Bool

	// statistics
	gracePeriods atomic.Uint64
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
	_  [cacheLine]byte
	mu sync.Mutex
	// cbs[head:] are the queued callbacks, in queuing order and so in
	// epoch order; a drain takes them from the head.
	cbs     []callback
	head    int
	pages   int           // pages the queued callbacks release
	running atomic.Int64  // callbacks taken by a drain and not yet run
	queued  atomic.Uint64 // callbacks ever appended to this shard
	drained atomic.Uint64 // callbacks run from this shard
	drains  atomic.Uint64 // drain passes that ran at least one callback
	_       [cacheLine]byte
}

// pending returns the shard's currently queued callback count.
func (s *shard) pending() int64 {
	return int64(s.queued.Load()) - int64(s.drained.Load())
}

type callback struct {
	epoch uint64 // epoch observed when the callback was queued
	pages int
	fn    func()
}

// expired reports whether a callback queued at epoch q may run at
// epoch e: two advances since, each of which found every reader
// quiescent or entered at or after the epoch it left, so none entered
// before the callback was queued.
func expired(q, e uint64) bool { return e >= q+2 }

// Options configures a Domain.
type Options struct {
	// BatchSize is the number of pages pending callbacks may release,
	// across the domain, before retiring callers advance the grace
	// period themselves: each shard's share is BatchSize divided by the
	// shard count. Zero means DefaultBatchSize. Negative disables every
	// automatic advance: callbacks run only when the caller invokes
	// Synchronize, which keeps reclamation deterministic for tests.
	BatchSize int
}

// DefaultBatchSize is the batch, in pages, used when Options.BatchSize
// is zero.
const DefaultBatchSize = 4096

// maxShards caps the shard count.
const maxShards = 64

// NewDomain returns a ready-to-use RCU domain with one callback shard
// per processor (GOMAXPROCS rounded up to a power of two, at most
// maxShards). Domains with a non-negative BatchSize lazily start one
// background poller goroutine on first Defer; call Close to stop it and
// flush remaining callbacks.
func NewDomain(opts Options) *Domain {
	batch := opts.BatchSize
	if batch == 0 {
		batch = DefaultBatchSize
	}
	shards := 1
	for shards < min(runtime.GOMAXPROCS(0), maxShards) {
		shards <<= 1
	}
	return newDomain(batch, shards)
}

// newDomain returns a domain of shards callback shards (a power of
// two), each holding at most its share of batch pages before its
// retiring caller advances (negative: never).
func newDomain(batch, shards int) *Domain {
	d := &Domain{
		manual:    batch < 0,
		shards:    make([]shard, shards),
		shardMask: uint32(shards - 1),
		share:     max(batch/shards, 1),
		stopc:     make(chan struct{}),
		exited:    make(chan struct{}),
	}
	d.readers.Store(new([]*Reader))
	d.epoch.Store(1)
	d.published.Store(int64(now()))
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
	rs := append(slices.Clone(*d.readers.Load()), r)
	d.readers.Store(&rs)
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
	rs := slices.DeleteFunc(slices.Clone(*d.readers.Load()), func(rr *Reader) bool { return rr == r })
	d.readers.Store(&rs)
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

// Defer is DeferOn(0, 1, fn), for a caller with no CPU-like identity
// releasing one page's worth.
func (d *Domain) Defer(fn func()) { d.DeferOn(0, 1, fn) }

// DeferOn queues fn, which releases pages pages, to run after a grace
// period on the shard of hint, the caller's CPU-like identity (the VM
// layer passes a fault's CPU id or a mapping operation's slot); hints
// beyond the shard count wrap around. It appends to that one shard and,
// while the shard holds no more than its share of the batch, returns:
// no domain-global lock, no grace-period work. Past its share the
// caller does the grace-period work itself (Poll) before returning. fn
// is stored as given: a caller that keeps one function value per
// recycled batch (tlb's frame batches) queues it without allocating.
func (d *Domain) DeferOn(hint, pages int, fn func()) {
	if d.Queue(hint, pages, fn) {
		d.Poll(hint)
	}
}

// Queue is DeferOn without the grace-period work: it reports whether
// the shard now holds more than its share, so the caller owes a Poll of
// hint. A caller that queues inside an exclusion other threads wait on
// (a mapping operation's range lock) pays it once it has released it.
func (d *Domain) Queue(hint, pages int, fn func()) (owed bool) {
	if d.closed.Load() {
		panic("rcu: Defer on closed Domain")
	}
	i := uint32(hint) & d.shardMask
	s := &d.shards[i]
	s.mu.Lock()
	if len(s.cbs) == cap(s.cbs) && s.head > 0 {
		// Full, with drained slots in front: reuse them.
		n := copy(s.cbs, s.cbs[s.head:])
		clear(s.cbs[n:])
		s.cbs, s.head = s.cbs[:n], 0
	}
	e := d.epoch.Load() // under the lock, so a shard's callbacks are in epoch order
	s.cbs = append(s.cbs, callback{epoch: e, pages: pages, fn: fn})
	s.pages += pages
	over := s.pages > d.share
	s.queued.Add(1)
	s.mu.Unlock()
	trace.Emit(trace.AuxCPU, trace.EvRCUDefer, e, uint64(i), uint64(s.pending()))

	if d.manual {
		return false // manual mode: drained only by Synchronize
	}
	if !d.started.Load() {
		d.ensurePoller()
	}
	return over
}

// Poll is a retiring caller's grace-period work on the shard of hint:
// advance the epoch once if no reader holds it back, then run the
// shard's expired callbacks — on this goroutine, so they cost it their
// frees. It never waits: a lagging reader leaves the work for a later
// call (the refused advances are Stats.OverBudget).
func (d *Domain) Poll(hint int) {
	d.noteHighWater(d.pendingTotal())
	if _, ok := d.tryAdvance(); !ok {
		d.overBudget.Add(1)
	}
	d.drain(&d.shards[uint32(hint)&d.shardMask])
}

// ensurePoller starts the background poller once.
func (d *Domain) ensurePoller() {
	d.startOnce.Do(func() {
		d.started.Store(true)
		go d.poller()
	})
}

// tryAdvance moves the epoch from E to E+1 if every reader is quiescent
// or entered at E or later, reporting whether the epoch moved past E (a
// concurrent advance counts); if a reader held it back, that reader and
// E are the first result. It takes no lock and never waits, so no
// caller is ever held up by another that was preempted mid-advance.
func (d *Domain) tryAdvance() (lag lagging, ok bool) {
	t := int64(now())
	if t < d.heldUntil.Load() {
		return lagging{}, false
	}
	e := d.epoch.Load()
	for _, r := range *d.readers.Load() {
		if s := r.state.Load(); s != 0 && s < e {
			return lagging{r, e}, false
		}
	}
	if delay := failGPDelay.FireDelay(); delay > 0 {
		// Injected grace-period stall: the epoch holds while callbacks
		// pile up behind it.
		d.heldUntil.Store(t + int64(delay))
		return lagging{}, false
	}
	if !d.epoch.CompareAndSwap(e, e+1) {
		return lagging{}, true // another caller advanced it
	}
	age := time.Duration(t - d.published.Swap(t))
	d.gpHist.Record(age)
	id := d.gracePeriods.Add(1)
	trace.Emit(trace.AuxCPU, trace.EvGPEnd, id, e+1, uint64(age))
	trace.Emit(trace.AuxCPU, trace.EvGPStart, id+1, e+1, 0)
	return lagging{}, true
}

// lagging is a reader that holds the epoch back, and the epoch it must
// reach (or leave its critical section) for the advance to proceed.
type lagging struct {
	r     *Reader
	epoch uint64
}

// Synchronize waits until every read-side critical section that was
// active when Synchronize was called has completed (a full grace
// period). Callbacks queued before the call are run before it returns.
// It advances the epoch two steps past the one it found, waiting for
// whichever reader holds an advance back, then drains every shard and
// waits for drains other goroutines have in progress.
// It is a blocking entry point: never call it while holding locks that
// an active reader may be waiting for.
func (d *Domain) Synchronize() {
	for target := d.epoch.Load() + 2; d.epoch.Load() < target; {
		switch lag, ok := d.tryAdvance(); {
		case ok:
		case lag.r != nil:
			waitQuiescent(lag.r, lag.epoch)
		default:
			time.Sleep(time.Duration(d.heldUntil.Load()) - now())
		}
	}
	d.drainAll()
	for i := range d.shards {
		for n := 0; d.shards[i].running.Load() > 0; n++ {
			if n < 256 {
				yield()
			} else {
				time.Sleep(time.Microsecond)
			}
		}
	}
}

// Close stops the background poller (if it ever started) and flushes
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

// waitQuiescent blocks until the reader is quiescent or started its
// current critical section at or after the target epoch. It spins
// briefly, then yields, then parks with exponential backoff — a
// blocking caller can afford to sleep; readers never signal (signaling
// would put a shared store on the read path).
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

// drainBatch is how many callbacks a drain takes from its shard per
// hold of the shard lock.
const drainBatch = 32

// drain runs s's callbacks that have expired at the current epoch. It
// takes them from the head of the shard a batch at a time and runs them
// outside the shard lock (a callback may itself Defer); concurrent
// drains of one shard split its callbacks between them, and
// Synchronize waits out the taken-but-unrun count.
func (d *Domain) drain(s *shard) {
	e := d.epoch.Load()
	var batch [drainBatch]callback
	ran := 0
	for {
		s.mu.Lock()
		n, pages := 0, 0
		for ; n < len(batch) && s.head < len(s.cbs) && expired(s.cbs[s.head].epoch, e); n++ {
			batch[n] = s.cbs[s.head]
			s.cbs[s.head] = callback{}
			s.head++
			pages += batch[n].pages
		}
		if s.head == len(s.cbs) {
			s.cbs, s.head = s.cbs[:0], 0
		}
		s.pages -= pages
		s.running.Add(int64(n))
		s.mu.Unlock()
		for j := range batch[:n] {
			batch[j].fn()
			batch[j] = callback{}
		}
		s.drained.Add(uint64(n))
		s.running.Add(-int64(n))
		ran += n
		if n < len(batch) {
			break
		}
	}
	if ran > 0 {
		s.drains.Add(1)
	}
}

// drainAll samples the backlog and drains every shard.
func (d *Domain) drainAll() {
	d.noteHighWater(d.pendingTotal())
	for i := range d.shards {
		d.drain(&d.shards[i])
	}
}

// noteHighWater records the largest pending-callback count ever
// observed (sampled when a drain follows an advance attempt).
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
	GracePeriods uint64 // epoch advances
	Defers       uint64 // callbacks queued via Defer/DeferOn
	Ran          uint64 // callbacks executed
	Pending      int    // callbacks still queued
	Readers      int    // registered readers
	Shards       int    // callback segments

	PendingHighWater int    // max pending sampled at drains
	OverBudget       uint64 // retiring callers over their shard's share whose advance was refused

	// GP is the grace-period latency: per advance, how long the epoch
	// it passed had been published.
	GP stats.LatencyStats

	ShardQueued  []uint64 // per-shard callbacks ever queued
	ShardDrains  []uint64 // per-shard drain passes that removed callbacks
	ShardPending []int    // per-shard callbacks still queued (the backlog view)

	// GPInFlight reports whether callbacks were waiting on a grace
	// period at snapshot time — the live half of the GP latency story.
	GPInFlight bool
}

// Stats returns a snapshot of the domain's counters.
func (d *Domain) Stats() Stats {
	st := Stats{
		GracePeriods:     d.gracePeriods.Load(),
		Shards:           len(d.shards),
		PendingHighWater: int(d.pendingHW.Load()),
		OverBudget:       d.overBudget.Load(),
		GP:               d.gpHist.Stats(),
		ShardQueued:      make([]uint64, len(d.shards)),
		ShardDrains:      make([]uint64, len(d.shards)),
		ShardPending:     make([]int, len(d.shards)),
	}
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		q, n := s.queued.Load(), len(s.cbs)-s.head
		s.mu.Unlock()
		st.Defers += q
		st.Ran += s.drained.Load()
		st.Pending += n
		st.ShardQueued[i] = q
		st.ShardDrains[i] = s.drains.Load()
		st.ShardPending[i] = n
	}
	st.GPInFlight = st.Pending > 0
	st.Readers = len(*d.readers.Load())
	return st
}
