package rcu

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDeferNeverBlocksOnGracePeriod is the regression test for the
// synchronous design's deadlock: with a reader pinned inside a critical
// section no grace period can complete, yet Defer must keep returning
// immediately no matter how far past the batch size and backpressure
// budget the queue grows. The old implementation ran Synchronize inline
// once the batch filled and hung exactly here.
func TestDeferNeverBlocksOnGracePeriod(t *testing.T) {
	d := newDomain(4, 1)
	r := d.Register()

	r.Lock()
	const n = 10_000
	done := make(chan struct{})
	var ran atomic.Int64
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			d.Defer(func() { ran.Add(1) })
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Defer blocked with a reader active (grace-period wait on the caller's path)")
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d callbacks ran while the protecting reader was active", got)
	}
	if st := d.Stats(); st.OverBudget == 0 {
		t.Fatalf("backpressure budget never tripped: %+v", st)
	}
	r.Unlock()

	d.Synchronize()
	if got := ran.Load(); got != n {
		t.Fatalf("after Synchronize %d callbacks ran, want %d", got, n)
	}
	d.Close()
}

// TestBackgroundDrain verifies the domain reclaims on its own:
// callbacks run without any blocking call from the retiring side.
func TestBackgroundDrain(t *testing.T) {
	d := NewDomain(Options{BatchSize: 16})
	defer d.Close()
	var ran atomic.Int64
	const n = 100
	for i := 0; i < n; i++ {
		d.Defer(func() { ran.Add(1) })
	}
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d callbacks drained without a Synchronize", ran.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	if st := d.Stats(); st.GracePeriods == 0 {
		t.Fatalf("no grace periods recorded: %+v", st)
	}
}

// TestTrickleDrains verifies callbacks far below the batch are still
// reclaimed by the poller's timer: a handful of retired frames must not
// sit queued until the next batch or teardown.
func TestTrickleDrains(t *testing.T) {
	d := NewDomain(Options{}) // default batch: 3 callbacks never cross the threshold
	defer d.Close()
	var ran atomic.Int64
	for i := 0; i < 3; i++ {
		d.Defer(func() { ran.Add(1) })
	}
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("trickle not drained: %d/3 ran, stats %+v", ran.Load(), d.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentDeferSynchronize races many retiring goroutines against
// Synchronize callers and cycling readers; run under -race in CI. Every
// callback must run exactly once and only after a grace period.
func TestConcurrentDeferSynchronize(t *testing.T) {
	d := newDomain(32, 4)
	defer d.Close()

	const (
		writers      = 4
		perWriter    = 500
		synchronizer = 2
	)
	var ran atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := d.Register()
			defer d.Unregister(r)
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Lock()
				r.Unlock()
			}
		}()
	}
	var syncWG sync.WaitGroup
	for i := 0; i < synchronizer; i++ {
		syncWG.Add(1)
		go func() {
			defer syncWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.Synchronize()
			}
		}()
	}
	var defWG sync.WaitGroup
	for i := 0; i < writers; i++ {
		defWG.Add(1)
		go func() {
			defer defWG.Done()
			for j := 0; j < perWriter; j++ {
				d.Defer(func() { ran.Add(1) })
			}
		}()
	}
	defWG.Wait()
	d.Synchronize()
	if got := ran.Load(); got != writers*perWriter {
		t.Fatalf("ran %d callbacks, want %d", got, writers*perWriter)
	}
	close(stop)
	syncWG.Wait()
	wg.Wait()
}

// TestShardDistribution checks that explicit hints land on their shard
// and that Defer, from any goroutine, queues on shard 0.
func TestShardDistribution(t *testing.T) {
	d := newDomain(-1, 8)
	const perShard = 8
	for i := 0; i < 8*perShard; i++ {
		d.DeferOn(i%8, 1, func() {})
	}
	st := d.Stats()
	if st.Shards != 8 {
		t.Fatalf("Shards = %d, want 8", st.Shards)
	}
	for i, q := range st.ShardQueued {
		if q != perShard {
			t.Fatalf("shard %d queued %d callbacks, want %d (%v)", i, q, perShard, st.ShardQueued)
		}
	}
	// Hints beyond the shard count wrap.
	d.DeferOn(8, 1, func() {})
	if q := d.Stats().ShardQueued[0]; q != perShard+1 {
		t.Fatalf("wrapped hint landed wrong: shard 0 queued %d", q)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d.Defer(func() {})
			}
		}()
	}
	wg.Wait()
	st = d.Stats()
	if q := st.ShardQueued[0]; q != perShard+1+400 {
		t.Fatalf("Defer landed off shard 0: %v", st.ShardQueued)
	}
	want := uint64(8*perShard + 1 + 400)
	if st.Defers != want {
		t.Fatalf("Defers = %d, want %d", st.Defers, want)
	}
	d.Synchronize()
	if st := d.Stats(); st.Ran != want || st.Pending != 0 {
		t.Fatalf("after Synchronize: %+v", st)
	}
}

// TestCloseFlushes verifies Close stops the poller and runs every
// remaining callback, and that late Defers are caught.
func TestCloseFlushes(t *testing.T) {
	d := NewDomain(Options{})
	var ran atomic.Int64
	for i := 0; i < 10; i++ {
		d.Defer(func() { ran.Add(1) })
	}
	d.Close()
	if got := ran.Load(); got != 10 {
		t.Fatalf("Close ran %d callbacks, want 10", got)
	}
	d.Close() // idempotent

	defer func() {
		if recover() == nil {
			t.Fatal("Defer on closed Domain did not panic")
		}
	}()
	d.Defer(func() {})
}

// TestGracePeriodLatencyStats checks the grace-period latency
// histogram and the per-shard drain counts. Synchronize advances the
// epoch twice: the first advance passes the epoch the reader entered
// at, the second waits out the reader's dwell, and records it.
func TestGracePeriodLatencyStats(t *testing.T) {
	d := NewDomain(Options{BatchSize: -1})
	r := d.Register()
	release := make(chan struct{})
	entered := make(chan struct{})
	go func() {
		r.Lock()
		close(entered)
		<-release
		r.Unlock()
	}()
	<-entered
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(release)
	}()
	d.Defer(func() {})
	d.Synchronize()
	st := d.Stats()
	if st.GP.Count != 2 || st.GracePeriods != 2 {
		t.Fatalf("GP.Count = %d, GracePeriods = %d, want 2 advances", st.GP.Count, st.GracePeriods)
	}
	if worst := time.Duration(st.GP.MaxNs); worst < 2*time.Millisecond {
		t.Fatalf("GP.MaxNs = %v, want >= the reader's ~5ms dwell", worst)
	}
	var drains uint64
	for _, n := range st.ShardDrains {
		drains += n
	}
	if drains == 0 {
		t.Fatalf("no shard drains recorded: %+v", st)
	}
}

// TestRetiringCallerAdvancesAlone: a goroutine that retires without ever
// blocking must not leave its grace periods waiting for the scheduler's
// time slice to reach another goroutine. With one processor — every
// processor busy retiring, as on a loaded machine — the poller never
// runs, and the retiring caller advances the epoch itself once its
// shard passes the batch: the backlog when a drain starts stays near
// the batch instead of growing by ten milliseconds of Defers.
func TestRetiringCallerAdvancesAlone(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const batch = 256
	d := newDomain(batch, 1)
	defer d.Close()
	noop := func() {}
	for i := 0; i < 400*batch; i++ {
		d.Defer(noop)
	}
	d.Synchronize()
	if hw := d.Stats().PendingHighWater; hw > 4*batch {
		t.Errorf("backlog reached %d callbacks with a batch of %d: the caller waited for another goroutine", hw, batch)
	}
}

// TestRetiringCallerKeepsItsShardUnderBudget: a goroutine that retires
// alone at GOMAXPROCS(1), entering and leaving a read-side section
// between retirements as a faulting mapper does, keeps its own shard's
// pages within its share of the batch plus the callback that crossed
// it, with no other goroutine's help, and counts no refused advance.
func TestRetiringCallerKeepsItsShardUnderBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		batch  = 512
		shards = 2
		pages  = 4
	)
	d := newDomain(batch, shards)
	defer d.Close()
	r := d.Register()
	defer d.Unregister(r)
	s := &d.shards[1]
	var ran atomic.Int64
	release := func() { ran.Add(1) }
	peak := 0
	for i := 0; i < 100*batch; i++ {
		r.Lock()
		r.Unlock()
		d.DeferOn(1, pages, release)
		s.mu.Lock()
		peak = max(peak, s.pages)
		s.mu.Unlock()
	}
	if budget := batch/shards + pages; peak > budget {
		t.Errorf("shard held %d pages, want at most its share plus one callback, %d", peak, budget)
	}
	st := d.Stats()
	if st.OverBudget != 0 || ran.Load() == 0 {
		t.Errorf("OverBudget %d, %d callbacks ran: the caller did not keep pace alone", st.OverBudget, ran.Load())
	}
	if st.ShardQueued[0] != 0 {
		t.Errorf("shard 0 queued %d callbacks", st.ShardQueued[0])
	}
}
