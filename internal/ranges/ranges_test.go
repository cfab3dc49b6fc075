package ranges

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bonsai/internal/race"
)

// wholeSpace mirrors the VM layer's whole-address-space lock.
const wholeSpace = ^uint64(0)

func TestDisjointRangesDoNotBlock(t *testing.T) {
	var m Manager
	a := m.Lock(0x1000, 0x2000)
	b := m.Lock(0x3000, 0x4000)
	c := m.Lock(0x2000, 0x3000) // touching both, overlapping neither
	st := m.Stats()
	if st.Held != 3 || st.Conflicts != 0 {
		t.Fatalf("held=%d conflicts=%d, want 3 held, 0 conflicts", st.Held, st.Conflicts)
	}
	if st.MaxHeld != 3 {
		t.Fatalf("MaxHeld = %d, want 3", st.MaxHeld)
	}
	c.Unlock()
	b.Unlock()
	a.Unlock()
}

func TestOverlappingRangeBlocks(t *testing.T) {
	var m Manager
	a := m.Lock(0x1000, 0x3000)
	got := make(chan *Guard)
	go func() { got <- m.Lock(0x2000, 0x4000) }()
	select {
	case <-got:
		t.Fatal("overlapping lock granted while conflicting range held")
	case <-time.After(20 * time.Millisecond):
	}
	a.Unlock()
	b := <-got
	b.Unlock()
	st := m.Stats()
	if st.Conflicts != 1 {
		t.Fatalf("Conflicts = %d, want 1", st.Conflicts)
	}
}

// TestTouchingRangesAreDisjoint pins the half-open interval semantics:
// [lo, mid) and [mid, hi) never conflict.
func TestTouchingRangesAreDisjoint(t *testing.T) {
	var m Manager
	a := m.Lock(0, 0x1000)
	if _, ok := m.TryLock(0x1000, 0x2000); !ok {
		t.Fatal("touching range refused")
	}
	if _, ok := m.TryLock(0xfff, 0x1001); ok {
		t.Fatal("range overlapping both granted")
	}
	a.Unlock()
}

func TestTryLock(t *testing.T) {
	var m Manager
	a, ok := m.TryLock(0x1000, 0x2000)
	if !ok {
		t.Fatal("TryLock of free range failed")
	}
	if _, ok := m.TryLock(0x1800, 0x2800); ok {
		t.Fatal("TryLock of conflicting range succeeded")
	}
	if !m.Blocked(0x1fff, 0x2000) {
		t.Fatal("Blocked did not report the held range")
	}
	if m.Blocked(0x2000, 0x3000) {
		t.Fatal("Blocked reported a free range")
	}
	a.Unlock()
	if st := m.Stats(); st.TryFails != 1 {
		t.Fatalf("TryFails = %d, want 1", st.TryFails)
	}
}

// TestWholeSpaceWaitsForPendingHolders: a whole-space request (fork,
// Close) must wait for every held range, and once queued it must not be
// starved: later conflicting requests queue behind it, while disjoint
// pairs among them still run concurrently after it completes.
func TestWholeSpaceVsPendingHolders(t *testing.T) {
	var m Manager
	a := m.Lock(0x1000, 0x2000)
	b := m.Lock(0x5000, 0x6000)

	var order []string
	var mu sync.Mutex
	record := func(s string) { mu.Lock(); order = append(order, s); mu.Unlock() }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := m.Lock(0, wholeSpace)
		record("whole")
		g.Unlock()
	}()
	// Wait until the whole-space request is queued.
	for m.Stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}
	// A later request disjoint from every *held* range must still queue
	// behind the pending whole-space waiter (FIFO fairness).
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := m.Lock(0x3000, 0x4000)
		record("late")
		g.Unlock()
	}()
	for m.Stats().Waiting != 2 {
		time.Sleep(time.Millisecond)
	}
	if _, ok := m.TryLock(0x3000, 0x4000); ok {
		t.Fatal("TryLock jumped the FIFO queue past a pending whole-space waiter")
	}
	a.Unlock()
	b.Unlock()
	wg.Wait()
	if len(order) != 2 || order[0] != "whole" || order[1] != "late" {
		t.Fatalf("grant order = %v, want [whole late]", order)
	}
}

// TestFIFOAllowsDisjointOvertaking: waiters that conflict with nothing
// queued ahead of them are granted out of arrival order.
func TestFIFOAllowsDisjointOvertaking(t *testing.T) {
	var m Manager
	a := m.Lock(0x1000, 0x2000)
	waiterGranted := make(chan struct{})
	go func() {
		g := m.Lock(0x1000, 0x2000) // conflicts: queues
		close(waiterGranted)
		g.Unlock()
	}()
	for m.Stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}
	// Disjoint from both the holder and the waiter: granted immediately.
	g, ok := m.TryLock(0x8000, 0x9000)
	if !ok {
		t.Fatal("disjoint TryLock blocked by unrelated waiter")
	}
	g.Unlock()
	a.Unlock()
	<-waiterGranted
}

func TestUnlockReleasesAllUnblockedWaiters(t *testing.T) {
	var m Manager
	a := m.Lock(0, 0x10000)
	const n = 8
	var granted atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo := uint64(i) * 0x1000
			g := m.Lock(lo, lo+0x1000)
			granted.Add(1)
			time.Sleep(time.Millisecond)
			g.Unlock()
		}(i)
	}
	for m.Stats().Waiting != n {
		time.Sleep(time.Millisecond)
	}
	a.Unlock() // one release must unblock all n disjoint waiters
	wg.Wait()
	if granted.Load() != n {
		t.Fatalf("granted = %d, want %d", granted.Load(), n)
	}
	if st := m.Stats(); st.MaxHeld < 2 {
		t.Fatalf("MaxHeld = %d, want concurrent grants after the release", st.MaxHeld)
	}
}

func TestDoubleUnlockPanics(t *testing.T) {
	var m Manager
	g := m.Lock(0, 0x1000)
	g.Unlock()
	defer func() {
		if recover() == nil {
			t.Fatal("second Unlock did not panic")
		}
	}()
	g.Unlock()
}

// TestLockGuardReuse: a caller-owned guard goes round any number of
// acquisitions — granted at once, refused by TryLockGuard, queued behind
// a holder — and the uncontended round trip allocates nothing.
func TestLockGuardReuse(t *testing.T) {
	var m Manager
	var g Guard
	if avg := testing.AllocsPerRun(100, func() {
		m.LockGuard(&g, 0x1000, 0x2000)
		g.Unlock()
		if !m.TryLockGuard(&g, 0x1000, 0x3000) {
			t.Fatal("TryLockGuard refused a free range")
		}
		g.Unlock()
	}); avg != 0 && !race.Enabled {
		t.Errorf("an uncontended LockGuard/Unlock round trip allocates %.1f times, want 0", avg)
	}

	for round := 0; round < 3; round++ {
		holder := m.Lock(0, 0x8000)
		if m.TryLockGuard(&g, 0x1000, 0x2000) {
			t.Fatal("TryLockGuard took a held range")
		}
		granted := make(chan struct{})
		go func() {
			m.LockGuard(&g, 0x1000, 0x2000) // queues, then is granted by the release
			close(granted)
		}()
		for m.Stats().Waiting == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		holder.Unlock()
		<-granted
		if !g.Covers(0x1000, 0x2000) {
			t.Fatalf("round %d: guard covers [%#x, %#x)", round, g.Lo(), g.Hi())
		}
		g.Unlock()
	}
	if st := m.Stats(); st.Held != 0 || st.Waiting != 0 {
		t.Fatalf("left %d held, %d waiting", st.Held, st.Waiting)
	}

	m.LockGuard(&g, 0, 0x1000)
	defer func() {
		if recover() == nil {
			t.Fatal("LockGuard into a held guard did not panic")
		}
	}()
	m.LockGuard(&g, 0x2000, 0x3000)
}

func TestInvalidRangePanics(t *testing.T) {
	var m Manager
	defer func() {
		if recover() == nil {
			t.Fatal("empty range did not panic")
		}
	}()
	m.Lock(0x1000, 0x1000)
}

// TestStressRandomRanges hammers the manager from many goroutines and
// verifies mutual exclusion: no two held guards may overlap. Run with
// -race for the full effect.
func TestStressRandomRanges(t *testing.T) {
	var m Manager
	const (
		workers = 8
		iters   = 400
		slots   = 16
	)
	var owner [slots]atomic.Int32 // which worker holds each page slot
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := uint64(id)*2654435761 + 1
			for i := 0; i < iters; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				lo := (rng >> 33) % slots
				n := 1 + (rng>>21)%4
				hi := lo + n
				if hi > slots {
					hi = slots
				}
				g := m.Lock(lo*0x1000, hi*0x1000)
				for s := lo; s < hi; s++ {
					if !owner[s].CompareAndSwap(0, int32(id+1)) {
						t.Errorf("slot %d already owned while locked by %d", s, id)
					}
				}
				for s := lo; s < hi; s++ {
					if !owner[s].CompareAndSwap(int32(id+1), 0) {
						t.Errorf("slot %d ownership corrupted", s)
					}
				}
				g.Unlock()
			}
		}(w)
	}
	wg.Wait()
	st := m.Stats()
	if st.Held != 0 || st.Waiting != 0 {
		t.Fatalf("leaked state: held=%d waiting=%d", st.Held, st.Waiting)
	}
	if st.Acquires != workers*iters {
		t.Fatalf("Acquires = %d, want %d", st.Acquires, workers*iters)
	}
}
