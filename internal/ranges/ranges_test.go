package ranges

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bonsai/internal/contention"
	"bonsai/internal/race"
)

// wholeSpace mirrors the VM layer's whole-address-space lock.
const wholeSpace = ^uint64(0)

// gib is one stripe span.
const gib = uint64(1) << StripeShift

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

// grantedAtOnce locks [lo, hi) and fails t unless the request was
// granted without queuing, Conflicts unchanged. A request that queued
// behind a holder the test never releases would wait forever, so the
// Lock runs beside a deadline.
func grantedAtOnce(t *testing.T, m *Manager, lo, hi uint64) *Guard {
	t.Helper()
	before := m.Stats().Conflicts
	got := make(chan *Guard, 1)
	go func() { got <- m.Lock(lo, hi) }()
	select {
	case g := <-got:
		if c := m.Stats().Conflicts; c != before {
			t.Fatalf("Lock(%#x, %#x) queued: Conflicts %d -> %d", lo, hi, before, c)
		}
		return g
	case <-time.After(10 * time.Second):
		t.Fatalf("Lock(%#x, %#x) was not granted", lo, hi)
		return nil
	}
}

// TestTouchingRangesAreDisjoint pins the half-open interval semantics:
// [lo, mid) and [mid, hi) never conflict, while a range one byte into
// each queues.
func TestTouchingRangesAreDisjoint(t *testing.T) {
	var m Manager
	a := m.Lock(0, 0x1000)
	b := grantedAtOnce(t, &m, 0x1000, 0x2000)
	got := make(chan *Guard, 1)
	go func() { got <- m.Lock(0xfff, 0x1001) }()
	for m.Stats().Waiting == 0 {
		select {
		case g := <-got:
			g.Unlock()
			t.Fatal("range overlapping both granted")
		case <-time.After(time.Millisecond):
		}
	}
	a.Unlock()
	b.Unlock()
	(<-got).Unlock()
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
	// A third request, overlapping the late one, must not jump the
	// queue either: it is granted last.
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := m.Lock(0x3000, 0x4000)
		record("probe")
		g.Unlock()
	}()
	for m.Stats().Waiting != 3 {
		time.Sleep(time.Millisecond)
	}
	a.Unlock()
	b.Unlock()
	wg.Wait()
	if len(order) != 3 || order[0] != "whole" || order[1] != "late" || order[2] != "probe" {
		t.Fatalf("grant order = %v, want [whole late probe]", order)
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
	grantedAtOnce(t, &m, 0x8000, 0x9000).Unlock()
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
// acquisitions — granted at once or queued behind a holder — and the
// uncontended round trip allocates nothing, in one stripe or across
// two.
func TestLockGuardReuse(t *testing.T) {
	var m Manager
	var g Guard
	if avg := testing.AllocsPerRun(100, func() {
		m.LockGuard(&g, 0x1000, 0x2000)
		g.Unlock()
		m.LockGuard(&g, 0x1000, 0x3000)
		g.Unlock()
		m.LockGuard(&g, gib-0x1000, gib+0x1000) // stripes 0 and 1
		g.Unlock()
	}); avg != 0 && !race.Enabled {
		t.Errorf("an uncontended LockGuard/Unlock round trip allocates %.1f times, want 0", avg)
	}

	for round := 0; round < 3; round++ {
		holder := m.Lock(0, 0x8000)
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
// verifies mutual exclusion: no two held guards may overlap. Slots are
// a quarter of a stripe's span and the space 18 spans, so ranges cross
// stripe boundaries and the 15 → 0 wrap, and one lock in 32 is the
// whole space. Run with -race for the full effect.
func TestStressRandomRanges(t *testing.T) {
	var m Manager
	const (
		workers = 8
		iters   = 400
		slot    = gib / 4
		slots   = 18 * 4
	)
	var owner [slots]atomic.Int32 // which worker holds each slot
	var wholes atomic.Uint64      // whole-space locks, each after a released draw
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := uint64(id)*2654435761 + 1
			for i := 0; i < iters; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				lo := (rng >> 33) % slots
				hi := min(lo+1+(rng>>21)%8, slots)
				g := m.Lock(lo*slot, hi*slot)
				if (rng>>13)%32 == 0 {
					g.Unlock()
					lo, hi = 0, slots
					g = m.Lock(0, wholeSpace)
					wholes.Add(1)
				}
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
	if want := workers*iters + wholes.Load(); st.Acquires != want || wholes.Load() == 0 {
		t.Fatalf("Acquires = %d, want %d (%d whole-space)", st.Acquires, want, wholes.Load())
	}
}

// TestGuardsAgesNeverNegative: a guard granted while Guards waits for
// the manager mutex is younger than any clock Guards read before it
// took the mutex, so Guards must read its clock under the mutex or
// report the guard with a negative age.
func TestGuardsAgesNeverNegative(t *testing.T) {
	var m Manager
	s := &m.stripes[0]
	s.mu.Lock()
	got := make(chan []GuardInfo)
	go func() { got <- m.Guards() }()
	for !blockedIn("(*Manager).Guards") {
		time.Sleep(100 * time.Microsecond)
	}
	contention.Arm()
	defer contention.Disarm()
	g := &Guard{m: &m, lo: 0x1000, hi: 0x2000, mask: stripeMask(0x1000, 0x2000), held: true}
	s.grantLocked(g, 0)
	s.mu.Unlock()
	infos := <-got
	if len(infos) != 1 {
		t.Fatalf("Guards = %+v, want the one granted guard", infos)
	}
	for _, gi := range infos {
		if gi.AgeNs < 0 {
			t.Fatalf("guard %d [%#x, %#x) has age %d ns", gi.ID, gi.Lo, gi.Hi, gi.AgeNs)
		}
	}
	g.Unlock()
}

// blockedIn reports whether some goroutine whose stack names fn is
// parked on a mutex.
func blockedIn(fn string) bool {
	buf := make([]byte, 1<<16)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		if strings.Contains(g, fn) &&
			(strings.Contains(header, "[sync.Mutex.Lock") || strings.Contains(header, "[semacquire")) {
			return true
		}
	}
	return false
}
