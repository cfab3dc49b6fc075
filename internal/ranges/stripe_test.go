package ranges

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestStripeMask(t *testing.T) {
	for _, c := range []struct {
		lo, hi uint64
		want   uint16
	}{
		{0x1000, 0x2000, 1 << 0},
		{gib, 2 * gib, 1 << 1},                   // one whole span
		{gib - 0x1000, gib + 0x1000, 0b11},       // across a boundary
		{16*gib - 0x1000, 16*gib + 1, 1<<15 | 1}, // across the wrap
		{5 * gib, 20 * gib, 0xffff &^ (1 << 4)},  // 15 spans, wrapping: all but 4
		{gib, 17 * gib, 0xffff},                  // 16 spans
		{0, wholeSpace, 0xffff},
		{21*gib + 7, 21*gib + 8, 1 << 5},
	} {
		if got := stripeMask(c.lo, c.hi); got != c.want {
			t.Errorf("stripeMask(%#x, %#x) = %#016b, want %#016b", c.lo, c.hi, got, c.want)
		}
	}
}

// waitQueued waits until n requests are queued at stripe i.
func waitQueued(t *testing.T, m *Manager, i, n int) {
	t.Helper()
	s := &m.stripes[i]
	for deadline := time.Now().Add(10 * time.Second); ; {
		s.mu.Lock()
		got := len(s.queue)
		s.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stripe %d: %d queued, want %d", i, got, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// lockAsync locks [lo, hi) on its own goroutine and sends the guard
// once granted.
func lockAsync(m *Manager, lo, hi uint64) <-chan *Guard {
	got := make(chan *Guard, 1)
	go func() { got <- m.Lock(lo, hi) }()
	return got
}

// notYet fails t if got has delivered a guard.
func notYet(t *testing.T, got <-chan *Guard, what string) {
	t.Helper()
	select {
	case <-got:
		t.Fatalf("%s was granted", what)
	default:
	}
}

// TestStripeCrossingConflictsOnEitherSide: a range across a stripe
// boundary conflicts with a holder on either side of it. Held on the
// low side, it queues at its first stripe; held on the high side, it
// takes its first stripe and queues at the second, keeping later
// conflicting requests off the first.
func TestStripeCrossingConflictsOnEitherSide(t *testing.T) {
	var m Manager
	lo, hi := gib-0x1800, gib+0x1800

	left := m.Lock(gib-0x2000, gib-0x1000)
	got := lockAsync(&m, lo, hi)
	waitQueued(t, &m, 0, 1)
	notYet(t, got, "the crossing range beside the low holder")
	left.Unlock()
	(<-got).Unlock()

	right := m.Lock(gib+0x1000, gib+0x2000)
	got = lockAsync(&m, lo, hi)
	waitQueued(t, &m, 1, 1)
	notYet(t, got, "the crossing range beside the high holder")
	// It holds stripe 0 while it waits at 1: a conflicting request
	// queues there, a disjoint one is granted.
	late := lockAsync(&m, gib-0x1000, gib-0x800)
	waitQueued(t, &m, 0, 1)
	grantedAtOnce(t, &m, 0x1000, 0x2000).Unlock()
	if st := m.Stats(); st.Held != 2 || st.Waiting != 2 {
		t.Fatalf("Stats = %+v, want 2 held (one still acquiring), 2 waiting", st)
	}
	right.Unlock()
	g := <-got
	notYet(t, late, "the request queued behind the crossing range")
	g.Unlock()
	(<-late).Unlock()
}

// TestStripeWrap: a range crossing the 16 GiB boundary touches stripes
// 15 and 0 and takes 0 first. With stripe 15's side held it waits at 15
// holding 0; with stripe 0's side held it waits at 0 without touching
// 15, where a later conflicting request is then granted at once.
func TestStripeWrap(t *testing.T) {
	var m Manager
	const top = 16 * gib
	lo, hi := top-0x1000, top+0x1000

	below := m.Lock(top-0x2000, top-0x800) // stripe 15
	got := lockAsync(&m, lo, hi)
	waitQueued(t, &m, 15, 1)
	late := lockAsync(&m, top, top+0x800) // stripe 0, conflicts
	waitQueued(t, &m, 0, 1)
	grantedAtOnce(t, &m, 0x1000, 0x2000).Unlock() // stripe 0, disjoint
	infos := m.Guards()
	i := slices.IndexFunc(infos, func(gi GuardInfo) bool { return gi.Lo == lo })
	if i < 0 || !infos[i].Waiting || infos[i].ID%StripeCount != 0 {
		t.Fatalf("Guards = %+v: want the wrapping range waiting, its id from stripe 0", infos)
	}
	below.Unlock()
	g := <-got
	notYet(t, late, "the request behind the wrapping range")
	g.Unlock()
	(<-late).Unlock()

	above := m.Lock(top+0x800, top+0x1800) // stripe 0
	got = lockAsync(&m, lo, hi)
	waitQueued(t, &m, 0, 1)
	early := grantedAtOnce(t, &m, top-0x800, top) // stripe 15: not reached
	above.Unlock()
	waitQueued(t, &m, 15, 1)
	notYet(t, got, "the wrapping range beside a stripe-15 holder")
	early.Unlock()
	(<-got).Unlock()
	if st := m.Stats(); st.Held != 0 || st.Waiting != 0 {
		t.Fatalf("Stats = %+v after the drain", st)
	}
}

// TestWholeSpaceNeverOvertakenWhereQueued: a whole-space request queues
// behind holders in stripes 2, 5 and 9 in turn, and at each stripe it
// has queued on, a later conflicting request lines up behind it. A
// later request at a stripe it has not reached yet is granted first,
// and the whole-space request waits for it there.
func TestWholeSpaceNeverOvertakenWhereQueued(t *testing.T) {
	var m Manager
	at := func(i uint64, off uint64) (uint64, uint64) { return i*gib + off, i*gib + off + 0x1000 }
	holders := map[int]*Guard{}
	for _, i := range []int{2, 5, 9} {
		holders[i] = m.Lock(at(uint64(i), 0))
	}
	var mu sync.Mutex
	var order []string
	record := func(s string) { mu.Lock(); order = append(order, s); mu.Unlock() }

	whole := make(chan *Guard, 1)
	go func() { g := m.Lock(0, wholeSpace); record("whole"); whole <- g }()
	var wg sync.WaitGroup
	var early *Guard
	for _, i := range []int{2, 5, 9} {
		waitQueued(t, &m, i, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := m.Lock(at(uint64(i), 0x10000)) // disjoint from the holder
			record("late")
			g.Unlock()
		}()
		waitQueued(t, &m, i, 2)
		if i == 9 { // stripe 12 is still ahead of it: a later request there goes first
			lo, hi := at(12, 0)
			early = grantedAtOnce(t, &m, lo, hi)
		}
		holders[i].Unlock()
	}
	waitQueued(t, &m, 12, 1)
	early.Unlock()
	g := <-whole
	mu.Lock()
	if len(order) != 1 || order[0] != "whole" {
		t.Fatalf("grant order %v, want the whole-space request first", order)
	}
	mu.Unlock()
	g.Unlock()
	wg.Wait()
	if len(order) != 4 {
		t.Fatalf("grant order %v, want whole then three late requests", order)
	}
}

// managerWords is every byte of m, read as the memory it is.
func managerWords(m *Manager) []byte {
	return bytes.Clone(unsafe.Slice((*byte)(unsafe.Pointer(m)), unsafe.Sizeof(*m)))
}

// TestStripesShareNoWord is the range manager's shared-write audit:
// uncontended LockGuard/Unlock round trips in one stripe leave every
// byte of the manager outside that stripe unchanged — no other
// stripe's mutex, lists, counters or id source, no manager-wide word —
// and a cache line of padding separates one stripe's words from the
// next's.
func TestStripesShareNoWord(t *testing.T) {
	var m Manager
	var a, b Guard
	round := func(g *Guard, stripe uint64) {
		m.LockGuard(g, stripe*gib+0x1000, stripe*gib+0x2000)
		g.Unlock()
	}
	round(&a, 5) // both stripes' held lists exist
	round(&b, 6)
	before := managerWords(&m)
	for range 3 {
		round(&a, 5)
		round(&a, 5+StripeCount) // the same stripe, 16 GiB up
	}
	after := managerWords(&m)
	size := unsafe.Sizeof(m.stripes[0])
	lo := unsafe.Offsetof(m.stripes) + 5*size
	for off := range before {
		if before[off] != after[off] && (uintptr(off) < lo || uintptr(off) >= lo+size) {
			t.Errorf("byte %d of the manager (outside stripe 5 at [%d, %d)) went %#x -> %#x",
				off, lo, lo+size, before[off], after[off])
		}
	}
	if bytes.Equal(before[lo:lo+size], after[lo:lo+size]) {
		t.Error("stripe 5 did not move: the audit watches nothing")
	}
	var s stripe
	if words := unsafe.Offsetof(s.nextID) + unsafe.Sizeof(s.nextID); size-words < cacheLine {
		t.Errorf("stripes of %d bytes with %d bytes of words: less than a line between two stripes' words", size, words)
	}
}
