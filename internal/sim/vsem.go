package sim

import "bonsai/internal/coherence"

// VSem is a reader/writer semaphore in virtual time, modeled on the
// Linux rw_semaphore behind mmap_sem. Its costs reproduce the three
// components the paper's §7.2 breakdown identifies:
//
//   - every acquisition and release performs an atomic on the semaphore
//     word's cache line ("31% of its time manipulating the mmap_sem
//     cache line to acquire and release the lock");
//   - contended acquisitions also hammer the wait-queue spinlock line
//     ("9.6% of its time contending for the mmap_sem's wait queue
//     spinlock");
//   - sleepers pay a wake-up latency when granted ("less time handling
//     sleeps and wakeups").
//
// Writers are preferred, as in the real-lock substrate (internal/locks).
type VSem struct {
	s        *Sim
	semLine  *coherence.Line
	waitLine *coherence.Line

	readers int
	writer  bool
	waitR   []*Proc
	waitW   []*Proc

	// WakeCycles is the schedule-in latency of a woken sleeper.
	WakeCycles uint64

	// Heavy marks a full rw_semaphore (mmap_sem): its acquire and
	// release paths touch the count word twice (fetch-and-add plus the
	// sign/waiter check-and-correct cmpxchg), where a plain rwlock_t —
	// like the Hybrid design's tree lock — is a single atomic each
	// way. This is what makes mmap_sem's per-fault cache-line bill
	// larger than the tree lock's, as the paper's §7.2 breakdown and
	// Figure 17 separation show.
	Heavy bool
}

// NewVSem returns a semaphore bound to the simulation.
func NewVSem(s *Sim, wakeCycles uint64, heavy bool) *VSem {
	return &VSem{
		s: s, semLine: coherence.NewLine(), waitLine: coherence.NewLine(),
		WakeCycles: wakeCycles, Heavy: heavy,
	}
}

// RLock acquires in read mode, sleeping while a writer holds or waits.
func (v *VSem) RLock(c *Ctx) {
	c.Acquire(v.semLine) // atomic add on the count word
	if v.Heavy {
		c.Acquire(v.semLine) // rwsem waiter-bias check/correct
	}
	if v.writer || len(v.waitW) > 0 {
		c.Acquire(v.waitLine) // wait-queue spinlock
		// Recheck: the Acquire yielded, so a release may have slipped
		// in (the same recheck-under-waitlock the real rwsem does).
		if v.writer || len(v.waitW) > 0 {
			v.waitR = append(v.waitR, c.p)
			c.Park()
			// Woken holding the read side; the waiter still touches the
			// semaphore word on wake-up (count handoff), paying the
			// line transfer like any other acquisition.
			c.Acquire(v.semLine)
			return
		}
	}
	v.readers++
}

// RUnlock releases a read acquisition.
func (v *VSem) RUnlock(c *Ctx) {
	c.Acquire(v.semLine)
	if v.Heavy {
		c.Acquire(v.semLine) // rwsem wake-queue check on release
	}
	v.readers--
	if v.readers == 0 && len(v.waitW) > 0 {
		v.grantWriter(c.Now())
	}
}

// Lock acquires in write mode.
func (v *VSem) Lock(c *Ctx) {
	c.Acquire(v.semLine)
	if v.writer || v.readers > 0 {
		c.Acquire(v.waitLine)
		if v.writer || v.readers > 0 {
			v.waitW = append(v.waitW, c.p)
			c.Park()
			c.Acquire(v.semLine) // count handoff on wake
			return
		}
	}
	v.writer = true
}

// Unlock releases a write acquisition, waking the next writer or all
// waiting readers.
func (v *VSem) Unlock(c *Ctx) {
	c.Acquire(v.semLine)
	v.writer = false
	switch {
	case len(v.waitW) > 0:
		v.grantWriter(c.Now())
	case len(v.waitR) > 0:
		v.grantReaders(c.Now())
	}
}

func (v *VSem) grantWriter(now uint64) {
	w := v.waitW[0]
	v.waitW = v.waitW[1:]
	v.writer = true
	v.s.Wake(w, now+v.WakeCycles)
}

func (v *VSem) grantReaders(now uint64) {
	for i, r := range v.waitR {
		v.readers++
		// Wake-ups are issued in FIFO order with a small serialization
		// per sleeper (the wait-queue walk).
		v.s.Wake(r, now+v.WakeCycles+uint64(i)*200)
	}
	v.waitR = v.waitR[:0]
}
