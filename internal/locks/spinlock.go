// Package locks provides the VM system's spinlock: a test-and-set lock
// (the kernel's page-directory and PTE locks) that counts its
// acquisitions and the contended ones, so the harness can report
// contention the way the paper does in §7.2. The designs' semaphores
// are sync.RWMutex (RWSem).
package locks

import (
	"runtime"
	"sync/atomic"
)

// SpinLock is a test-and-set spinlock, the analogue of the kernel
// spinlocks protecting page-directory entries and page-table entries
// (§4.1). The zero value is an unlocked SpinLock. Grants are unordered,
// as with x86's virt_spin_lock on a hypervisor: a free lock goes to
// whoever takes it first, so no one queues behind a descheduled waiter.
type SpinLock struct {
	state     atomic.Uint64 // 2 × acquisitions, plus 1 while held: never wraps
	contended atomic.Uint64
}

// Lock acquires the spinlock, spinning (with cooperative yielding) until
// it is free.
func (l *SpinLock) Lock() {
	for spins := 0; ; spins++ {
		if s := l.state.Load(); s&1 == 0 && l.state.CompareAndSwap(s, s+1) {
			if spins > 0 {
				l.contended.Add(1)
			}
			return
		}
		if spins%64 == 63 {
			runtime.Gosched()
		}
	}
}

// TryLock attempts to acquire the lock without spinning. It reports
// whether the lock was acquired.
func (l *SpinLock) TryLock() bool {
	s := l.state.Load()
	return s&1 == 0 && l.state.CompareAndSwap(s, s+1)
}

// Unlock releases the spinlock. It must be called exactly once per Lock.
func (l *SpinLock) Unlock() {
	l.state.Add(1)
}

// Stats reports how many times the lock was acquired (the holder
// included) and how many of those acquisitions had to wait for another
// holder. A contended acquisition is counted once it holds the lock, so
// reading contended first keeps it no greater than acquisitions.
func (l *SpinLock) Stats() (acquisitions, contended uint64) {
	contended = l.contended.Load()
	return (l.state.Load() + 1) >> 1, contended
}
