// Package locks provides the lock substrates used by the VM system:
// a ticket spinlock (the kernel's page-directory and PTE locks) and a
// reader/writer semaphore modeled on Linux's rw_semaphore (mmap_sem).
// Both keep acquisition statistics so the benchmark harness can report
// contention the way the paper does in §7.2.
package locks

import (
	"runtime"
	"sync/atomic"
)

// SpinLock is a FIFO ticket spinlock. It is the analogue of the kernel
// spinlocks protecting page-directory entries and page-table entries
// (§4.1). The zero value is an unlocked SpinLock. The ticket counter is
// 64 bits wide so it never wraps and doubles as the acquisition count:
// taking the lock writes the lock word and nothing beside it.
type SpinLock struct {
	next  atomic.Uint64 // tickets issued: Lock calls + successful TryLocks
	owner atomic.Uint64 // ticket being served

	contended atomic.Uint64
}

// Lock acquires the spinlock, spinning (with cooperative yielding) until
// the caller's ticket is served.
func (l *SpinLock) Lock() {
	t := l.next.Add(1) - 1
	spins := 0
	for l.owner.Load() != t {
		spins++
		if spins%64 == 0 {
			runtime.Gosched()
		}
	}
	if spins > 0 {
		l.contended.Add(1)
	}
}

// TryLock attempts to acquire the lock without spinning. It reports
// whether the lock was acquired.
func (l *SpinLock) TryLock() bool {
	o := l.owner.Load()
	return l.next.Load() == o && l.next.CompareAndSwap(o, o+1)
}

// Unlock releases the spinlock. It must be called exactly once per Lock.
func (l *SpinLock) Unlock() {
	l.owner.Add(1)
}

// Stats reports how many times the lock was acquired (tickets issued, so
// an acquisition still spinning is already counted) and how many of
// those acquisitions had to wait for another holder.
func (l *SpinLock) Stats() (acquisitions, contended uint64) {
	return l.next.Load(), l.contended.Load()
}
