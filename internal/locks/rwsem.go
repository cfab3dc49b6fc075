package locks

import (
	"sync"
	"sync/atomic"
)

// RWSem is a reader/writer semaphore modeled on the Linux rw_semaphore
// that implements mmap_sem (§4.1). Semantics:
//
//   - Any number of readers may hold the semaphore concurrently.
//   - A writer holds it exclusively.
//   - Writers are preferred: once a writer is waiting, new readers queue
//     behind it. This reproduces the paper's observation that a single
//     memory-mapping operation delays every page fault (Figure 2).
//
// The zero value is an unlocked RWSem.
//
// Statistics distinguish fast (uncontended) acquisitions from ones that
// had to sleep, mirroring the paper's accounting of time spent waiting
// for and manipulating the mmap_sem (§7.2).
type RWSem struct {
	mu       sync.Mutex
	rCond    *sync.Cond
	wCond    *sync.Cond
	readers  int
	writer   bool
	waitingW int

	readAcquires  atomic.Uint64
	writeAcquires atomic.Uint64
	readSleeps    atomic.Uint64
	writeSleeps   atomic.Uint64
}

func (s *RWSem) initLocked() {
	if s.rCond == nil {
		s.rCond = sync.NewCond(&s.mu)
		s.wCond = sync.NewCond(&s.mu)
	}
}

// RLock acquires the semaphore in read (shared) mode.
func (s *RWSem) RLock() {
	s.mu.Lock()
	s.initLocked()
	slept := false
	for s.writer || s.waitingW > 0 {
		slept = true
		s.rCond.Wait()
	}
	s.readers++
	s.mu.Unlock()
	s.readAcquires.Add(1)
	if slept {
		s.readSleeps.Add(1)
	}
}

// RUnlock releases a read-mode acquisition.
func (s *RWSem) RUnlock() {
	s.mu.Lock()
	s.readers--
	if s.readers < 0 {
		s.mu.Unlock()
		panic("locks: RUnlock of unlocked RWSem")
	}
	if s.readers == 0 && s.waitingW > 0 {
		s.wCond.Signal()
	}
	s.mu.Unlock()
}

// Lock acquires the semaphore in write (exclusive) mode.
func (s *RWSem) Lock() {
	s.mu.Lock()
	s.initLocked()
	s.waitingW++
	slept := false
	for s.writer || s.readers > 0 {
		slept = true
		s.wCond.Wait()
	}
	s.waitingW--
	s.writer = true
	s.mu.Unlock()
	s.writeAcquires.Add(1)
	if slept {
		s.writeSleeps.Add(1)
	}
}

// Unlock releases a write-mode acquisition. Waiting writers are woken
// before waiting readers.
func (s *RWSem) Unlock() {
	s.mu.Lock()
	if !s.writer {
		s.mu.Unlock()
		panic("locks: Unlock of RWSem not held in write mode")
	}
	s.writer = false
	if s.waitingW > 0 {
		s.wCond.Signal()
	} else {
		s.rCond.Broadcast()
	}
	s.mu.Unlock()
}

// RWSemStats is a snapshot of an RWSem's acquisition counters.
type RWSemStats struct {
	ReadAcquires  uint64 // total read-mode acquisitions
	WriteAcquires uint64 // total write-mode acquisitions
	ReadSleeps    uint64 // read acquisitions that blocked
	WriteSleeps   uint64 // write acquisitions that blocked
}

// Stats returns a snapshot of the semaphore's counters.
func (s *RWSem) Stats() RWSemStats {
	return RWSemStats{
		ReadAcquires:  s.readAcquires.Load(),
		WriteAcquires: s.writeAcquires.Load(),
		ReadSleeps:    s.readSleeps.Load(),
		WriteSleeps:   s.writeSleeps.Load(),
	}
}
