package locks

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSpinLockMutualExclusion(t *testing.T) {
	var l SpinLock
	var counter int
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d", counter, workers*iters)
	}
	acq, _ := l.Stats()
	if acq != workers*iters {
		t.Fatalf("acquisitions = %d, want %d", acq, workers*iters)
	}
}

func TestSpinLockTryLock(t *testing.T) {
	var l SpinLock
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	l.Unlock()
}

// TestSpinLockCountsItsAcquisitions: the lock word counts acquisitions,
// so Stats must equal Lock calls plus successful TryLocks exactly — a
// failed TryLock writes nothing — and never report more contended
// acquisitions than acquisitions.
func TestSpinLockCountsItsAcquisitions(t *testing.T) {
	var l SpinLock
	const workers, iters = 8, 3000
	var wg sync.WaitGroup
	var locked, tried atomic.Uint64
	if !l.TryLock() { // one TryLock that cannot fail, whatever the schedule below does
		t.Fatal("TryLock on a free lock failed")
	}
	tried.Add(1)
	l.Unlock()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if (i+w)%3 == 0 {
					if !l.TryLock() {
						continue
					}
					tried.Add(1)
				} else {
					l.Lock()
					locked.Add(1)
				}
				if acq, cont := l.Stats(); cont > acq {
					t.Errorf("contended %d > acquisitions %d", cont, acq)
				}
				l.Unlock()
			}
		}(w)
	}
	wg.Wait()
	acq, cont := l.Stats()
	if want := locked.Load() + tried.Load(); acq != want {
		t.Fatalf("acquisitions = %d, want %d Lock calls + %d successful TryLocks", acq, locked.Load(), tried.Load())
	}
	if cont > acq {
		t.Fatalf("contended %d of %d acquisitions", cont, acq)
	}
}

// TestSpinLockFreeLockIgnoresParkedWaiter: grants are unordered, so a
// waiter that yielded its processor while spinning holds up no one. On
// one processor, a waiter spins and parks behind the holder; once the
// holder unlocks, a TryLock must take the free lock at once instead of
// waiting for the parked waiter to run (what a FIFO ticket lock does).
func TestSpinLockFreeLockIgnoresParkedWaiter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var l SpinLock
	l.Lock()
	started, done := make(chan struct{}), make(chan struct{})
	go func() {
		close(started)
		l.Lock()
		l.Unlock()
		close(done)
	}()
	<-started
	// Each yield runs the waiter through 64 failed spins into its own
	// yield: it is parked inside Lock, not before it.
	for i := 0; i < 3; i++ {
		runtime.Gosched()
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock failed on a free lock with a parked waiter")
	}
	l.Unlock()
	<-done
	if acq, cont := l.Stats(); acq != 3 || cont != 1 {
		t.Fatalf("Stats = %d acquisitions, %d contended; want 3, 1 (the waiter spun)", acq, cont)
	}
}

// TestSpinLockEveryWaiterProgresses: unordered grants must not starve
// anyone. Each of eight goroutines takes the lock 2,000 times, mixing
// Lock with TryLock retries, and every one must finish within the
// deadline, whatever -cpu runs the test.
func TestSpinLockEveryWaiterProgresses(t *testing.T) {
	const workers, iters = 8, 2000
	var l SpinLock
	var counter int
	done := make([]chan struct{}, workers)
	for w := range done {
		done[w] = make(chan struct{})
		go func(w int) {
			defer close(done[w])
			for i := 0; i < iters; i++ {
				if (i+w)%2 == 0 {
					l.Lock()
				} else {
					for !l.TryLock() {
						runtime.Gosched()
					}
				}
				counter++
				l.Unlock()
			}
		}(w)
	}
	deadline := time.After(10 * time.Second)
	for w, d := range done {
		select {
		case <-d:
		case <-deadline:
			t.Fatalf("worker %d did not finish its %d acquisitions within 10 s", w, iters)
		}
	}
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d", counter, workers*iters)
	}
}
