package ranges

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// atProcs runs the test body at GOMAXPROCS 1 (no polling: a spinning
// waiter could only delay the holder it waits for) and 4 (poll, then
// park).
func atProcs(t *testing.T, body func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			body(t)
		})
	}
}

// spinFor busy-waits d without yielding the processor, like a holder
// doing real work under the lock.
func spinFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestSpinThenParkKeepsFIFO: conflicting waiters are granted in
// arrival order whether each was polling its flag or parked on its
// channel when its turn came. Hold times straddle spinLimit, so some
// grants land on a spinner, some on a parked waiter, and some while
// the waiter is between the two.
func TestSpinThenParkKeepsFIFO(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		holds := []time.Duration{0, spinLimit / 4, spinLimit, 4 * spinLimit}
		for round := 0; round < 40; round++ {
			var m Manager
			hold := holds[round%len(holds)]
			const waiters = 5
			var mu sync.Mutex
			var order []int
			var wg sync.WaitGroup
			first := m.Lock(0x1000, 0x5000)
			for i := 0; i < waiters; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					// All overlap [0x2000,0x3000): each conflicts with
					// every other, so grants must be strictly FIFO.
					g := m.Lock(0x2000-uint64(i)*0x100, 0x3000+uint64(i)*0x100)
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
					spinFor(hold)
					g.Unlock()
				}(i)
				for m.Stats().Waiting != i+1 { // i is queued before i+1 starts
					runtime.Gosched()
				}
			}
			spinFor(hold)
			first.Unlock()
			wg.Wait()
			for i, got := range order {
				if got != i {
					t.Fatalf("round %d (hold %v): grant order %v, want arrival order", round, hold, order)
				}
			}
			if st := m.Stats(); st.Held != 0 || st.Waiting != 0 || st.Conflicts != waiters || st.Wait.Count != waiters {
				t.Fatalf("round %d: stats after drain: %+v", round, st)
			}
		}
	})
}

// TestSpinThenParkNoLostWakeup hammers one range from many goroutines
// with hold times around the spin bound, so grants keep racing the
// moment a waiter stops polling and parks. A lost wake-up would leave
// a waiter blocked forever; the test would hang and the deadline fire.
func TestSpinThenParkNoLostWakeup(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		var m Manager
		const workers, rounds = 6, 300
		inside := 0 // guarded by the range lock itself
		done := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					g := m.Lock(0x1000, 0x2000)
					inside++
					if inside != 1 {
						t.Errorf("%d holders inside an exclusive range", inside)
					}
					// 0 … 2×spinLimit, so releases land before, at and
					// after a waiter's poll budget runs out.
					spinFor(time.Duration((w+r)%9) * spinLimit / 4)
					inside--
					g.Unlock()
				}
			}(w)
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("waiters stuck: %+v", m.Stats())
		}
		if st := m.Stats(); st.Acquires != workers*rounds || st.Held != 0 || st.Waiting != 0 {
			t.Fatalf("stats after drain: %+v", st)
		}
	})
}
