package physmem

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"bonsai/internal/fail"
)

// TestInUseExactUnderStorm: with the allocation counters spread over
// the magazines, InUse must still be exact — never negative or above
// the pool mid-storm, equal to what the workers still hold when they
// stop, zero once they free it — across every path that moves the
// counts: Alloc/Free on a CPU, FreeRemote, FreeBatch, AllocRun/FreeRun,
// and DrainMagazines shuffling frames underneath.
func TestInUseExactUnderStorm(t *testing.T) {
	const cpus, frames = 4, 8192
	a := New(Config{Frames: frames, CPUs: cpus, MagazineSize: 16})
	var wg sync.WaitGroup
	var stop atomic.Bool
	var held atomic.Int64 // frames the workers hold right now, by their own count

	auditor := make(chan struct{})
	go func() {
		defer close(auditor)
		for !stop.Load() {
			if n := a.InUse(); n < 0 || n > frames {
				t.Errorf("InUse = %d mid-storm, outside [0, %d]", n, frames)
				return
			}
			a.DrainMagazines()
		}
	}()

	keep := make([][]Frame, cpus)
	for cpu := 0; cpu < cpus; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cpu)))
			var mine []Frame
			for i := 0; i < 8000; i++ {
				switch op := rng.Intn(10); {
				case op < 5:
					f, err := a.Alloc(cpu)
					if err != nil {
						continue
					}
					held.Add(1)
					mine = append(mine, f)
				case op < 7 && len(mine) > 0:
					a.Free(cpu, mine[len(mine)-1])
					mine = mine[:len(mine)-1]
					held.Add(-1)
				case op < 8 && len(mine) > 0:
					a.FreeRemote(mine[len(mine)-1])
					mine = mine[:len(mine)-1]
					held.Add(-1)
				case op < 9 && len(mine) >= 8:
					batch := append([]Frame(nil), mine[len(mine)-8:]...)
					mine = mine[:len(mine)-8]
					a.FreeBatch(batch)
					held.Add(-8)
				default:
					run, err := a.AllocRun(cpu, 3)
					if err != nil {
						continue
					}
					held.Add(8)
					a.FreeRun(run, 3)
					held.Add(-8)
				}
			}
			keep[cpu] = mine
		}(cpu)
	}
	wg.Wait()
	stop.Store(true)
	<-auditor

	if got, want := a.InUse(), held.Load(); got != want {
		t.Fatalf("InUse = %d at quiesce, workers hold %d", got, want)
	}
	if got, want := a.FreeFrames(), int64(frames)-held.Load(); got != want {
		t.Fatalf("FreeFrames = %d, want %d", got, want)
	}
	for cpu, mine := range keep {
		for _, f := range mine {
			a.Free((cpu+1)%cpus, f) // freed on a different CPU than it was allocated on
		}
	}
	if got := a.InUse(); got != 0 {
		t.Fatalf("InUse = %d after freeing everything", got)
	}
	st := a.Stats()
	if st.Allocs != st.Frees || st.InUse != 0 || st.Free != frames {
		t.Fatalf("Stats at quiesce: %+v", st)
	}
	a.DrainMagazines()
	if err := a.AuditBuddy(); err != nil {
		t.Fatal(err)
	}
}

// TestInUseAcrossAllocsPass parks InUse's reader between its frees and
// allocs passes while the pool frees and reallocates more frames than
// it holds: the reading must still be one the pool could have held.
// A fold that counts those reallocations but not their frees reads 96.
func TestInUseAcrossAllocsPass(t *testing.T) {
	const frames = 64
	a := New(Config{Frames: frames, CPUs: 2})
	held := make([]Frame, frames/2)
	for i := range held {
		held[i], _ = a.Alloc(0)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	if err := fail.Enable(1, "physmem.counts-pass", fail.Config{Park: func(*fail.Point) {
		once.Do(func() { close(parked); <-release })
	}}); err != nil {
		t.Fatal(err)
	}
	defer fail.Disable("physmem.counts-pass")
	got := make(chan int64)
	go func() { got <- a.InUse() }()
	<-parked
	for i := 0; i < frames; i++ {
		a.Free(i%2, held[i%len(held)])
		f, err := a.Alloc((i + 1) % 2)
		if err != nil {
			t.Fatal(err)
		}
		held[i%len(held)] = f
	}
	close(release)
	if n := <-got; n < 0 || n > frames {
		t.Fatalf("InUse = %d, outside [0, %d]", n, frames)
	}
	if n := a.InUse(); n != frames/2 {
		t.Fatalf("InUse = %d at quiesce, want %d", n, frames/2)
	}
}

// TestPressureNoticedAtRefill: the low watermark is checked where
// frames leave the shared pool, so with a real magazine a crossing is
// signaled at most half a magazine late — and a magazine hit, which
// reads no shared counter, signals nothing.
func TestPressureNoticedAtRefill(t *testing.T) {
	const mag = 16
	a := New(Config{Frames: 256, CPUs: 2, MagazineSize: mag, LowWater: 128, HighWater: 160})
	signaled := func() bool {
		select {
		case <-a.Pressure():
			return true
		default:
			return false
		}
	}
	allocs := 0
	for ; allocs < 256; allocs++ {
		if _, err := a.Alloc(0); err != nil {
			t.Fatal(err)
		}
		if signaled() {
			break
		}
	}
	// Free frames first drop below 128 on the 129th allocation.
	if allocs+1 < 129 || allocs+1 > 129+mag/2 {
		t.Fatalf("pressure signaled on allocation %d, want within half a magazine after 129", allocs+1)
	}
	// AllocRun takes straight from the shared pool and checks every time.
	b := New(Config{Frames: 256, CPUs: 1, LowWater: 200, HighWater: 220})
	if _, err := b.AllocRun(0, 6); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Pressure():
	default:
		t.Fatal("AllocRun below the low watermark published no token")
	}
}
