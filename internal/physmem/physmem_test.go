package physmem

import (
	"sync"
	"testing"
)

func TestAllocFree(t *testing.T) {
	a := New(Config{Frames: 128, CPUs: 1})
	f, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if f == NoFrame {
		t.Fatal("allocated NoFrame")
	}
	if !a.Allocated(f) {
		t.Fatal("frame not marked allocated")
	}
	if a.InUse() != 1 {
		t.Fatalf("InUse = %d", a.InUse())
	}
	a.Free(0, f)
	if a.Allocated(f) {
		t.Fatal("frame still marked allocated")
	}
	if a.InUse() != 0 {
		t.Fatalf("InUse = %d", a.InUse())
	}
}

func TestExhaustion(t *testing.T) {
	a := New(Config{Frames: 8, CPUs: 1, MagazineSize: 2})
	var frames []Frame
	for {
		f, err := a.Alloc(0)
		if err == ErrOutOfMemory {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if len(frames) != 8 {
		t.Fatalf("allocated %d frames from a pool of 8", len(frames))
	}
	seen := map[Frame]bool{}
	for _, f := range frames {
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
	}
	for _, f := range frames {
		a.Free(0, f)
	}
	if a.InUse() != 0 {
		t.Fatalf("InUse = %d after freeing all", a.InUse())
	}
	// The pool must be fully reusable.
	for i := 0; i < 8; i++ {
		if _, err := a.Alloc(0); err != nil {
			t.Fatalf("realloc %d: %v", i, err)
		}
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := New(Config{Frames: 8, CPUs: 1})
	f, _ := a.Alloc(0)
	a.Free(0, f)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(0, f)
}

func TestFreeInvalidPanics(t *testing.T) {
	a := New(Config{Frames: 8, CPUs: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Free(NoFrame) did not panic")
		}
	}()
	a.Free(0, NoFrame)
}

func TestBackingZeroedOnAlloc(t *testing.T) {
	a := New(Config{Frames: 8, CPUs: 1, Backing: true})
	f, _ := a.Alloc(0)
	buf := a.Data(f)
	buf[0], buf[PageSize-1] = 0xAA, 0xBB
	a.Free(0, f)
	// Reallocate until we get the same frame back; contents must be zero.
	for i := 0; i < 8; i++ {
		g, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		if g == f {
			d := a.Data(g)
			if d[0] != 0 || d[PageSize-1] != 0 {
				t.Fatal("recycled frame not zeroed")
			}
			return
		}
	}
	t.Skip("frame not recycled within pool size")
}

// TestDrainMagazines checks the stranded-frame steal path: frames
// cached in one CPU's magazine must be allocatable from another CPU
// instead of producing a spurious ErrOutOfMemory.
func TestDrainMagazines(t *testing.T) {
	a := New(Config{Frames: 8, CPUs: 2, MagazineSize: 8})
	// CPU 0 allocates everything and frees it all back into its own
	// magazine (8 <= MagazineSize, so nothing spills globally).
	var frames []Frame
	for {
		f, err := a.Alloc(0)
		if err != nil {
			break
		}
		frames = append(frames, f)
	}
	if len(frames) != 8 {
		t.Fatalf("allocated %d of 8", len(frames))
	}
	for _, f := range frames {
		a.Free(0, f)
	}
	// CPU 1's magazine and the global pool are both empty; the alloc
	// must succeed by draining CPU 0's magazine.
	if _, err := a.Alloc(1); err != nil {
		t.Fatalf("cpu 1 alloc with frames stranded in cpu 0's magazine: %v", err)
	}
	if st := a.Stats(); st.Drained == 0 {
		t.Fatalf("no frames recorded as drained: %+v", st)
	}
}

// TestConcurrentDrainsNeverFailSpuriously: with every free frame
// stranded in other CPUs' magazines, allocations racing on CPUs with
// empty magazines must all succeed — the one whose steal comes back
// empty because a concurrent steal just took everything included.
func TestConcurrentDrainsNeverFailSpuriously(t *testing.T) {
	const hoarders, racers = 8, 8
	for round := 0; round < 200; round++ {
		a := New(Config{Frames: 256, CPUs: hoarders + racers, MagazineSize: 64})
		var frames []Frame
		for i := 0; ; i++ {
			f, err := a.Alloc(i % hoarders)
			if err != nil {
				break
			}
			frames = append(frames, f)
		}
		for i, f := range frames {
			a.Free(i%hoarders, f)
		}
		start := make(chan struct{})
		errs := make(chan error, racers)
		var wg sync.WaitGroup
		for cpu := hoarders; cpu < hoarders+racers; cpu++ {
			wg.Add(1)
			go func(cpu int) {
				defer wg.Done()
				<-start
				if _, err := a.Alloc(cpu); err != nil {
					errs <- err
				}
			}(cpu)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: allocation failed with %d of 256 frames in use: %v", round, a.InUse(), err)
		}
	}
}

// TestPressureSignal checks the watermark latch: one token below the
// low watermark, re-armed only after recovering above the high one.
func TestPressureSignal(t *testing.T) {
	a := New(Config{Frames: 16, CPUs: 1, MagazineSize: 2, LowWater: 8, HighWater: 12})
	var frames []Frame
	alloc := func(n int) {
		for i := 0; i < n; i++ {
			f, err := a.Alloc(0)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
		}
	}
	alloc(12) // free = 4 < low
	select {
	case <-a.Pressure():
	default:
		t.Fatal("no pressure token below the low watermark")
	}
	alloc(2) // deeper below low: latched, no second token
	select {
	case <-a.Pressure():
		t.Fatal("pressure signaled twice without recovering")
	default:
	}
	for _, f := range frames {
		a.Free(0, f)
	}
	frames = nil
	alloc(12) // recovered above high, then back below low: re-armed
	select {
	case <-a.Pressure():
	default:
		t.Fatal("pressure did not re-arm after recovery above the high watermark")
	}
	if st := a.Stats(); st.PressureEvents != 2 {
		t.Fatalf("PressureEvents = %d, want 2", st.PressureEvents)
	}
}

func TestConcurrentPerCPU(t *testing.T) {
	const cpus = 4
	a := New(Config{Frames: 4096, CPUs: cpus, MagazineSize: 16})
	var wg sync.WaitGroup
	for c := 0; c < cpus; c++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			var local []Frame
			for i := 0; i < 2000; i++ {
				if len(local) > 0 && i%3 == 0 {
					a.Free(cpu, local[len(local)-1])
					local = local[:len(local)-1]
					continue
				}
				f, err := a.Alloc(cpu)
				if err != nil {
					t.Errorf("cpu %d: %v", cpu, err)
					return
				}
				local = append(local, f)
			}
			for _, f := range local {
				a.Free(cpu, f)
			}
		}(c)
	}
	wg.Wait()
	if a.InUse() != 0 {
		t.Fatalf("InUse = %d after all frees", a.InUse())
	}
	st := a.Stats()
	if st.Allocs != st.Frees {
		t.Fatalf("allocs %d != frees %d", st.Allocs, st.Frees)
	}
}

// TestFreeBatch: a batch free drops one reference per frame, returns
// only final frames to the pool, and panics like Free on underflow.
func TestFreeBatch(t *testing.T) {
	a := New(Config{Frames: 64, CPUs: 1})
	var frames []Frame
	for i := 0; i < 8; i++ {
		f, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	// An extra reference on frames[0] keeps it allocated through the
	// batch; everything else frees.
	a.Ref(frames[0])
	batch := make([]Frame, len(frames))
	copy(batch, frames)
	a.FreeBatch(batch)
	if !a.Allocated(frames[0]) {
		t.Fatal("referenced frame freed by batch")
	}
	for _, f := range frames[1:] {
		if a.Allocated(f) {
			t.Fatalf("frame %d still allocated after batch free", f)
		}
	}
	if a.InUse() != 1 {
		t.Fatalf("InUse = %d, want 1", a.InUse())
	}
	a.FreeBatch([]Frame{frames[0]})
	if a.InUse() != 0 {
		t.Fatalf("InUse = %d after final drop, want 0", a.InUse())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FreeBatch underflow did not panic")
		}
	}()
	a.FreeBatch([]Frame{frames[1]})
}

// TestGenAdvancesPerAllocation: the allocation generation distinguishes
// incarnations of a recycled frame.
func TestGenAdvancesPerAllocation(t *testing.T) {
	a := New(Config{Frames: 1, CPUs: 1})
	f, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	g1 := a.Gen(f)
	a.Free(0, f)
	if a.Gen(f) != g1 {
		t.Fatal("Gen changed on free")
	}
	f2, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f {
		t.Fatalf("one-frame pool recycled a different frame: %d vs %d", f2, f)
	}
	if a.Gen(f2) != g1+1 {
		t.Fatalf("Gen = %d after recycle, want %d", a.Gen(f2), g1+1)
	}
}
