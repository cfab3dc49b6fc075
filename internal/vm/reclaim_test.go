package vm

import (
	"sync"
	"testing"
	"time"

	"bonsai/internal/vma"
)

// TestEvictionFaultStorm races the reclaimer against everything at
// once: sibling spaces fault-storm a shared file that does not fit the
// frame pool while also zapping chunks with madvise(DONTNEED), the
// background reclaimer is configured with watermarks high enough to
// keep it permanently scanning, and direct reclaim fires whenever the
// pool runs dry. The assertions are the invariants: no fault may fail,
// and teardown must find every frame accounted for (the physmem state
// bitmap turns any double free of a racing eviction/zap pair into a
// panic, and Close reports leaks as errors).
func TestEvictionFaultStorm(t *testing.T) {
	const (
		spaces    = 2
		workers   = 2
		filePages = 96
		frames    = 64
	)
	dur := 400 * time.Millisecond
	if testing.Short() {
		dur = 100 * time.Millisecond
	}
	for _, d := range []Design{RWLock, PureRCU} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			as, err := New(Config{
				Design: d, CPUs: workers, MaxFamily: spaces, Frames: frames,
				Backing: true,
				// Keep kswapd permanently under its high watermark so the
				// scan runs continuously against the faulters.
				LowWater: frames / 2, HighWater: frames - 8,
				ReclaimBatch: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			file := vma.NewFile("storm.dat", 3)
			all := []*AddressSpace{as}
			for i := 1; i < spaces; i++ {
				sib, err := as.NewSibling()
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, sib)
			}
			bases := make([]uint64, spaces)
			for i, sp := range all {
				base, err := sp.Mmap(0, filePages*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, 0)
				if err != nil {
					t.Fatal(err)
				}
				bases[i] = base
			}

			stop := make(chan struct{})
			errCh := make(chan error, spaces*workers)
			done := make(chan struct{}, spaces*workers)
			for si, sp := range all {
				for w := 0; w < workers; w++ {
					go func(sp *AddressSpace, base uint64, w int) {
						defer func() { done <- struct{}{} }()
						cpu := sp.NewCPU(w)
						chunk := uint64(filePages / workers * w)
						for round := 0; ; round++ {
							select {
							case <-stop:
								return
							default:
							}
							for p := uint64(0); p < filePages; p++ {
								if err := cpu.Fault(base+p*PageSize, p%3 == 0); err != nil {
									errCh <- err
									return
								}
							}
							// Zap our chunk so DONTNEED's rmap removal
							// races the scan's revocations.
							if err := sp.MadviseDontNeed(base+chunk*PageSize,
								uint64(filePages/workers)*PageSize); err != nil {
								errCh <- err
								return
							}
						}
					}(sp, bases[si], w)
				}
			}
			time.Sleep(dur)
			close(stop)
			for i := 0; i < spaces*workers; i++ {
				<-done
			}
			select {
			case err := <-errCh:
				t.Fatalf("storm worker failed: %v", err)
			default:
			}
			st := as.Stats()
			if st.PageCacheEvictions == 0 {
				t.Fatalf("reclaimer never evicted: %+v", as.ReclaimStats())
			}
			t.Logf("%s: evict=%d aborts=%d refault=%d wb=%d evict-unmaps=%d reclaim=%+v",
				d, st.PageCacheEvictions, st.PageCacheEvictAborts, st.PageCacheRefaults,
				st.PageCacheWritebacks, st.EvictUnmaps, as.ReclaimStats())
			for i := len(all) - 1; i >= 0; i-- {
				if err := all[i].Close(); err != nil {
					t.Fatalf("teardown leak check: %v", err)
				}
			}
		})
	}
}

// TestMemoryPressureAllDesigns is the reclaim subsystem's acceptance
// gate: with the frame pool at half the file working set, two sibling
// spaces' workers sweep the whole file, each from its own rotation, so
// steady state is continuous reclaim. Under every policy no fault may
// fail — never out-of-memory while clean cache pages exist — pages must
// be evicted, written back and refaulted, and Close must find every
// frame.
func TestMemoryPressureAllDesigns(t *testing.T) {
	const spaces, workers = 2, 2
	filePages, rounds := 256, 3
	if testing.Short() {
		filePages, rounds = 128, 2
	}
	cfg := Config{CPUs: workers, MaxFamily: spaces, Backing: true, Frames: uint64(filePages) / 2}
	forEachDesign(t, cfg, func(t *testing.T, as *AddressSpace) {
		file := vma.NewFile("pressure.dat", 11)
		var wg sync.WaitGroup
		for si, sp := range []*AddressSpace{as, sibling(t, as)} {
			base, err := sp.Mmap(0, uint64(filePages)*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, 0)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(cpu *CPU, rot int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						for i := 0; i < filePages; i++ {
							p := uint64((rot + i) % filePages)
							if err := cpu.Fault(base+p*PageSize, p%4 == 0); err != nil {
								t.Errorf("space %d fault page %d: %v", si, p, err)
								return
							}
						}
					}
				}(sp.NewCPU(w), (si*workers+w)*filePages/(spaces*workers))
			}
		}
		wg.Wait()
		st := as.Stats()
		if st.PageCacheEvictions == 0 || st.PageCacheRefaults == 0 || st.PageCacheWritebacks == 0 {
			t.Errorf("evictions/refaults/writebacks = %d/%d/%d with the pool at half the working set, want all nonzero",
				st.PageCacheEvictions, st.PageCacheRefaults, st.PageCacheWritebacks)
		}
		if st.PageCacheResident > int64(filePages)/2 {
			t.Errorf("resident %d pages exceeds the frame pool %d", st.PageCacheResident, filePages/2)
		}
	})
}

// TestPressureWritebackIntegrity: stores survive eviction. A Shared
// mapping larger than the frame pool is written end to end, so pages
// are continuously evicted (dirty ones through writeback) and
// refaulted from the store; every byte must read back.
func TestPressureWritebackIntegrity(t *testing.T) {
	const (
		filePages = 128
		frames    = 72
	)
	as, err := New(Config{Design: PureRCU, CPUs: 1, MaxFamily: 1, Frames: frames, Backing: true})
	if err != nil {
		t.Fatal(err)
	}
	file := vma.NewFile("wb.dat", 99)
	base, err := as.Mmap(0, filePages*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := as.NewCPU(0)
	mark := func(p uint64) byte { return byte(p*7 + 13) }
	for p := uint64(0); p < filePages; p++ {
		if err := cpu.WriteBytes(base+p*PageSize+11, []byte{mark(p)}); err != nil {
			t.Fatalf("write page %d: %v", p, err)
		}
	}
	var b [1]byte
	for p := uint64(0); p < filePages; p++ {
		if err := cpu.ReadBytes(base+p*PageSize+11, b[:]); err != nil {
			t.Fatalf("read page %d: %v", p, err)
		}
		if b[0] != mark(p) {
			t.Fatalf("page %d byte = %#x, want %#x (lost across eviction)", p, b[0], mark(p))
		}
	}
	st := as.Stats()
	if st.PageCacheEvictions == 0 || st.PageCacheWritebacks == 0 || st.PageCacheRefaults == 0 {
		t.Fatalf("working set fit the pool — no eviction exercised: %+v", st)
	}
	if err := as.Close(); err != nil {
		t.Fatal(err)
	}
}
