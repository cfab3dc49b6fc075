package vm

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"bonsai/internal/race"
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
				tune: tuning{lowWater: frames / 2, highWater: frames - 8, reclaimBatch: 8},
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
			pc := as.PageCacheStats()
			if pc.Evictions == 0 {
				t.Fatalf("reclaimer never evicted: %+v", as.ReclaimStats())
			}
			t.Logf("%s: evict=%d aborts=%d refault=%d wb=%d evict-unmaps=%d reclaim=%+v",
				d, pc.Evictions, pc.EvictAborts, pc.Refaults,
				pc.Writebacks, as.Stats().EvictUnmaps, as.ReclaimStats())
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
		pc := as.PageCacheStats()
		if pc.Evictions == 0 || pc.Refaults == 0 || pc.Writebacks == 0 {
			t.Errorf("evictions/refaults/writebacks = %d/%d/%d with the pool at half the working set, want all nonzero",
				pc.Evictions, pc.Refaults, pc.Writebacks)
		}
		if pc.Resident > int64(filePages)/2 {
			t.Errorf("resident %d pages exceeds the frame pool %d", pc.Resident, filePages/2)
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
	pc := as.PageCacheStats()
	if pc.Evictions == 0 || pc.Writebacks == 0 || pc.Refaults == 0 {
		t.Fatalf("working set fit the pool — no eviction exercised: %+v", pc)
	}
	if err := as.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictRefaultWholePage: a file page's contents survive eviction and
// refault byte for byte, not just at the offsets the other tests sample.
// A Shared mapping twice the frame pool is read end to end three times
// with every other page first overwritten with a pattern that differs
// in every byte, so clean pages are evicted and refilled from the file
// (the pristine fill) and dirty ones are evicted through writeback and
// refilled from the store. All 4,096 bytes of every page must read
// back, which a fill or a store copy that stops short would fail.
func TestEvictRefaultWholePage(t *testing.T) {
	const (
		filePages = 128
		frames    = 64
	)
	as, err := New(Config{Design: PureRCU, CPUs: 1, Frames: frames, Backing: true})
	if err != nil {
		t.Fatal(err)
	}
	file := vma.NewFile("whole.dat", 77)
	const fileOff = 5 * PageSize
	base, err := as.Mmap(0, filePages*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, fileOff)
	if err != nil {
		t.Fatal(err)
	}
	cpu := as.NewCPU(0)
	want := func(p uint64, dst *[PageSize]byte) {
		if p%2 == 1 {
			file.FillPage(dst, fileOff+p*PageSize)
			return
		}
		for i := range dst {
			dst[i] = byte(p*31 + uint64(i)*7 + uint64(i>>8))
		}
	}
	var buf, exp [PageSize]byte
	for p := uint64(0); p < filePages; p += 2 {
		want(p, &buf)
		if err := cpu.WriteBytes(base+p*PageSize, buf[:]); err != nil {
			t.Fatalf("write page %d: %v", p, err)
		}
	}
	for round := 0; round < 3; round++ {
		for p := uint64(0); p < filePages; p++ {
			if err := cpu.ReadBytes(base+p*PageSize, buf[:]); err != nil {
				t.Fatalf("round %d: read page %d: %v", round, p, err)
			}
			want(p, &exp)
			for i := range buf {
				if buf[i] != exp[i] {
					t.Fatalf("round %d: page %d (dirty %v) byte %d = %#x, want %#x",
						round, p, p%2 == 0, i, buf[i], exp[i])
				}
			}
		}
	}
	pc := as.PageCacheStats()
	if pc.Refaults < filePages || pc.Writebacks < filePages/2 {
		t.Fatalf("refaults %d, writebacks %d: want every page refaulted and every dirty one written back",
			pc.Refaults, pc.Writebacks)
	}
	if err := as.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRefaultEvictAllocs is the larger-than-cache path's allocation
// budget: a tenant sweeping a Shared file twice its frame limit refaults
// every page of every sweep, and each tenant-local reclaim scan evicts a
// batch. A refault allocates its Page and nothing else — the reverse map
// lives inside the Page, the fill writes in place — and a scan's own
// allocations are a constant that does not grow with its batch: the
// candidates, the rmap snapshot and the gather are reused, and the
// evicted frames leave in the gather's one pooled batch. The one
// allocation a scan still makes is the RCU grace period's snapshot of
// its readers (ReclaimAccount waits one out so the caller sees the
// charge drop). Measured: 1.06 and 1.02 allocations, 129 and 128 bytes
// per refault at batches of 16 and 64; with the reverse map as a Go map
// per Page, a closure per evicted frame and scratch slices per scan it
// was 5.5 and 5.2 allocations, 524 and 529 bytes, so 71 and 263
// allocations per scan beyond the Pages — growing with the batch.
func TestRefaultEvictAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	const limit = 256
	for _, batch := range []int{16, 64} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			// No background poller: the scans run the grace periods
			// themselves, so what is out with the domain does not depend
			// on scheduling.
			h := NewHost(Config{Design: PureRCU, CPUs: 1, Frames: 4 * limit, Backing: true,
				tune: tuning{rcuBatch: -1, reclaimBatch: batch}}, 1)
			as, err := h.Admit("", limit)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := as.Close(); err != nil {
					t.Error(err)
				}
				if err := h.Close(); err != nil {
					t.Error(err)
				}
			}()
			const pages = 2 * limit
			base, err := as.Mmap(0, pages*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, vma.NewFile("hog.dat", 5), 0)
			if err != nil {
				t.Fatal(err)
			}
			cpu := as.NewCPU(0)
			sweep := func(n int) {
				for s := 0; s < n; s++ {
					for p := uint64(0); p < pages; p++ {
						if err := cpu.Fault(base+p*PageSize, p%8 == 0); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			sweep(3) // page tables, store buffers, pools and maps primed

			const sweeps = 8
			refaults, scans := as.PageCacheStats().Refaults, as.ReclaimStats().AccountRuns
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sweep(sweeps)
			runtime.ReadMemStats(&after)
			refaults = as.PageCacheStats().Refaults - refaults
			scans = as.ReclaimStats().AccountRuns - scans
			if refaults < sweeps*pages*9/10 || scans == 0 {
				t.Fatalf("%d refaults, %d scans over %d sweeps: the sweep did not cycle the cache", refaults, scans, sweeps)
			}
			allocs := float64(after.Mallocs - before.Mallocs)
			perRefault := allocs / float64(refaults)
			bytesPerRefault := float64(after.TotalAlloc-before.TotalAlloc) / float64(refaults)
			// What is left after one Page per refault is the scans' own.
			perScan := (allocs - float64(refaults)) / float64(scans)
			t.Logf("%d refaults, %d scans: %.3f allocations and %.0f bytes per refault, %.2f allocations per scan beyond the Pages",
				refaults, scans, perRefault, bytesPerRefault, perScan)
			if perScan > 2 {
				t.Errorf("a batch-%d scan allocates %.2f times beyond one Page per refault; the budget is 2 whatever the batch",
					batch, perScan)
			}
			if bytesPerRefault > 136 {
				t.Errorf("%.0f bytes per refaulted page; the budget is the 128-byte Page and the scans' share", bytesPerRefault)
			}
		})
	}
}
