package vm

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bonsai/internal/fail"
	"bonsai/internal/vma"
)

// rcuDesigns are the designs whose faults run beside mapping
// operations, which they exclude with range locks.
var rcuDesigns = []Design{Hybrid, PureRCU}

// forEachRangeLocked runs the body on each range-locked design.
func forEachRangeLocked(t *testing.T, cfg Config, body func(t *testing.T, as *AddressSpace)) {
	t.Helper()
	for _, d := range rcuDesigns {
		t.Run(d.String(), func(t *testing.T) {
			c := cfg
			c.Design = d
			as, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			body(t, as)
			if err := as.Close(); err != nil {
				t.Errorf("teardown: %v", err)
			}
		})
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// armFlushDelay makes every TLB flush spin for d until the test ends: a
// straggling shootdown acknowledgement, which keeps a zapping mapping
// operation inside its critical section for d.
func armFlushDelay(t *testing.T, d time.Duration) {
	t.Helper()
	if err := fail.Enable(1, "tlb.flush-delay", fail.Config{OneIn: 1, Delay: d}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fail.Disable("tlb.flush-delay") })
}

// TestRangeLockTouchingRangesConcurrent: munmaps of touching-but-
// disjoint ranges must not conflict — half-open intervals share no
// page. The first munmap is made to dwell in its critical section (a
// long simulated TLB shootdown); the touching munmap must complete
// while it is still held, and the overlapping one must wait.
func TestRangeLockTouchingVsOverlapping(t *testing.T) {
	armFlushDelay(t, 100*time.Millisecond)
	forEachRangeLocked(t, Config{CPUs: 2},
		func(t *testing.T, as *AddressSpace) {
			const pages = 64
			size := uint64(pages) * PageSize
			lo := uint64(UnmappedBase)
			// Two adjacent regions with different protections so they
			// stay distinct VMAs (identical neighbors would merge, and a
			// munmap splitting the merged VMA legitimately covers both).
			mustMmap(t, as, lo, size, vma.ProtRead|vma.ProtWrite, vma.Fixed)
			mustMmap(t, as, lo+size, size, vma.ProtRead, vma.Fixed)
			cpu := as.NewCPU(0)
			if err := cpu.Fault(lo, true); err != nil {
				t.Fatal(err)
			}
			if err := cpu.Fault(lo+size, false); err != nil {
				t.Fatal(err)
			}

			// Dwell in the first munmap's critical section.
			done := make(chan error, 1)
			go func() { done <- as.Munmap(lo, size) }()
			waitFor(t, "first munmap to hold its range", func() bool {
				return as.RangeStats().Held > 0
			})

			// The touching munmap runs concurrently with the held one:
			// no range conflict may be recorded (an elapsed-time bound
			// would also hold — it pays only its own dwell, not the
			// holder's on top — but wall-clock assertions flake on
			// loaded CI runners, and Conflicts is the crisp signal).
			start := time.Now()
			if err := as.Munmap(lo+size, size); err != nil {
				t.Fatal(err)
			}
			if st := as.RangeStats(); st.Conflicts != 0 {
				t.Errorf("touching munmap recorded %d conflicts, want 0", st.Conflicts)
			}
			t.Logf("touching munmap completed in %v beside a %v holder", time.Since(start), 100*time.Millisecond)
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			// Overlap case: remap, fault, and unmap overlapping halves.
			mustMmap(t, as, lo, 2*size, vma.ProtRead|vma.ProtWrite, vma.Fixed)
			if err := cpu.Fault(lo, true); err != nil {
				t.Fatal(err)
			}
			if err := cpu.Fault(lo+size, true); err != nil {
				t.Fatal(err)
			}
			go func() { done <- as.Munmap(lo, size) }()
			waitFor(t, "overlapping munmap to hold its range", func() bool {
				return as.RangeStats().Held > 0
			})
			// [lo+size/2, lo+size+size/2) overlaps the held [lo, lo+size)
			// — and both straddle the same VMA, so they must serialize.
			if err := as.Munmap(lo+size/2, size); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if st := as.RangeStats(); st.Conflicts == 0 {
				t.Error("overlapping munmaps recorded no conflict")
			}
		})
}

// TestRangeLockWholeSpaceVsPendingHolders: fork's whole-space lock must
// wait for in-flight range holders, must not be starved by operations
// arriving after it, and must block them until it completes.
func TestRangeLockWholeSpaceVsPendingHolders(t *testing.T) {
	armFlushDelay(t, 50*time.Millisecond)
	forEachRangeLocked(t, Config{CPUs: 2},
		func(t *testing.T, as *AddressSpace) {
			const pages = 16
			size := uint64(pages) * PageSize
			lo := uint64(UnmappedBase)
			mustMmap(t, as, lo, size, vma.ProtRead|vma.ProtWrite, vma.Fixed)
			cpu := as.NewCPU(0)
			if err := cpu.Fault(lo, true); err != nil {
				t.Fatal(err)
			}

			// Hold a range via a dwelling munmap, then queue a fork.
			munmapDone := make(chan error, 1)
			go func() { munmapDone <- as.Munmap(lo, size) }()
			waitFor(t, "munmap to hold its range", func() bool {
				return as.RangeStats().Held > 0
			})
			forkDone := make(chan error, 1)
			go func() {
				child, err := as.Fork()
				if err == nil {
					err = child.Close()
				}
				forkDone <- err
			}()
			waitFor(t, "fork to queue behind the held range", func() bool {
				return as.RangeStats().Waiting > 0
			})

			// An operation disjoint from the munmap but arriving after
			// the fork must queue behind it (FIFO), not overtake it.
			// Observing it in the wait queue is the proof: its range
			// conflicts with no *held* range (the munmap holds a
			// disjoint interval), so the only thing it can be queued
			// behind is the pending whole-space fork. An overtake would
			// grant it immediately and Waiting would never reach 2.
			lateDone := make(chan error, 1)
			go func() {
				_, err := as.Mmap(lo+4*size, size, vma.ProtRead|vma.ProtWrite, vma.Fixed, nil, 0)
				lateDone <- err
			}()
			waitFor(t, "late mmap to queue behind the fork", func() bool {
				return as.RangeStats().Waiting >= 2
			})

			for _, ch := range []chan error{munmapDone, forkDone, lateDone} {
				if err := <-ch; err != nil {
					t.Fatal(err)
				}
			}
		})
}

// TestRangeLockConcurrentGapSearch: non-fixed mmaps race for gaps; the
// lock manager is the reservation mechanism, so every returned range
// must be distinct and correctly indexed.
func TestRangeLockConcurrentGapSearch(t *testing.T) {
	forEachRangeLocked(t, Config{CPUs: 4}, func(t *testing.T, as *AddressSpace) {
		const workers, per = 4, 32
		size := uint64(8) * PageSize
		bases := make([][]uint64, workers)
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					// A shared hint makes every worker chase the same gaps.
					base, err := as.Mmap(UnmappedBase, size, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
					if err != nil {
						errs <- err
						return
					}
					bases[id] = append(bases[id], base)
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		for _, bs := range bases {
			for _, b := range bs {
				for o := uint64(0); o < size; o += PageSize {
					if seen[b+o] {
						t.Fatalf("two mmaps returned overlapping ranges at %#x", b+o)
					}
					seen[b+o] = true
				}
			}
		}
		// Every mapping must be individually unmappable.
		for _, bs := range bases {
			for _, b := range bs {
				if err := as.Munmap(b, size); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := as.RegionCount(); n != 0 {
			t.Fatalf("%d regions left after unmapping all", n)
		}
	})
}

// TestRangeLockStressDisjointOpsVsFaults is the -race stress: several
// goroutines churn mmap/munmap/mprotect on disjoint arenas while fault
// workers hammer random pages across all arenas (so they constantly
// race with the mapping side and exercise the retry paths). Nothing
// may fail except ErrSegv/ErrAccess from faulting into momentarily
// unmapped or read-only pages, and teardown must find no leaks.
func TestRangeLockStressDisjointOpsVsFaults(t *testing.T) {
	rounds := 120
	if testing.Short() {
		rounds = 25
	}
	forEachRangeLocked(t, Config{CPUs: 4}, func(t *testing.T, as *AddressSpace) {
		const (
			mappers    = 2
			faulters   = 2
			arenaPages = 48
		)
		size := uint64(arenaPages) * PageSize
		stride := uint64(1) << 28
		var faultWG, mapWG sync.WaitGroup
		stop := make(chan struct{})
		var faultsOK, faultsDenied atomic.Uint64

		// Pre-map every arena and hold the churn until a fault lands,
		// so a fast mapper cannot finish all its rounds before the
		// faulters are even scheduled (which would leave faultsOK at 0).
		for m := 0; m < mappers; m++ {
			base := UnmappedBase + uint64(1+m)*stride
			if _, err := as.Mmap(base, size, vma.ProtRead|vma.ProtWrite, vma.Fixed, nil, 0); err != nil {
				t.Fatal(err)
			}
		}

		for f := 0; f < faulters; f++ {
			faultWG.Add(1)
			go func(id int) {
				defer faultWG.Done()
				cpu := as.NewCPU(mappers + id)
				rng := rand.New(rand.NewSource(int64(id) + 99))
				for {
					select {
					case <-stop:
						return
					default:
					}
					arena := UnmappedBase + uint64(1+rng.Intn(mappers))*stride
					addr := arena + uint64(rng.Intn(arenaPages))*PageSize
					switch err := cpu.Fault(addr, rng.Intn(2) == 0); {
					case err == nil:
						faultsOK.Add(1)
					case errors.Is(err, ErrSegv) || errors.Is(err, ErrAccess):
						faultsDenied.Add(1)
					default:
						t.Errorf("fault %#x: %v", addr, err)
						return
					}
				}
			}(f)
		}

		waitFor(t, "a fault to land in a pre-mapped arena", func() bool {
			return faultsOK.Load() > 0
		})

		errCh := make(chan error, mappers)
		for m := 0; m < mappers; m++ {
			mapWG.Add(1)
			go func(id int) {
				defer mapWG.Done()
				base := UnmappedBase + uint64(1+id)*stride
				for r := 0; r < rounds; r++ {
					if _, err := as.Mmap(base, size, vma.ProtRead|vma.ProtWrite, vma.Fixed, nil, 0); err != nil {
						errCh <- err
						return
					}
					if err := as.Mprotect(base, size/4, vma.ProtRead); err != nil {
						errCh <- err
						return
					}
					// Partial unmap splits the arena (Figure 10), then the
					// full unmap clears it.
					if err := as.Munmap(base+size/2, size/4); err != nil {
						errCh <- err
						return
					}
					if err := as.Munmap(base, size); err != nil {
						errCh <- err
						return
					}
				}
			}(m)
		}

		// Let the mappers finish, then stop the faulters.
		mapWG.Wait()
		close(stop)
		faultWG.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		for m := 0; m < mappers; m++ {
			arena := UnmappedBase + uint64(1+m)*stride
			for p := uint64(0); p < uint64(arenaPages); p++ {
				if _, ok := as.Translate(arena + p*PageSize); ok {
					t.Fatalf("arena %d page %d still translated after final unmap", m, p)
				}
			}
		}
		st := as.RangeStats()
		t.Logf("faults ok=%d denied=%d retries=%d range=%+v",
			faultsOK.Load(), faultsDenied.Load(), as.Stats().Retries(), st)
		if faultsOK.Load() == 0 {
			t.Error("no fault ever succeeded during the stress")
		}
	})
}
