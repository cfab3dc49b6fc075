package vm

// Failure-injection tests: each arms internal/fail points around the
// VM paths and checks the graceful-degradation contract — injected
// allocation failures leak nothing, a permanent failure terminates in
// a typed ErrNoMemory within the retry budget instead of spinning, the
// OOM killer of last resort restores forward progress, and injected
// I/O errors propagate typed through the fault path. None of these
// tests may run in parallel (the failpoint registry is process-global)
// and each disables everything it armed.

import (
	"errors"
	"sync"
	"testing"

	"bonsai/internal/fail"
	"bonsai/internal/pagecache"
	"bonsai/internal/vma"
)

// TestInjectedAllocFailureLeaksNothing hammers faults and forks while
// the allocator fails one in a few allocations; every operation must
// either succeed or unwind completely, so the final Close's allocator
// leak check (zero frames in use) is the assertion.
func TestInjectedAllocFailureLeaksNothing(t *testing.T) {
	defer fail.DisableAll()
	forEachDesign(t, Config{CPUs: 4, Frames: 4096, Backing: true, MaxFamily: 12}, func(t *testing.T, as *AddressSpace) {
		if err := fail.Enable(99, "physmem.alloc", fail.Config{OneIn: 20}); err != nil {
			t.Fatal(err)
		}
		defer fail.DisableAll()
		base := mustMmap(t, as, 0, 256*PageSize, vma.ProtRead|vma.ProtWrite, 0)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cpu := as.NewCPU(w)
				for i := 0; i < 400; i++ {
					page := base + uint64((w*400+i)%256)*PageSize
					if err := cpu.Fault(page, true); err != nil && !errors.Is(err, ErrNoMemory) {
						t.Errorf("fault: %v", err)
					}
					if i%100 == 0 {
						child, err := as.Fork()
						if err != nil {
							if !errors.Is(err, ErrNoMemory) {
								t.Errorf("fork: %v", err)
							}
							continue
						}
						if err := child.Close(); err != nil {
							t.Errorf("child leaked: %v", err)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		// The leak check proper runs in forEachDesign's Close.
	})
}

// TestPermanentAllocFailureTerminates arms an always-failing allocator
// after the space is built: Fault must return the typed ErrNoMemory
// within the retry budget — the regression test for the formerly
// unbounded retry loop, which would spin forever here because direct
// reclaim always reports the free pool as progress. Then the pool runs
// out for real, and frames an munmap returns serve new faults.
func TestPermanentAllocFailureTerminates(t *testing.T) {
	defer fail.DisableAll()
	forEachDesign(t, Config{CPUs: 1, Frames: 64, Backing: true}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		base := mustMmap(t, as, 0, 4*PageSize, vma.ProtRead|vma.ProtWrite, 0)
		if err := fail.Enable(7, "physmem.alloc", fail.Config{OneIn: 1}); err != nil {
			t.Fatal(err)
		}
		err := cpu.Fault(base, true)
		if !errors.Is(err, ErrNoMemory) {
			t.Fatalf("fault under permanent allocation failure: got %v, want ErrNoMemory", err)
		}
		if errors.Is(err, ErrFrameShortage) {
			t.Fatalf("raw frame shortage escaped: %v", err)
		}
		if n := as.Stats().ReclaimRetries; n == 0 {
			t.Error("no reclaim retries recorded before giving up")
		}
		// Injection off: the same fault must recover immediately.
		fail.DisableAll()
		if err := cpu.Fault(base, true); err != nil {
			t.Fatalf("fault after disarming: %v", err)
		}
		big := mustMmap(t, as, 0, 256*PageSize, vma.ProtRead|vma.ProtWrite, 0)
		var p uint64
		for ; p < 256; p++ {
			if err = cpu.Fault(big+p*PageSize, true); err != nil {
				break
			}
		}
		if !errors.Is(err, ErrNoMemory) {
			t.Fatalf("faulting a 64-frame pool: %d pages, then %v; want ErrNoMemory", p, err)
		}
		if err := as.Munmap(big, 256*PageSize); err != nil {
			t.Fatal(err)
		}
		as.Domain().Synchronize()
		big = mustMmap(t, as, 0, 8*PageSize, vma.ProtRead|vma.ProtWrite, 0)
		for i := uint64(0); i < 8; i++ {
			if err := cpu.Fault(big+i*PageSize, true); err != nil {
				t.Fatalf("fault after munmap returned the frames: %v", err)
			}
		}
	})
}

// TestOOMKillerRestoresProgress exhausts a small machine with a greedy
// sibling (no fault injection involved), then checks the ladder: the
// starved fault first surfaces ErrNoMemory, and once a killer that
// reaps the greedy sibling is installed, the same fault succeeds and
// the kill is visible in the stats.
func TestOOMKillerRestoresProgress(t *testing.T) {
	as, err := New(Config{Design: PureRCU, CPUs: 2, Frames: 512, Backing: true, MaxFamily: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := as.Close(); err != nil {
			t.Errorf("teardown: %v", err)
		}
	}()

	hog, err := as.NewSibling()
	if err != nil {
		t.Fatal(err)
	}
	hogBase, err := hog.Mmap(0, 512*PageSize, vma.ProtRead|vma.ProtWrite, vma.Private, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	hogCPU := hog.NewCPU(0)
	for p := uint64(0); ; p++ {
		if err := hogCPU.Fault(hogBase+p*PageSize, true); err != nil {
			if !errors.Is(err, ErrNoMemory) {
				t.Fatalf("hog fault: %v", err)
			}
			break // pool exhausted, as intended
		}
	}

	base := mustMmap(t, as, 0, PageSize, vma.ProtRead|vma.ProtWrite, 0)
	cpu := as.NewCPU(0)
	if err := cpu.Fault(base, true); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("fault on exhausted machine without a killer: got %v, want ErrNoMemory", err)
	}

	hogClosed := false
	as.fam.ms.SetOOMKiller(func(victim *AddressSpace) bool {
		if victim != hog {
			t.Errorf("killer picked %p, want the hog %p (largest live member)", victim, hog)
			return false
		}
		hogClosed = true
		if err := hog.Close(); err != nil {
			t.Errorf("reaped hog leaked: %v", err)
		}
		return true
	})
	if err := cpu.Fault(base, true); err != nil {
		t.Fatalf("fault after OOM kill: %v", err)
	}
	if !hogClosed {
		t.Fatal("killer never invoked")
	}
	if n := as.Stats().OOMKills; n != 1 {
		t.Errorf("OOMKills = %d, want 1", n)
	}
}

// TestFillErrorPropagatesTyped injects page-cache read-fill failures
// and checks the error reaches the API typed as pagecache.ErrIO (not
// swallowed, not re-labeled out-of-memory), and that the page faults
// fine on retry once the device heals.
func TestFillErrorPropagatesTyped(t *testing.T) {
	defer fail.DisableAll()
	forEachDesign(t, Config{CPUs: 1, Frames: 1024, Backing: true}, func(t *testing.T, as *AddressSpace) {
		f := vma.NewFile("fillerr", 3)
		base, err := as.Mmap(0, 8*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		cpu := as.NewCPU(0)
		if err := fail.Enable(11, "pagecache.fill", fail.Config{OneIn: 1}); err != nil {
			t.Fatal(err)
		}
		err = cpu.Fault(base, false)
		if !errors.Is(err, pagecache.ErrIO) {
			t.Fatalf("file fault under fill injection: got %v, want pagecache.ErrIO", err)
		}
		if errors.Is(err, ErrNoMemory) {
			t.Errorf("fill I/O error mislabeled as out of memory: %v", err)
		}
		buf := make([]byte, 4)
		if err := cpu.ReadBytes(base, buf); !errors.Is(err, pagecache.ErrIO) {
			t.Errorf("ReadBytes under fill injection: got %v, want pagecache.ErrIO", err)
		}
		fail.DisableAll()
		if err := cpu.Fault(base, false); err != nil {
			t.Fatalf("fault after device healed: %v", err)
		}
		if n := as.PageCacheStats().FillErrs; n == 0 {
			t.Error("fill errors not counted in stats")
		}
	})
}

// TestAuditsCleanAfterInjectedChurn runs a short single-space churn
// under allocation injection and then audits the caches and PTEs; the
// cross-checks must come back clean once the world is quiet.
func TestAuditsCleanAfterInjectedChurn(t *testing.T) {
	defer fail.DisableAll()
	forEachDesign(t, Config{CPUs: 2, Frames: 2048, Backing: true}, func(t *testing.T, as *AddressSpace) {
		if err := fail.Enable(5, "physmem.alloc", fail.Config{OneIn: 30}); err != nil {
			t.Fatal(err)
		}
		defer fail.DisableAll()
		f := vma.NewFile("churn", 9)
		base, err := as.Mmap(0, 32*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cpu := as.NewCPU(w)
				for i := 0; i < 300; i++ {
					addr := base + uint64((i*7+w)%32)*PageSize
					if err := cpu.Fault(addr, i%2 == 0); err != nil && !errors.Is(err, ErrNoMemory) {
						t.Errorf("fault: %v", err)
					}
					if i%50 == 0 {
						if err := as.MadviseDontNeed(addr, PageSize); err != nil {
							t.Errorf("dontneed: %v", err)
						}
					}
					if err := cpu.AuditTranslation(addr); err != nil {
						t.Error(err)
					}
				}
			}(w)
		}
		wg.Wait()
		as.QuiesceReclaim(func() {
			if err := as.AuditPageCaches(); err != nil {
				t.Errorf("audit: %v", err)
			}
		})
	})
}
