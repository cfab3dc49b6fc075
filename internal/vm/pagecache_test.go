package vm

import (
	"bytes"
	"sync"
	"testing"

	"bonsai/internal/pagetable"
	"bonsai/internal/vma"
)

// sibling creates a second, empty address space in as's family and
// registers its Close with the test.
func sibling(t *testing.T, as *AddressSpace) *AddressSpace {
	t.Helper()
	sib, err := as.NewSibling()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sib.Close(); err != nil {
			t.Errorf("sibling teardown: %v", err)
		}
	})
	return sib
}

// TestSharedFileCrossSpaceCoherence is the core shared-memory property:
// one address space writes through a Shared file mapping and another,
// unrelated address space (a sibling, not a fork) reads the bytes
// through its own mapping of the same file — in every design.
func TestSharedFileCrossSpaceCoherence(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1, Backing: true}, func(t *testing.T, as *AddressSpace) {
		sib := sibling(t, as)
		f := vma.NewFile("shm.dat", 4242)
		baseA, err := as.Mmap(0, 4*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		baseB, err := sib.Mmap(0, 4*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		cpuA, cpuB := as.NewCPU(0), sib.NewCPU(0)

		// Before any write, both spaces see the file's pattern.
		pat := make([]byte, 4)
		if err := cpuB.ReadBytes(baseB+2*PageSize, pat); err != nil {
			t.Fatal(err)
		}
		if want := f.PageByte(2 * PageSize); pat[0] != want {
			t.Fatalf("initial contents %#x, want %#x", pat[0], want)
		}

		// A writes; B reads the same file page through its own mapping.
		msg := []byte("shared across address spaces")
		if err := cpuA.WriteBytes(baseA+2*PageSize+100, msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		if err := cpuB.ReadBytes(baseB+2*PageSize+100, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("sibling read %q, want %q", got, msg)
		}

		// The coherence is real frame sharing, not a copy: both spaces
		// translate the page to the same physical frame.
		pa, okA := as.Translate(baseA + 2*PageSize)
		pb, okB := sib.Translate(baseB + 2*PageSize)
		if !okA || !okB || pa != pb {
			t.Fatalf("translations differ: %#x/%v vs %#x/%v", pa, okA, pb, okB)
		}

		// And the write is visible in the cache's dirty accounting.
		if pc := as.PageCacheStats(); pc.DirtyPages == 0 {
			t.Fatal("shared write left no dirty page")
		}
	})
}

// TestSharedFileFrameRefcounts pins down the ownership rules: one
// reference held by the cache, plus one per mapping PTE; unmapping
// returns only the mapping references.
func TestSharedFileFrameRefcounts(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1, Backing: true}, func(t *testing.T, as *AddressSpace) {
		sib := sibling(t, as)
		f := vma.NewFile("refs.dat", 7)
		baseA, err := as.Mmap(0, PageSize, vma.ProtRead, vma.Shared, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		baseB, err := sib.Mmap(0, PageSize, vma.ProtRead, vma.Shared, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := as.NewCPU(0).Fault(baseA, false); err != nil {
			t.Fatal(err)
		}
		if err := sib.NewCPU(0).Fault(baseB, false); err != nil {
			t.Fatal(err)
		}
		pa, _ := as.Translate(baseA)
		pb, _ := sib.Translate(baseB)
		if pa != pb {
			t.Fatalf("spaces mapped different frames: %#x vs %#x", pa, pb)
		}
		pte, ok := as.Tables().Walk(baseA)
		if !ok {
			t.Fatal("no PTE after fault")
		}
		fr := pagetable.PTEFrame(pte)
		if n := as.Allocator().Refs(fr); n != 3 {
			t.Fatalf("refs=%d, want 3 (cache + 2 mappings)", n)
		}
		if err := sib.Munmap(baseB, PageSize); err != nil {
			t.Fatal(err)
		}
		as.Domain().Synchronize() // run the deferred mapping-reference drop
		if n := as.Allocator().Refs(fr); n != 2 {
			t.Fatalf("refs=%d after sibling munmap, want 2", n)
		}
		// The page is still resident: a refault in the sibling is a hit.
		hitsBefore := as.PageCacheStats().Hits
		baseB2, err := sib.Mmap(0, PageSize, vma.ProtRead, vma.Shared, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sib.NewCPU(0).Fault(baseB2, false); err != nil {
			t.Fatal(err)
		}
		if hits := as.PageCacheStats().Hits; hits <= hitsBefore {
			t.Fatalf("refault was not a cache hit (%d -> %d)", hitsBefore, hits)
		}
	})
}

// TestPrivateFileCowIsolation checks Private semantics on top of the
// shared cache: both spaces initially share the cached frame
// copy-on-write; a write in one space copies the page privately and
// stays invisible to the other and to the cache.
func TestPrivateFileCowIsolation(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1, Backing: true}, func(t *testing.T, as *AddressSpace) {
		sib := sibling(t, as)
		f := vma.NewFile("priv.dat", 99)
		baseA, err := as.Mmap(0, PageSize, vma.ProtRead|vma.ProtWrite, vma.Private, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		baseB, err := sib.Mmap(0, PageSize, vma.ProtRead|vma.ProtWrite, vma.Private, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		cpuA, cpuB := as.NewCPU(0), sib.NewCPU(0)
		// Read faults in both spaces map the cache frame COW-shared.
		if err := cpuA.Fault(baseA, false); err != nil {
			t.Fatal(err)
		}
		if err := cpuB.Fault(baseB, false); err != nil {
			t.Fatal(err)
		}
		pa, _ := as.Translate(baseA)
		pb, _ := sib.Translate(baseB)
		if pa != pb {
			t.Fatalf("private read faults did not share the cache frame: %#x vs %#x", pa, pb)
		}
		// A writes: COW breaks into a private frame; B keeps the pattern.
		if err := cpuA.WriteBytes(baseA, []byte{0xEE}); err != nil {
			t.Fatal(err)
		}
		pa2, _ := as.Translate(baseA)
		if pa2 == pb {
			t.Fatal("write did not break COW away from the cache frame")
		}
		got := make([]byte, 1)
		if err := cpuB.ReadBytes(baseB, got); err != nil {
			t.Fatal(err)
		}
		if want := f.PageByte(0); got[0] != want {
			t.Fatalf("private write leaked: sibling sees %#x, want %#x", got[0], want)
		}
		// Private writes never dirty the cache.
		if pc := as.PageCacheStats(); pc.DirtyPages != 0 {
			t.Fatalf("private write dirtied the cache (%d pages)", pc.DirtyPages)
		}
	})
}

// TestFileFaultFastPathNoGlobalLock verifies the acceptance property:
// in the RCU designs, file-backed faults finish while mmap_sem and the
// fault lock are write-held, and never fall back to the retry-with-lock
// slow path.
func TestFileFaultFastPathNoGlobalLock(t *testing.T) {
	for _, d := range []Design{Hybrid, PureRCU} {
		t.Run(d.String(), func(t *testing.T) {
			as, err := New(Config{Design: d, CPUs: 1, Backing: true})
			if err != nil {
				t.Fatal(err)
			}
			f := vma.NewFile("fast.dat", 1)
			base, err := as.Mmap(0, 64*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, f, 0)
			if err != nil {
				t.Fatal(err)
			}
			cpu := as.NewCPU(0)
			as.sy.mmapSem.Lock()
			as.sy.faultSem.Lock()
			err = startOp("64 file faults", func() error {
				for p := uint64(0); p < 64; p++ {
					if err := cpu.Fault(base+p*PageSize, p%2 == 0); err != nil {
						return err
					}
				}
				return nil
			}).finishes(t, "mmapSem and faultSem write-held")
			as.sy.faultSem.Unlock()
			as.sy.mmapSem.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			st := as.Stats()
			if st.Retries() != 0 {
				t.Fatalf("file faults retried with the lock held: %+v", st)
			}
			if pc := as.PageCacheStats(); pc.Misses != 64 {
				t.Fatalf("fills=%d, want 64", pc.Misses)
			}
			if err := as.Close(); err != nil {
				t.Errorf("teardown: %v", err)
			}
		})
	}
}

// TestSharedFileFaultStorm races many spaces fault-storming and
// DONTNEED-zapping the same file, in every design, to shake out
// cache/refcount races under the race detector (the frame state bitmap
// panics on any premature free).
func TestSharedFileFaultStorm(t *testing.T) {
	const spaces = 3
	const pages = 32
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	forEachDesign(t, Config{CPUs: 1, Backing: true, MaxFamily: spaces}, func(t *testing.T, as *AddressSpace) {
		f := vma.NewFile("storm.dat", 123)
		all := []*AddressSpace{as}
		for i := 1; i < spaces; i++ {
			all = append(all, sibling(t, as))
		}
		var wg sync.WaitGroup
		for i, sp := range all {
			wg.Add(1)
			go func(id int, sp *AddressSpace) {
				defer wg.Done()
				base, err := sp.Mmap(0, pages*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, f, 0)
				if err != nil {
					t.Error(err)
					return
				}
				cpu := sp.NewCPU(0)
				for r := 0; r < rounds; r++ {
					for p := uint64(0); p < pages; p++ {
						if err := cpu.Fault(base+p*PageSize, (p+uint64(id))%3 == 0); err != nil {
							t.Errorf("space %d fault: %v", id, err)
							return
						}
					}
					if err := sp.MadviseDontNeed(base, pages*PageSize); err != nil {
						t.Errorf("space %d madvise: %v", id, err)
						return
					}
				}
			}(i, sp)
		}
		wg.Wait()
		pc := as.PageCacheStats()
		if pc.Resident != pages {
			t.Fatalf("resident=%d, want %d", pc.Resident, pages)
		}
		// Every fill beyond the first per page must have coalesced or hit.
		if pc.Misses != pages {
			t.Fatalf("fills=%d, want %d (double-filled pages)", pc.Misses, pages)
		}
	})
}
