package vm

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"bonsai/internal/vma"
)

// forEachDesign runs the test body once per design, each on a fresh
// space built from cfg, and fails the subtest if Close finds a leak: the
// VM semantics must be identical across all of them (§5 introduces the
// designs as refinements, not behaviour changes).
func forEachDesign(t *testing.T, cfg Config, body func(t *testing.T, as *AddressSpace)) {
	t.Helper()
	for _, d := range Designs {
		cfg.Design = d
		t.Run(d.String(), func(t *testing.T) {
			as, err := New(cfg)
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

func mustMmap(t *testing.T, as *AddressSpace, addr, length uint64, prot vma.Prot, flags vma.Flags) uint64 {
	t.Helper()
	base, err := as.Mmap(addr, length, prot, flags, nil, 0)
	if err != nil {
		t.Fatalf("Mmap(%#x, %#x): %v", addr, length, err)
	}
	return base
}

func TestMmapFaultMunmap(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		base := mustMmap(t, as, 0, 4*PageSize, vma.ProtRead|vma.ProtWrite, 0)
		if base < UnmappedBase {
			t.Fatalf("base %#x below UnmappedBase", base)
		}
		// Faults install translations.
		for i := uint64(0); i < 4; i++ {
			if err := cpu.Fault(base+i*PageSize, true); err != nil {
				t.Fatalf("fault page %d: %v", i, err)
			}
			if _, ok := as.Translate(base + i*PageSize); !ok {
				t.Fatalf("page %d not translated after fault", i)
			}
		}
		st := as.Stats()
		if st.PagesMapped != 4 {
			t.Fatalf("PagesMapped = %d, want 4", st.PagesMapped)
		}
		// Repeat faults are no-ops.
		if err := cpu.Fault(base, false); err != nil {
			t.Fatal(err)
		}
		if st := as.Stats(); st.PagesMapped != 4 {
			t.Fatalf("refault mapped a new page: %d", st.PagesMapped)
		}
		// Munmap removes translations and the region.
		if err := as.Munmap(base, 4*PageSize); err != nil {
			t.Fatal(err)
		}
		if _, ok := as.Translate(base); ok {
			t.Fatal("translation survives munmap")
		}
		if err := cpu.Fault(base, false); !errors.Is(err, ErrSegv) {
			t.Fatalf("fault on unmapped = %v, want ErrSegv", err)
		}
	})
}

func TestFaultUnmappedIsSegv(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		if err := cpu.Fault(0xdead000, false); !errors.Is(err, ErrSegv) {
			t.Fatalf("got %v, want ErrSegv", err)
		}
		if err := cpu.Fault(MaxAddress+5, false); !errors.Is(err, ErrSegv) {
			t.Fatalf("out-of-space fault = %v, want ErrSegv", err)
		}
	})
}

func TestProtectionChecks(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		ro := mustMmap(t, as, 0, PageSize, vma.ProtRead, 0)
		if err := cpu.Fault(ro, true); !errors.Is(err, ErrAccess) {
			t.Fatalf("write to read-only = %v, want ErrAccess", err)
		}
		if err := cpu.Fault(ro, false); err != nil {
			t.Fatalf("read of read-only: %v", err)
		}
		none := mustMmap(t, as, 0, PageSize, 0, 0)
		if err := cpu.Fault(none, false); !errors.Is(err, ErrAccess) {
			t.Fatalf("read of PROT_NONE = %v, want ErrAccess", err)
		}
		wo := mustMmap(t, as, 0, PageSize, vma.ProtWrite, 0)
		if err := cpu.Fault(wo, false); !errors.Is(err, ErrAccess) {
			t.Fatalf("read of write-only = %v, want ErrAccess", err)
		}
		if err := cpu.Fault(wo, true); err != nil {
			t.Fatalf("write to write-only: %v", err)
		}
	})
}

func TestMmapFixedReplaces(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		addr := UnmappedBase + 0x100000
		// Neighbours on both sides, kept apart by their protection.
		neighbours := []uint64{addr - PageSize, addr + 4*PageSize}
		for _, n := range neighbours {
			mustMmap(t, as, n, PageSize, vma.ProtRead|vma.ProtExec, vma.Fixed)
		}
		mustMmap(t, as, addr, 4*PageSize, vma.ProtRead|vma.ProtWrite, vma.Fixed)
		if err := cpu.Fault(addr, true); err != nil {
			t.Fatal(err)
		}
		// Re-map over it read-only: old pages must be gone.
		mustMmap(t, as, addr, 4*PageSize, vma.ProtRead, vma.Fixed)
		if _, ok := as.Translate(addr); ok {
			t.Fatal("old translation survives MAP_FIXED replace")
		}
		if err := cpu.Fault(addr, true); !errors.Is(err, ErrAccess) {
			t.Fatalf("write after replace = %v, want ErrAccess", err)
		}
		if as.RegionCount() != 3 {
			t.Fatalf("RegionCount = %d, want 3", as.RegionCount())
		}
		for _, n := range neighbours {
			if err := cpu.Fault(n, false); err != nil {
				t.Fatalf("neighbour %#x after replace: %v", n, err)
			}
		}
	})
}

func TestMmapInvalidArgs(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		if _, err := as.Mmap(0, 0, vma.ProtRead, 0, nil, 0); !errors.Is(err, ErrInvalid) {
			t.Fatalf("zero length: %v", err)
		}
		if _, err := as.Mmap(123, PageSize, vma.ProtRead, vma.Fixed, nil, 0); !errors.Is(err, ErrInvalid) {
			t.Fatalf("unaligned fixed: %v", err)
		}
		if _, err := as.Mmap(MaxAddress-PageSize, 2*PageSize, vma.ProtRead, vma.Fixed, nil, 0); !errors.Is(err, ErrInvalid) {
			t.Fatalf("fixed beyond space: %v", err)
		}
		if err := as.Munmap(123, PageSize); !errors.Is(err, ErrInvalid) {
			t.Fatalf("unaligned munmap: %v", err)
		}
		if err := as.Munmap(0, 0); !errors.Is(err, ErrInvalid) {
			t.Fatalf("zero-length munmap: %v", err)
		}
		// A length within a page of 2^64 must not wrap to zero when
		// rounded up: every call refuses it as a range that cannot fit.
		at := UnmappedBase
		for _, length := range []uint64{^uint64(0), ^uint64(0) - 10} {
			for _, c := range []struct {
				name string
				want error
				call func() error
			}{
				{"mmap", ErrNoMemory, func() error { _, err := as.Mmap(at, length, vma.ProtRead, 0, nil, 0); return err }},
				{"fixed mmap", ErrInvalid, func() error { _, err := as.Mmap(at, length, vma.ProtRead, vma.Fixed, nil, 0); return err }},
				{"munmap", ErrInvalid, func() error { return as.Munmap(at, length) }},
				{"mprotect", ErrInvalid, func() error { return as.Mprotect(at, length, vma.ProtRead) }},
				{"madvise", ErrInvalid, func() error { return as.MadviseDontNeed(at, length) }},
			} {
				if err := c.call(); !errors.Is(err, c.want) {
					t.Errorf("%s of %#x bytes: %v, want %v", c.name, length, err, c.want)
				}
			}
		}
		if n := as.RegionCount(); n != 0 {
			t.Errorf("%d regions after only invalid calls", n)
		}
	})
}

func TestLengthRoundsUpToPage(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		base := mustMmap(t, as, 0, 100, vma.ProtRead, 0) // < 1 page
		if err := cpu.Fault(base+PageSize-1, false); err != nil {
			t.Fatalf("fault in rounded-up page: %v", err)
		}
		if err := cpu.Fault(base+PageSize, false); !errors.Is(err, ErrSegv) {
			t.Fatalf("fault past rounded length = %v, want ErrSegv", err)
		}
		if err := cpu.Fault(base-1, false); !errors.Is(err, ErrSegv) {
			t.Fatalf("fault one byte before the start = %v, want ErrSegv", err)
		}
	})
}

func TestMmapMerging(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		addr := UnmappedBase + 0x200000
		mustMmap(t, as, addr, 2*PageSize, vma.ProtRead|vma.ProtWrite, vma.Fixed)
		mustMmap(t, as, addr+2*PageSize, 2*PageSize, vma.ProtRead|vma.ProtWrite, vma.Fixed)
		if n := as.RegionCount(); n != 1 {
			t.Fatalf("adjacent compatible mappings not merged: %d regions", n)
		}
		st := as.Stats()
		if st.Merges != 1 {
			t.Fatalf("Merges = %d, want 1", st.Merges)
		}
		// Incompatible protection must not merge.
		mustMmap(t, as, addr+4*PageSize, PageSize, vma.ProtRead, vma.Fixed)
		if n := as.RegionCount(); n != 2 {
			t.Fatalf("incompatible mappings merged: %d regions", n)
		}
	})
}

func TestMunmapSplit(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		base := mustMmap(t, as, 0, 10*PageSize, vma.ProtRead|vma.ProtWrite, 0)
		for i := uint64(0); i < 10; i++ {
			if err := cpu.Fault(base+i*PageSize, true); err != nil {
				t.Fatal(err)
			}
		}
		// Unmap the middle 4 pages: Figure 10's split.
		if err := as.Munmap(base+3*PageSize, 4*PageSize); err != nil {
			t.Fatal(err)
		}
		if n := as.RegionCount(); n != 2 {
			t.Fatalf("RegionCount = %d after middle unmap, want 2", n)
		}
		if st := as.Stats(); st.Splits != 1 {
			t.Fatalf("Splits = %d, want 1", st.Splits)
		}
		// Bottom and top still mapped; middle gone.
		for i := uint64(0); i < 10; i++ {
			addr := base + i*PageSize
			_, mapped := as.Translate(addr)
			wantMapped := i < 3 || i >= 7
			if mapped != wantMapped {
				t.Fatalf("page %d: mapped=%v want %v", i, mapped, wantMapped)
			}
			err := cpu.Fault(addr, false)
			if wantMapped && err != nil {
				t.Fatalf("page %d fault: %v", i, err)
			}
			if !wantMapped && !errors.Is(err, ErrSegv) {
				t.Fatalf("page %d fault = %v, want ErrSegv", i, err)
			}
		}
	})
}

func TestMunmapHeadAndTailTrim(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		base := mustMmap(t, as, 0, 8*PageSize, vma.ProtRead, 0)
		// Head trim.
		if err := as.Munmap(base, 2*PageSize); err != nil {
			t.Fatal(err)
		}
		if err := cpu.Fault(base+PageSize, false); !errors.Is(err, ErrSegv) {
			t.Fatalf("head-trimmed page fault = %v", err)
		}
		if err := cpu.Fault(base+2*PageSize, false); err != nil {
			t.Fatalf("page after head trim: %v", err)
		}
		// Tail trim.
		if err := as.Munmap(base+6*PageSize, 2*PageSize); err != nil {
			t.Fatal(err)
		}
		if err := cpu.Fault(base+6*PageSize, false); !errors.Is(err, ErrSegv) {
			t.Fatalf("tail-trimmed page fault = %v", err)
		}
		if err := cpu.Fault(base+5*PageSize, false); err != nil {
			t.Fatalf("page before tail trim: %v", err)
		}
		if n := as.RegionCount(); n != 1 {
			t.Fatalf("RegionCount = %d, want 1", n)
		}
	})
}

func TestMunmapSpanningMultipleVMAs(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		addr := UnmappedBase + 0x400000
		// Three disjoint regions with gaps (different prots prevent merge).
		mustMmap(t, as, addr, 2*PageSize, vma.ProtRead, vma.Fixed)
		mustMmap(t, as, addr+4*PageSize, 2*PageSize, vma.ProtWrite|vma.ProtRead, vma.Fixed)
		mustMmap(t, as, addr+8*PageSize, 2*PageSize, vma.ProtRead|vma.ProtExec, vma.Fixed)
		if as.RegionCount() != 3 {
			t.Fatal("setup failed")
		}
		// Unmap covering the tail of #1, all of #2, and the head of #3.
		if err := as.Munmap(addr+PageSize, 8*PageSize); err != nil {
			t.Fatal(err)
		}
		regs := as.Regions()
		if len(regs) != 2 {
			t.Fatalf("regions after spanning unmap: %v", regs)
		}
		if regs[0].End != addr+PageSize || regs[1].Start != addr+9*PageSize {
			t.Fatalf("wrong trims: %v", regs)
		}
		// §2: GNOME and Firefox processes use nearly 1,000 regions. One
		// page each, a hole between, alternating protection; one munmap
		// then removes them all.
		const n = 1000
		many := UnmappedBase + 0x1000000
		for i := uint64(0); i < n; i++ {
			prot := vma.ProtRead
			if i%2 == 0 {
				prot |= vma.ProtWrite
			}
			mustMmap(t, as, many+2*i*PageSize, PageSize, prot, vma.Fixed)
		}
		if got := as.RegionCount(); got != 2+n {
			t.Fatalf("RegionCount = %d, want %d", got, 2+n)
		}
		cpu := as.NewCPU(0)
		for i := uint64(0); i < n; i += 37 {
			if err := cpu.Fault(many+2*i*PageSize, false); err != nil {
				t.Fatalf("region %d: %v", i, err)
			}
			if err := cpu.Fault(many+(2*i+1)*PageSize, false); !errors.Is(err, ErrSegv) {
				t.Fatalf("hole after region %d = %v, want ErrSegv", i, err)
			}
		}
		if err := as.Munmap(many, 2*n*PageSize); err != nil {
			t.Fatal(err)
		}
		if got := as.RegionCount(); got != 2 {
			t.Fatalf("RegionCount = %d after unmapping all %d, want 2", got, n)
		}
	})
}

func TestMunmapEmptyRangeSucceeds(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		if err := as.Munmap(UnmappedBase, 16*PageSize); err != nil {
			t.Fatalf("munmap of empty range: %v", err)
		}
	})
}

func TestStackGrowth(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		top := UnmappedBase + 0x10000000
		mustMmap(t, as, top, 4*PageSize, vma.ProtRead|vma.ProtWrite, vma.Fixed|vma.Stack)
		// Fault just below the stack: must grow.
		if err := cpu.Fault(top-PageSize, true); err != nil {
			t.Fatalf("stack growth fault: %v", err)
		}
		if st := as.Stats(); st.StackGrowths != 1 {
			t.Fatalf("StackGrowths = %d", st.StackGrowths)
		}
		// One page past the limit: segv. Exactly at it: grows.
		start := top - PageSize
		if err := cpu.Fault(start-maxStackGrowth-PageSize, true); !errors.Is(err, ErrSegv) {
			t.Fatalf("growth past the limit allowed: %v", err)
		}
		start -= maxStackGrowth
		if err := cpu.Fault(start, true); err != nil {
			t.Fatalf("growth to the limit: %v", err)
		}
		if st := as.Stats(); st.StackGrowths != 2 {
			t.Fatalf("StackGrowths = %d after growing to the limit", st.StackGrowths)
		}
		// The grown range faults like the rest of the stack.
		if err := cpu.Fault(start+maxStackGrowth/2, false); err != nil {
			t.Fatalf("fault inside the grown range: %v", err)
		}
		// A mapping just below blocks growth through it (guard page).
		blocker := start - 64*PageSize
		mustMmap(t, as, blocker, PageSize, vma.ProtRead, vma.Fixed)
		if err := cpu.Fault(blocker+PageSize, true); !errors.Is(err, ErrSegv) {
			t.Fatalf("grew into guard page: %v", err)
		}
	})
}

func TestFileBackedFaultFillsContents(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1, Backing: true}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		f := vma.NewFile("data.bin", 99)
		base, err := as.Mmap(0, 4*PageSize, vma.ProtRead, vma.Private, f, 2*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		if err := cpu.ReadBytes(base+PageSize, buf); err != nil {
			t.Fatal(err)
		}
		want := f.PageByte(3 * PageSize) // fileOff 2 pages + 1 page in
		for _, b := range buf {
			if b != want {
				t.Fatalf("file page contents %#x, want %#x", b, want)
			}
		}
		// File faults resolve through the page cache in every design —
		// the RCU designs no longer take the §6 retry-with-lock path.
		st := as.Stats()
		if n := st.Retries(); n != 0 {
			t.Fatalf("file-backed fault took the retry-with-lock path %d times", n)
		}
		if pc := as.PageCacheStats(); pc.Misses != 1 || pc.Resident != 1 {
			t.Fatalf("page cache fills=%d resident=%d, want 1/1", pc.Misses, pc.Resident)
		}
	})
}

func TestReadWriteBytes(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1, Backing: true}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		base := mustMmap(t, as, 0, 8*PageSize, vma.ProtRead|vma.ProtWrite, 0)
		// Cross-page write/read round trip.
		msg := make([]byte, 3*PageSize+17)
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		if err := cpu.WriteBytes(base+PageSize/2, msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		if err := cpu.ReadBytes(base+PageSize/2, got); err != nil {
			t.Fatal(err)
		}
		for i := range msg {
			if got[i] != msg[i] {
				t.Fatalf("byte %d: %#x != %#x", i, got[i], msg[i])
			}
		}
		// Anonymous pages are demand-zero.
		zero := make([]byte, 16)
		if err := cpu.ReadBytes(base+7*PageSize, zero); err != nil {
			t.Fatal(err)
		}
		for _, b := range zero {
			if b != 0 {
				t.Fatal("anonymous page not zeroed")
			}
		}
	})
}

// TestMmapCacheBehaviour: the cache is on for the lock designs and off
// for the RCU designs (§6). One CPU walking one region hits; CPUs taking
// turns on regions of their own, the interleaving threads on distinct
// regions produce, miss every time (cmd/asplos12's mmap-cache
// ablation).
func TestMmapCacheBehaviour(t *testing.T) {
	const pages = 16
	for _, regions := range []int{1, 4} {
		for _, d := range Designs {
			as, err := New(Config{Design: d, CPUs: regions})
			if err != nil {
				t.Fatal(err)
			}
			base := func(i int) uint64 { return UnmappedBase + uint64(2*i)*pages*PageSize }
			cpus := make([]*CPU, regions)
			for i := range cpus {
				mustMmap(t, as, base(i), pages*PageSize, vma.ProtRead, vma.Fixed)
				cpus[i] = as.NewCPU(i)
			}
			for p := uint64(0); p < pages; p++ {
				for i, cpu := range cpus {
					if err := cpu.Fault(base(i)+p*PageSize, false); err != nil {
						t.Fatal(err)
					}
				}
			}
			st := as.Stats()
			switch {
			case d.UsesRCU():
				if st.MmapCacheHits+st.MmapCacheMisses != 0 {
					t.Errorf("%v: mmap cache active", d)
				}
			case regions == 1:
				if st.MmapCacheHits < 14 {
					t.Errorf("%v: cache hits %d, want >= 14", d, st.MmapCacheHits)
				}
			default:
				if st.MmapCacheHits != 0 || st.MmapCacheMisses != uint64(regions*pages) {
					t.Errorf("%v, %d regions interleaved: %d hits, %d misses, want 0 and %d",
						d, regions, st.MmapCacheHits, st.MmapCacheMisses, regions*pages)
				}
			}
			if err := as.Close(); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestNoFrameLeaks(t *testing.T) {
	// Close() asserts exactly one live frame; drive a workload with
	// splits, merges, partial unmaps and stack growth first. The pool is
	// small, so later rounds get the frames earlier rounds dirtied: each
	// must read back zeroed.
	forEachDesign(t, Config{CPUs: 1, Backing: true, Frames: 512}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		zero, dirty := make([]byte, PageSize), bytes.Repeat([]byte{0xFF}, PageSize)
		buf := make([]byte, PageSize)
		for round := 0; round < 5; round++ {
			base := mustMmap(t, as, 0, 64*PageSize, vma.ProtRead|vma.ProtWrite, 0)
			for i := uint64(0); i < 64; i += 2 {
				if err := cpu.ReadBytes(base+i*PageSize, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, zero) {
					t.Fatalf("round %d page %d: recycled frame not zeroed", round, i)
				}
				if err := cpu.WriteBytes(base+i*PageSize, dirty); err != nil {
					t.Fatal(err)
				}
			}
			if err := as.Munmap(base+8*PageSize, 16*PageSize); err != nil {
				t.Fatal(err)
			}
			if err := as.Munmap(base, 64*PageSize); err != nil {
				t.Fatal(err)
			}
			as.Domain().Synchronize() // the frames come home before the next round
		}
		// Close (in forEachDesign) asserts the leak-free condition.
	})
}

func TestGapAllocationDoesNotOverlap(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		type span struct{ lo, hi uint64 }
		var spans []span
		for i := 0; i < 50; i++ {
			n := uint64(1+i%7) * PageSize
			base := mustMmap(t, as, 0, n, vma.ProtRead, 0)
			for _, s := range spans {
				if base < s.hi && s.lo < base+n {
					t.Fatalf("mapping [%#x,%#x) overlaps [%#x,%#x)", base, base+n, s.lo, s.hi)
				}
			}
			spans = append(spans, span{base, base + n})
			// Punch holes to fragment the space.
			if i%5 == 4 {
				s := spans[i/2]
				if err := as.Munmap(s.lo, s.hi-s.lo); err != nil {
					t.Fatal(err)
				}
				spans[i/2] = span{0, 0}
			}
		}
	})
}

func TestHintPlacement(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		hint := UnmappedBase + 0x30000000
		base := mustMmap(t, as, hint, PageSize, vma.ProtRead, 0)
		if base != hint {
			t.Fatalf("free hint not honoured: got %#x", base)
		}
		// Occupied hint: placed at or after.
		base2 := mustMmap(t, as, hint, PageSize, vma.ProtRead, 0)
		if base2 == hint || base2 < hint {
			t.Fatalf("occupied hint produced %#x", base2)
		}
	})
}

func TestParseDesign(t *testing.T) {
	for _, d := range Designs {
		for _, name := range []string{designKeys[d], strings.ToUpper(designKeys[d]), " " + designKeys[d] + "\t"} {
			if got, err := ParseDesign(name); err != nil || got != d {
				t.Errorf("ParseDesign(%q) = %v, %v; want %v", name, got, err, d)
			}
		}
	}
	for _, name := range []string{"", "rcu", "pure rcu", "Pure RCU"} {
		if _, err := ParseDesign(name); err == nil || !strings.Contains(err.Error(), "rwlock, faultlock, hybrid, purercu") {
			t.Errorf("ParseDesign(%q) error = %v, want one listing the designs", name, err)
		}
	}
}
