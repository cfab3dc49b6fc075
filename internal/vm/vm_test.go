package vm

import (
	"errors"
	"strings"
	"testing"

	"bonsai/internal/vma"
)

// policy is one reachable synchronization policy: a design and how its
// mapping operations exclude one another.
type policy struct {
	design     Design
	rangeLocks RangeLockMode
}

// policies lists all six: the four designs as configured by default,
// then the RCU designs on the global mmap_sem — the configuration the
// paper describes.
var policies = []policy{
	{RWLock, RangeLocksDefault}, {FaultLock, RangeLocksDefault},
	{Hybrid, RangeLocksDefault}, {PureRCU, RangeLocksDefault},
	{Hybrid, RangeLocksOff}, {PureRCU, RangeLocksOff},
}

func (p policy) String() string {
	if p.rangeLocks == RangeLocksOff {
		return p.design.String() + ", global mmap_sem"
	}
	return p.design.String()
}

func (p policy) apply(cfg Config) Config {
	cfg.Design, cfg.RangeLocks = p.design, p.rangeLocks
	return cfg
}

// forEachDesign runs the test body once per synchronization policy: the
// VM semantics must be identical across all of them (§5 introduces the
// designs as refinements, not behaviour changes).
func forEachDesign(t *testing.T, cfg Config, body func(t *testing.T, as *AddressSpace)) {
	t.Helper()
	for _, p := range policies {
		t.Run(p.String(), func(t *testing.T) {
			as, err := New(p.apply(cfg))
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
	})
}

func TestMmapFixedReplaces(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		addr := UnmappedBase + 0x100000
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
		if as.RegionCount() != 1 {
			t.Fatalf("RegionCount = %d, want 1", as.RegionCount())
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
		// Far below the limit: segv.
		if err := cpu.Fault(top-DefaultMaxStackGrowth-2*PageSize, true); !errors.Is(err, ErrSegv) {
			t.Fatalf("unbounded growth allowed: %v", err)
		}
		// A mapping just below blocks growth through it (guard page).
		blocker := top - 64*PageSize
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
		if st.PageCacheMisses != 1 || st.PageCacheResident != 1 {
			t.Fatalf("page cache fills=%d resident=%d, want 1/1", st.PageCacheMisses, st.PageCacheResident)
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

func TestMmapCacheBehaviour(t *testing.T) {
	// On for lock designs, off for RCU designs (§6).
	for _, d := range Designs {
		as, err := New(Config{Design: d, CPUs: 1})
		if err != nil {
			t.Fatal(err)
		}
		cpu := as.NewCPU(0)
		base := mustMmap(t, as, 0, 16*PageSize, vma.ProtRead, 0)
		for i := uint64(0); i < 16; i++ {
			if err := cpu.Fault(base+i*PageSize, false); err != nil {
				t.Fatal(err)
			}
		}
		st := as.Stats()
		if d.UsesRCU() {
			if st.MmapCacheHits+st.MmapCacheMisses != 0 {
				t.Errorf("%v: mmap cache active", d)
			}
		} else {
			if st.MmapCacheHits < 14 {
				t.Errorf("%v: cache hits %d, want >= 14", d, st.MmapCacheHits)
			}
		}
		if err := as.Close(); err != nil {
			t.Error(err)
		}
	}
}

func TestNoFrameLeaks(t *testing.T) {
	// Close() asserts exactly one live frame; drive a workload with
	// splits, merges, partial unmaps and stack growth first.
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		for round := 0; round < 5; round++ {
			base := mustMmap(t, as, 0, 64*PageSize, vma.ProtRead|vma.ProtWrite, 0)
			for i := uint64(0); i < 64; i += 2 {
				if err := cpu.Fault(base+i*PageSize, true); err != nil {
					t.Fatal(err)
				}
			}
			if err := as.Munmap(base+8*PageSize, 16*PageSize); err != nil {
				t.Fatal(err)
			}
			if err := as.Munmap(base, 64*PageSize); err != nil {
				t.Fatal(err)
			}
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
