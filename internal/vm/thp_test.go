package vm

// Transparent-huge-page tests: the huge-first fault path, base-page
// fallback under run fragmentation, gather-driven demotion on partial
// munmap and boundary-crossing mprotect, CollapseRange promotion,
// fork's split-in-clone, and a -race storm
// that pits huge faulters against a splitter and a collapser on one
// region with the run allocator failing intermittently.

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"bonsai/internal/fail"
	"bonsai/internal/vma"
)

// hugeBase returns a HugeSpan-aligned fixed-mapping base.
const hugeBase = UnmappedBase + 0x10000000

func thpConfig() Config {
	return Config{CPUs: 4, Frames: 16384, Backing: true}
}

func TestHugeFaultInstalls(t *testing.T) {
	forEachDesign(t, thpConfig(), func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		mustMmap(t, as, hugeBase, HugeSpan, vma.ProtRead|vma.ProtWrite, vma.Fixed)
		// One fault anywhere in the chunk maps all 512 pages.
		if err := cpu.Fault(hugeBase+37*PageSize, true); err != nil {
			t.Fatal(err)
		}
		st := as.Stats()
		if st.THPHugeFaults != 1 || st.PagesMapped != 512 || st.AnonHugePages != 1 {
			t.Fatalf("after huge fault: hugeFaults=%d pagesMapped=%d anonHugePages=%d, want 1/512/1",
				st.THPHugeFaults, st.PagesMapped, st.AnonHugePages)
		}
		for _, off := range []uint64{0, 37 * PageSize, HugeSpan - PageSize} {
			if _, ok := as.Translate(hugeBase + off); !ok {
				t.Fatalf("offset %#x not translated through the huge entry", off)
			}
		}
		// A second fault in the chunk is a hit, not a new install.
		if err := cpu.Fault(hugeBase, false); err != nil {
			t.Fatal(err)
		}
		if st := as.Stats(); st.THPHugeFaults != 1 {
			t.Fatalf("refault installed again: %d huge faults", st.THPHugeFaults)
		}
		// I/O round-trips through the huge translation, including across
		// base-page boundaries inside the chunk.
		want := []byte("spans two subpages of one huge entry")
		addr := hugeBase + 11*PageSize - 8
		if err := cpu.WriteBytes(addr, want); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if err := cpu.ReadBytes(addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("huge I/O round trip: got %q, want %q", got, want)
		}
		if err := cpu.AuditTranslation(hugeBase + 100*PageSize); err != nil {
			t.Fatal(err)
		}
		if err := as.AuditTHP(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestHugeFaultFallsBackWhenFragmented(t *testing.T) {
	defer fail.DisableAll()
	forEachDesign(t, thpConfig(), func(t *testing.T, as *AddressSpace) {
		if err := fail.Enable(31, "physmem.run-alloc", fail.Config{OneIn: 1}); err != nil {
			t.Fatal(err)
		}
		defer fail.DisableAll()
		cpu := as.NewCPU(0)
		mustMmap(t, as, hugeBase, HugeSpan, vma.ProtRead|vma.ProtWrite, vma.Fixed)
		if err := cpu.Fault(hugeBase, true); err != nil {
			t.Fatal(err)
		}
		st := as.Stats()
		if st.THPHugeFaults != 0 || st.THPFallbacks == 0 || st.PagesMapped != 1 {
			t.Fatalf("fragmented fault: hugeFaults=%d fallbacks=%d pagesMapped=%d, want 0/>0/1",
				st.THPHugeFaults, st.THPFallbacks, st.PagesMapped)
		}
		if err := as.AuditTHP(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShortRegionTakesBasePages: an aligned region one page short of a
// chunk is not huge-eligible — every fault maps a base page and
// CollapseRange promotes nothing. This is how a workload gets the
// base-page path.
func TestShortRegionTakesBasePages(t *testing.T) {
	forEachDesign(t, thpConfig(), func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		const pages = 511
		mustMmap(t, as, hugeBase, pages*PageSize, vma.ProtRead|vma.ProtWrite, vma.Fixed)
		for i := uint64(0); i < pages; i++ {
			if err := cpu.Fault(hugeBase+i*PageSize, true); err != nil {
				t.Fatal(err)
			}
		}
		if n := as.CollapseRange(hugeBase, hugeBase+HugeSpan); n != 0 {
			t.Fatalf("CollapseRange promoted %d chunks of a short region", n)
		}
		st := as.Stats()
		if st.THPHugeFaults != 0 || st.AnonHugePages != 0 || st.PagesMapped != pages {
			t.Fatalf("short region: hugeFaults=%d anonHugePages=%d pagesMapped=%d, want 0/0/%d",
				st.THPHugeFaults, st.AnonHugePages, st.PagesMapped, pages)
		}
	})
}

// TestPartialMunmapSplitsHuge checks gather-driven demotion: unmapping
// one page inside a huge chunk splits the entry to base pages and zaps
// just that page; unmapping a whole chunk zaps the entry outright.
func TestPartialMunmapSplitsHuge(t *testing.T) {
	forEachDesign(t, thpConfig(), func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		mustMmap(t, as, hugeBase, 2*HugeSpan, vma.ProtRead|vma.ProtWrite, vma.Fixed)
		if err := cpu.Fault(hugeBase, true); err != nil {
			t.Fatal(err)
		}
		if err := cpu.Fault(hugeBase+HugeSpan, true); err != nil {
			t.Fatal(err)
		}
		if st := as.Stats(); st.AnonHugePages != 2 {
			t.Fatalf("AnonHugePages = %d, want 2", st.AnonHugePages)
		}
		// Data survives the demotion (the split is a representation
		// change; no frame changes hands).
		if err := cpu.WriteBytes(hugeBase+4*PageSize, []byte("survives split")); err != nil {
			t.Fatal(err)
		}
		if err := as.Munmap(hugeBase+5*PageSize, PageSize); err != nil {
			t.Fatal(err)
		}
		st := as.Stats()
		if st.THPSplits != 1 || st.AnonHugePages != 1 {
			t.Fatalf("after partial munmap: splits=%d anonHugePages=%d, want 1/1", st.THPSplits, st.AnonHugePages)
		}
		if _, ok := as.Translate(hugeBase + 5*PageSize); ok {
			t.Fatal("unmapped page still translated")
		}
		if _, ok := as.Translate(hugeBase + 4*PageSize); !ok {
			t.Fatal("neighbor page lost in the split")
		}
		got := make([]byte, 14)
		if err := cpu.ReadBytes(hugeBase+4*PageSize, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "survives split" {
			t.Fatalf("data lost across split: %q", got)
		}
		// Whole-chunk munmap: the second entry zaps without splitting.
		if err := as.Munmap(hugeBase+HugeSpan, HugeSpan); err != nil {
			t.Fatal(err)
		}
		st = as.Stats()
		if st.THPZaps != 1 || st.THPSplits != 1 || st.AnonHugePages != 0 {
			t.Fatalf("after whole munmap: zaps=%d splits=%d anonHugePages=%d, want 1/1/0",
				st.THPZaps, st.THPSplits, st.AnonHugePages)
		}
		if err := as.AuditTHP(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMprotectHugeDowngradeAndUpgrade: a downgrade covering the whole
// chunk narrows the entry in place (no split); making it writable again
// and write-faulting upgrades it in place.
func TestMprotectHugeDowngradeAndUpgrade(t *testing.T) {
	forEachDesign(t, thpConfig(), func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		mustMmap(t, as, hugeBase, HugeSpan, vma.ProtRead|vma.ProtWrite, vma.Fixed)
		if err := cpu.Fault(hugeBase, true); err != nil {
			t.Fatal(err)
		}
		if err := as.Mprotect(hugeBase, HugeSpan, vma.ProtRead); err != nil {
			t.Fatal(err)
		}
		if err := cpu.Fault(hugeBase+PageSize, true); !errors.Is(err, ErrAccess) {
			t.Fatalf("write after downgrade = %v, want ErrAccess", err)
		}
		if err := cpu.Fault(hugeBase+PageSize, false); err != nil {
			t.Fatalf("read after downgrade: %v", err)
		}
		if err := as.Mprotect(hugeBase, HugeSpan, vma.ProtRead|vma.ProtWrite); err != nil {
			t.Fatal(err)
		}
		if err := cpu.WriteBytes(hugeBase+PageSize, []byte("upgraded in place")); err != nil {
			t.Fatal(err)
		}
		st := as.Stats()
		if st.THPSplits != 0 || st.AnonHugePages != 1 {
			t.Fatalf("aligned protect cycle split the entry: splits=%d anonHugePages=%d", st.THPSplits, st.AnonHugePages)
		}
		if err := as.AuditTHP(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMprotectUpgradeBoundarySplitsHuge is the regression test for
// write-enabling mprotect over part of a huge chunk: the read-only
// entry must be demoted at the boundary, otherwise the first write
// fault in the upgraded half would widen the whole 2 MB entry and make
// the still-read-only half silently writable.
func TestMprotectUpgradeBoundarySplitsHuge(t *testing.T) {
	forEachDesign(t, thpConfig(), func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		mustMmap(t, as, hugeBase, HugeSpan, vma.ProtRead, vma.Fixed)
		if err := cpu.Fault(hugeBase, false); err != nil {
			t.Fatal(err)
		}
		if st := as.Stats(); st.AnonHugePages != 1 {
			t.Fatalf("read fault did not install a huge entry: %+v", st)
		}
		half := hugeBase + HugeSpan/2
		if err := as.Mprotect(hugeBase, HugeSpan/2, vma.ProtRead|vma.ProtWrite); err != nil {
			t.Fatal(err)
		}
		if st := as.Stats(); st.THPSplits != 1 {
			t.Fatalf("boundary-crossing upgrade left the huge entry intact: splits=%d", st.THPSplits)
		}
		if err := cpu.WriteBytes(hugeBase, []byte("writable half")); err != nil {
			t.Fatal(err)
		}
		if err := cpu.Fault(half, true); !errors.Is(err, ErrAccess) {
			t.Fatalf("write to the read-only half = %v, want ErrAccess", err)
		}
		if err := as.AuditTHP(); err != nil {
			t.Fatal(err)
		}
	})
}

// populateBasePages fills [base, base+n*HugeSpan) with base pages by
// faulting every page while the run allocator is failing, so the
// huge-first path falls back — the fragmented-then-recovered history
// CollapseRange exists for. Each page gets a distinct first byte.
func populateBasePages(t *testing.T, as *AddressSpace, cpu *CPU, base uint64, chunks int) {
	t.Helper()
	if err := fail.Enable(32, "physmem.run-alloc", fail.Config{OneIn: 1}); err != nil {
		t.Fatal(err)
	}
	defer fail.Disable("physmem.run-alloc")
	for i := uint64(0); i < uint64(chunks)*512; i++ {
		if err := cpu.WriteBytes(base+i*PageSize, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCollapseRangePromotes(t *testing.T) {
	defer fail.DisableAll()
	forEachDesign(t, thpConfig(), func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		mustMmap(t, as, hugeBase, 2*HugeSpan, vma.ProtRead|vma.ProtWrite, vma.Fixed)
		populateBasePages(t, as, cpu, hugeBase, 2)
		if st := as.Stats(); st.AnonHugePages != 0 || st.PagesMapped != 1024 {
			t.Fatalf("population: anonHugePages=%d pagesMapped=%d, want 0/1024", st.AnonHugePages, st.PagesMapped)
		}
		// A request that starts mid-chunk promotes the chunk it overlaps.
		if n := as.CollapseRange(hugeBase+PageSize, hugeBase+2*PageSize); n != 1 {
			t.Fatalf("mid-chunk CollapseRange promoted %d chunks, want 1", n)
		}
		// An end past the address space is clamped before it is rounded
		// up to a chunk, so it cannot wrap.
		if n := as.CollapseRange(hugeBase, ^uint64(0)); n != 1 {
			t.Fatalf("CollapseRange to 2^64 promoted %d chunks, want 1", n)
		}
		st := as.Stats()
		if st.THPCollapses != 2 || st.AnonHugePages != 2 {
			t.Fatalf("after collapse: collapses=%d anonHugePages=%d, want 2/2", st.THPCollapses, st.AnonHugePages)
		}
		// Every page's contents survived the copy into the run.
		for _, i := range []uint64{0, 1, 511, 512, 700, 1023} {
			got := make([]byte, 2)
			if err := cpu.ReadBytes(hugeBase+i*PageSize, got); err != nil {
				t.Fatal(err)
			}
			if got[0] != byte(i) || got[1] != byte(i>>8) {
				t.Fatalf("page %d corrupted by collapse: %v", i, got)
			}
		}
		// Idempotent: already-huge chunks survey as ineligible.
		if n := as.CollapseRange(hugeBase, hugeBase+2*HugeSpan); n != 0 {
			t.Fatalf("second CollapseRange promoted %d chunks, want 0", n)
		}
		if n := as.CollapseRange(hugeBase+4*HugeSpan, hugeBase+8*HugeSpan); n != 0 {
			t.Fatalf("CollapseRange over an unmapped window promoted %d chunks", n)
		}
		if err := as.AuditTHP(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestForkSplitsHuge: huge entries are never copy-on-write — fork's
// clone demotes them to base pages, and both sides then break COW one
// page at a time.
func TestForkSplitsHuge(t *testing.T) {
	forEachDesign(t, thpConfig(), func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		mustMmap(t, as, hugeBase, HugeSpan, vma.ProtRead|vma.ProtWrite, vma.Fixed)
		if err := cpu.WriteBytes(hugeBase+9*PageSize, []byte("before fork")); err != nil {
			t.Fatal(err)
		}
		child, err := as.Fork()
		if err != nil {
			t.Fatal(err)
		}
		st := as.Stats()
		if st.THPSplits != 1 || st.AnonHugePages != 0 {
			t.Fatalf("fork did not split the huge entry: splits=%d anonHugePages=%d", st.THPSplits, st.AnonHugePages)
		}
		// Parent write breaks COW page-granular; the child keeps the old
		// contents.
		if err := cpu.WriteBytes(hugeBase+9*PageSize, []byte("parent wrote")); err != nil {
			t.Fatal(err)
		}
		childCPU := child.NewCPU(0)
		got := make([]byte, 11)
		if err := childCPU.ReadBytes(hugeBase+9*PageSize, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "before fork" {
			t.Fatalf("child sees parent's post-fork write: %q", got)
		}
		if err := child.Close(); err != nil {
			t.Errorf("child teardown: %v", err)
		}
		if err := as.AuditTHP(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTHPStorm is the -race stress: on one 8-chunk region, faulters
// hammer reads and writes, a splitter repeatedly punches a page out of
// a chunk and remaps it, and a collapser promotes whatever has filled
// back in — all while the run allocator fails one in ten, so huge
// faults, fallbacks, splits, collapses, and collapse failures
// interleave. An auditor continuously checks the frame-generation
// invariant; the quiesced THP audit and the allocator leak check (in
// Close) are the final assertions.
func TestTHPStorm(t *testing.T) {
	defer fail.DisableAll()
	const chunks = 8
	iters := 300
	if testing.Short() {
		iters = 60
	}
	forEachDesign(t, thpConfig(), func(t *testing.T, as *AddressSpace) {
		if err := fail.Enable(33, "physmem.run-alloc", fail.Config{OneIn: 10}); err != nil {
			t.Fatal(err)
		}
		defer fail.DisableAll()
		mustMmap(t, as, hugeBase, chunks*HugeSpan, vma.ProtRead|vma.ProtWrite, vma.Fixed)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cpu := as.NewCPU(w)
				rng := rand.New(rand.NewSource(int64(w)))
				buf := []byte{0xAB}
				for i := 0; i < iters; i++ {
					addr := hugeBase + uint64(rng.Intn(chunks*512))*PageSize
					var err error
					if i%2 == 0 {
						err = cpu.WriteBytes(addr, buf)
					} else {
						err = cpu.ReadBytes(addr, buf)
					}
					// ErrSegv: the splitter's punched page, mid-remap.
					if err != nil && !errors.Is(err, ErrSegv) && !errors.Is(err, ErrNoMemory) {
						t.Errorf("faulter: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() { // splitter
			defer wg.Done()
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < iters/3; i++ {
				page := hugeBase + uint64(rng.Intn(chunks*512))*PageSize
				if err := as.Munmap(page, PageSize); err != nil {
					t.Errorf("splitter munmap: %v", err)
					return
				}
				if _, err := as.Mmap(page, PageSize, vma.ProtRead|vma.ProtWrite, vma.Fixed, nil, 0); err != nil {
					t.Errorf("splitter remap: %v", err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() { // collapser
			defer wg.Done()
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < iters/6; i++ {
				c := hugeBase + uint64(rng.Intn(chunks))*HugeSpan
				as.CollapseRange(c, c+HugeSpan)
			}
		}()
		wg.Add(1)
		go func() { // auditor: frame-generation invariant under fire
			defer wg.Done()
			cpu := as.NewCPU(3)
			rng := rand.New(rand.NewSource(1234))
			for i := 0; i < iters; i++ {
				addr := hugeBase + uint64(rng.Intn(chunks*512))*PageSize
				if err := cpu.AuditTranslation(addr); err != nil {
					t.Errorf("auditor: %v", err)
					return
				}
			}
		}()
		wg.Wait()
		fail.DisableAll()
		if err := as.AuditTHP(); err != nil {
			t.Fatal(err)
		}
		st := as.Stats()
		t.Logf("storm: hugeFaults=%d fallbacks=%d collapses=%d collapseFails=%d splits=%d zaps=%d anonHugePages=%d",
			st.THPHugeFaults, st.THPFallbacks, st.THPCollapses, st.THPCollapseFails,
			st.THPSplits, st.THPZaps, st.AnonHugePages)
	})
}
