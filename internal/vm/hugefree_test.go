package vm

// The huge-page return path: an unsplit 2 MB run retires as one unit
// (one gather run entry, one uncharge, one order-9 buddy block), and
// fork splits any huge entry its clone meets — including one a
// first-touch fault installs while the fork is running.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"bonsai/internal/pagetable"
	"bonsai/internal/race"
	"bonsai/internal/vma"
)

// TestHugeRoundCounts holds one huge_populate round — 32 × (mmap of an
// aligned 2 MB chunk + one write fault), one munmap of all 32, one grace
// period — to its budget: each run is one frame word, so the round
// stamps 32 head words and rewrites no tail (the blocks come back shaped
// from the round before); the 32 runs go back as 32 order-9 blocks with
// no merging (the only coalescing left is the deposited tables'), the
// flush and unmap counters still see 16,384 pages, and the round makes
// at most 4 heap allocations and 1 KiB (the deposits' structs are
// reused from the round before).
func TestHugeRoundCounts(t *testing.T) {
	const chunks = 32
	as, err := New(Config{Design: PureRCU, CPUs: 1, Frames: 4 * chunks * 512, tune: tuning{rcuBatch: -1}})
	if err != nil {
		t.Fatal(err)
	}
	cpu := as.NewCPU(0)
	base := UnmappedBase + 1<<30
	round := func() {
		for c := uint64(0); c < chunks; c++ {
			if _, err := as.Mmap(base+c*HugeSpan, HugeSpan, vma.ProtRead|vma.ProtWrite, vma.Fixed, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		for c := uint64(0); c < chunks; c++ {
			if err := cpu.Fault(base+c*HugeSpan+c*PageSize, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := as.Munmap(base, chunks*HugeSpan); err != nil {
			t.Fatal(err)
		}
		as.Domain().Synchronize()
	}
	round() // warm the pools and the page-table directories
	runs := as.alloc.FreeRuns(pagetable.HugeOrder)
	pm, st := as.alloc.Stats(), as.Stats()
	round()
	pm2, st2 := as.alloc.Stats(), as.Stats()
	if got := st2.THPHugeFaults - st.THPHugeFaults; got != chunks {
		t.Fatalf("%d huge faults, want %d", got, chunks)
	}
	// An unsplit run's one word is its head's: one stamp per AllocRun.
	if got := pm2.RunAllocs - pm.RunAllocs; got != chunks {
		t.Errorf("%d head-word stamps (runs allocated), want %d", got, chunks)
	}
	if shaped, mat := pm2.TailsShaped-pm.TailsShaped, pm2.TailsMaterialized-pm.TailsMaterialized; shaped != 0 || mat != 0 {
		t.Errorf("a steady-state round shaped %d and materialized %d tails, want 0 and 0", shaped, mat)
	}
	if got := pm2.BuddyCoalesces - pm.BuddyCoalesces; got > chunks {
		t.Errorf("one round took %d buddy coalesces, want at most %d", got, chunks)
	}
	if got := st2.PagesUnmapped - st.PagesUnmapped; got != chunks*512 {
		t.Errorf("PagesUnmapped grew by %d, want %d", got, chunks*512)
	}
	if got := st2.TLBPagesFlushed - st.TLBPagesFlushed; got != chunks*512 {
		t.Errorf("TLB PagesFlushed grew by %d, want %d", got, chunks*512)
	}
	if got := as.alloc.FreeRuns(pagetable.HugeOrder); got != runs {
		t.Errorf("FreeRuns(9) = %d after the round, want %d", got, runs)
	}
	if !race.Enabled {
		// The 32 deposit tables come off the tree's spare list: no
		// page-table struct reaches the Go heap in a steady round.
		avg := testing.AllocsPerRun(100, round)
		if avg > 4 {
			t.Errorf("a round allocates %.1f times, want at most 4", avg)
		}
		const rounds = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / rounds
		if bytes > 1024 {
			t.Errorf("a round allocates %d bytes, want at most 1 KiB", bytes)
		}
		t.Logf("a steady round: %.1f allocations, %d bytes", avg, bytes)
	}
	if err := as.Close(); err != nil {
		t.Fatalf("frames lost: %v", err)
	}
}

// TestHugeSplitMaterializesOnce: mprotecting half of a huge chunk splits
// its entry and, under the split, its run — 511 tails made words of their
// own, once. The frames are then ordinary base pages: each is allocated
// with one reference and the run's generation, AuditTHP holds, and munmap
// returns them one by one through FreeBatch, the buddy lists coalescing
// them back into an order-9 block without touching a tail again.
func TestHugeSplitMaterializesOnce(t *testing.T) {
	as, err := New(Config{Design: PureRCU, CPUs: 1, Frames: 8192})
	if err != nil {
		t.Fatal(err)
	}
	cpu := as.NewCPU(0)
	mustMmap(t, as, hugeBase, HugeSpan, vma.ProtRead|vma.ProtWrite, vma.Fixed)
	if err := cpu.Fault(hugeBase, true); err != nil {
		t.Fatal(err)
	}
	pte, ok := as.tables.WalkHuge(hugeBase)
	if !ok {
		t.Fatal("fault installed no huge entry")
	}
	run := pagetable.PTEFrame(pte)
	gen := as.alloc.Gen(run)
	pm := as.alloc.Stats()
	if err := as.Mprotect(hugeBase, HugeSpan/2, vma.ProtRead); err != nil {
		t.Fatal(err)
	}
	pm2 := as.alloc.Stats()
	if got := pm2.TailsMaterialized - pm.TailsMaterialized; got != 511 {
		t.Fatalf("the split materialized %d tails, want 511", got)
	}
	if _, huge := as.tables.WalkHuge(hugeBase); huge {
		t.Fatal("the huge entry survived a half-chunk mprotect")
	}
	for f := run; f < run+512; f++ {
		if !as.alloc.Allocated(f) || as.alloc.Refs(f) != 1 || as.alloc.Gen(f) != gen {
			t.Fatalf("split frame %d: allocated %v refs %d gen %d, want true, 1, %d",
				f, as.alloc.Allocated(f), as.alloc.Refs(f), as.alloc.Gen(f), gen)
		}
	}
	if err := as.AuditTHP(); err != nil {
		t.Fatal(err)
	}
	runs := as.alloc.FreeRuns(pagetable.HugeOrder)
	if err := as.Munmap(hugeBase, HugeSpan); err != nil {
		t.Fatal(err)
	}
	as.Domain().Synchronize()
	pm3 := as.alloc.Stats()
	if pm3.TailsMaterialized != pm2.TailsMaterialized || pm3.TailsShaped != pm2.TailsShaped {
		t.Fatalf("freeing the split frames rewrote %d + %d tails, want none",
			pm3.TailsMaterialized-pm2.TailsMaterialized, pm3.TailsShaped-pm2.TailsShaped)
	}
	for f := run; f < run+512; f++ {
		if as.alloc.Allocated(f) {
			t.Fatalf("frame %d still allocated after munmap and a grace period", f)
		}
	}
	if got := as.alloc.FreeRuns(pagetable.HugeOrder); got != runs+1 {
		t.Fatalf("order-9 blocks %d after the split frames' free, want %d", got, runs+1)
	}
	if err := as.AuditTHP(); err != nil {
		t.Fatal(err)
	}
	if err := as.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHugeRunTenantCharge: a huge fault on a tenant's CPU charges the
// tenant's account for the run's 512 frames (and the deposited page
// table), stamping each frame; munmap and a grace period return all of
// it and clear every stamp, and the tenant's close leaves nothing
// charged. The second fault's deposit takes the first's struct off the
// tree's spare list (pagetable's TestSpareReuse), and its frame is
// charged, counted and freed just the same.
func TestHugeRunTenantCharge(t *testing.T) {
	h := NewHost(Config{Design: PureRCU, CPUs: 1, Frames: 8192}, 1)
	as, err := h.Admit("", 4096)
	if err != nil {
		t.Fatal(err)
	}
	ac := as.Account()
	cpu := as.NewCPU(0)
	// A one-page neighbour in the same 1 GB span builds the directories
	// first, so the huge fault allocates only its run and its deposit.
	mustMmap(t, as, hugeBase+HugeSpan, PageSize, vma.ProtRead, vma.Fixed)
	if err := cpu.Fault(hugeBase+HugeSpan, false); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		mustMmap(t, as, hugeBase, HugeSpan, vma.ProtRead|vma.ProtWrite, vma.Fixed)
		charged, st := ac.Charged(), as.tables.Stats()
		if err := cpu.Fault(hugeBase+3*PageSize, true); err != nil {
			t.Fatal(err)
		}
		pte, ok := as.tables.WalkHuge(hugeBase)
		if !ok {
			t.Fatal("fault installed no huge entry")
		}
		st2 := as.tables.Stats()
		if got, alloc := st2.TablesLive-st.TablesLive, st2.TablesAlloc-st.TablesAlloc; got != 1 || alloc != 1 {
			t.Fatalf("round %d: huge fault built %d page tables (%d allocated), want 1 (the deposit)", round, got, alloc)
		}
		if got := ac.Charged() - charged; got != 512+1 {
			t.Fatalf("round %d: huge fault charged %d frames, want 512 + the deposited table", round, got)
		}
		run := pagetable.PTEFrame(pte)
		for f := run; f < run+512; f++ {
			if as.alloc.Owner(f) != ac {
				t.Fatalf("frame %d of the run is stamped %v, want the tenant's account", f, as.alloc.Owner(f))
			}
		}
		if err := as.Munmap(hugeBase, HugeSpan); err != nil {
			t.Fatal(err)
		}
		as.Domain().Synchronize()
		if got := ac.Charged(); got != charged {
			t.Fatalf("round %d: charged %d after munmap and a grace period, want %d", round, got, charged)
		}
		if got := as.tables.Stats().TablesFreed - st.TablesFreed; got != 1 {
			t.Fatalf("round %d: munmap freed %d page tables, want 1 (the deposit)", round, got)
		}
		for f := run; f < run+512; f++ {
			if owner := as.alloc.Owner(f); owner != nil {
				t.Fatalf("frame %d still stamped %v after its run was freed", f, owner)
			}
		}
	}
	if err := as.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ac.Charged(); got != 0 {
		t.Fatalf("charged %d after the tenant closed, want 0", got)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestForkBesideHugeFaults: in the RCU designs a fault runs beside a
// fork, so a first-touch fault can install a huge entry in a chunk the
// clone has not reached yet. The clone must split it like any other
// (it used to panic, "CloneRange over a huge entry"). Forks loop while a
// faulter re-empties the region with MADV_DONTNEED and touches each
// chunk again; then the THP identity and the leak checks must hold. The
// forks start once the faulter has touched every chunk, so a fast fork
// loop cannot finish before the faulter has run at all.
func TestForkBesideHugeFaults(t *testing.T) {
	forks := 60
	if testing.Short() {
		forks = 15
	}
	const chunks = 16
	for _, d := range []Design{PureRCU, Hybrid} {
		t.Run(d.String(), func(t *testing.T) {
			as, err := New(Config{Design: d, CPUs: 2, Frames: 1 << 15})
			if err != nil {
				t.Fatal(err)
			}
			mustMmap(t, as, hugeBase, chunks*HugeSpan, vma.ProtRead|vma.ProtWrite, vma.Fixed)
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			touched := make(chan struct{})
			go func() {
				defer wg.Done()
				defer close(touched)
				cpu := as.NewCPU(1)
				for i := uint64(0); !stop.Load(); i++ {
					if i == 1 {
						touched <- struct{}{}
					}
					if err := as.MadviseDontNeed(hugeBase, chunks*HugeSpan); err != nil {
						t.Error(err)
						return
					}
					for c := uint64(0); c < chunks; c++ {
						if err := cpu.Fault(hugeBase+c*HugeSpan+(i+c)%512*PageSize, true); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			<-touched
			for i := 0; i < forks; i++ {
				child, err := as.Fork()
				if err != nil {
					t.Fatal(err)
				}
				if err := child.AuditTHP(); err != nil {
					t.Errorf("child: %v", err)
				}
				if err := child.Close(); err != nil {
					t.Errorf("child teardown: %v", err)
				}
			}
			stop.Store(true)
			wg.Wait()
			if as.Stats().THPHugeFaults == 0 {
				t.Fatal("the faulter installed no huge entry")
			}
			if err := as.AuditTHP(); err != nil {
				t.Fatal(err)
			}
			if err := as.Close(); err != nil {
				t.Fatalf("teardown: %v", err)
			}
		})
	}
}
