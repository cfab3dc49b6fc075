package vm

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bonsai/internal/race"
	"bonsai/internal/trace"
	"bonsai/internal/vma"
)

// mapCycle is one cycle of the benchmark's map_churn workload: map a
// 64-page arena at a fixed address, fault four pages in, write-protect
// them, unmap the arena.
func mapCycle(as *AddressSpace, cpu *CPU, base uint64) error {
	const arena, touched = 64 * PageSize, 4
	if _, err := as.Mmap(base, arena, vma.ProtRead|vma.ProtWrite, vma.Fixed, nil, 0); err != nil {
		return err
	}
	for p := uint64(0); p < touched; p++ {
		if err := cpu.Fault(base+p*PageSize, true); err != nil {
			return err
		}
	}
	if err := as.Mprotect(base, touched*PageSize, vma.ProtRead); err != nil {
		return err
	}
	return as.Munmap(base, arena)
}

// churnCycle runs one mapCycle on the test's own goroutine.
func churnCycle(t testing.TB, as *AddressSpace, cpu *CPU, base uint64) {
	t.Helper()
	if err := mapCycle(as, cpu, base); err != nil {
		t.Fatal(err)
	}
}

// TestDisjointArenasAllDesigns runs map_churn's shape under every
// design: workers cycling on private arenas 1 GiB apart. Hybrid and
// PureRCU range-lock those operations side by side, and none may wait
// on a range conflict; RWLock and FaultLock serialize them on mmap_sem
// and acquire no range; every design counts every operation and ends
// with no region left.
func TestDisjointArenasAllDesigns(t *testing.T) {
	const workers = 4
	rounds := 50
	if testing.Short() {
		rounds = 10
	}
	forEachDesign(t, Config{CPUs: workers}, func(t *testing.T, as *AddressSpace) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(cpu *CPU, base uint64) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if err := mapCycle(as, cpu, base); err != nil {
						t.Errorf("arena %#x: %v", base, err)
						return
					}
				}
			}(as.NewCPU(w), UnmappedBase+uint64(w+1)<<30)
		}
		wg.Wait()
		want := uint64(workers * rounds)
		if st := as.Stats(); st.Mmaps != want || st.Mprotects != want || st.Munmaps != want {
			t.Errorf("mmaps/mprotects/munmaps = %d/%d/%d, want %d each", st.Mmaps, st.Mprotects, st.Munmaps, want)
		}
		if n := as.RegionCount(); n != 0 {
			t.Errorf("%d regions left after every arena was unmapped", n)
		}
		rangeLocked := as.cfg.Design.UsesRCU()
		switch rst := as.RangeStats(); {
		case rangeLocked && (rst.Acquires == 0 || rst.Conflicts != 0):
			t.Errorf("disjoint arenas: %d range acquisitions, %d conflicts; want some and none", rst.Acquires, rst.Conflicts)
		case !rangeLocked && rst.Acquires != 0:
			t.Errorf("mapping operations on mmap_sem recorded %d range acquisitions", rst.Acquires)
		}
	})
}

// TestMapCycleAllocs holds a mapping operation to its allocation
// budget: beyond the VMAs and tree nodes it publishes, nothing. One
// map_churn cycle on PureRCU publishes three VMAs (the mapping, and the
// two pieces mprotect splits it into) and their tree nodes; guards,
// gathers, frame batches and their callbacks all come out of pools. (29 allocations and 1.08 KB before the operation
// context.)
func TestMapCycleAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	// No background poller: the test runs the grace periods itself, so
	// how many batches are out with the domain, and when they come back
	// to the pools, does not depend on scheduling.
	as, err := New(Config{Design: PureRCU, CPUs: 1, Frames: 1 << 14, tune: tuning{rcuBatch: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	cpu := as.NewCPU(0)
	base := UnmappedBase + 1<<30
	const cycles, perGP = 2048, 32
	run := func(n int) {
		for i := 0; i < n; i++ {
			churnCycle(t, as, cpu, base)
			if i%perGP == perGP-1 {
				as.dom.Synchronize()
			}
		}
	}
	run(2 * perGP) // page tables exist, pools are primed

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(cycles)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / cycles
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / cycles
	t.Logf("%.2f allocations, %.0f bytes per cycle", allocs, bytes)
	if allocs > 10 || bytes > 512 {
		t.Errorf("a map_churn cycle allocates %.2f times, %.0f bytes; the budget is 10 and 512", allocs, bytes)
	}
}

// TestMapCycleCounts is what a map_churn cycle costs in shared-lock
// holds and RCU callbacks, counted: each of its three mapping operations
// is one write transaction of the region index (one writer-lock hold of
// one stripe's tree; six holds a cycle before the tree transaction), and
// acquires its range once — mprotect asks for the whole VMA's extent at
// the outset rather than widening into it — and the cycle queues exactly
// one RCU callback: munmap's frames. The tree nodes the operations
// displace are left to the garbage collector under both designs, so
// they queue nothing.
func TestMapCycleCounts(t *testing.T) {
	const cycles = 100
	for _, design := range []Design{Hybrid, PureRCU} {
		t.Run(design.String(), func(t *testing.T) {
			as, err := New(Config{Design: design, CPUs: 1, Frames: 1 << 14, tune: tuning{rcuBatch: -1}})
			if err != nil {
				t.Fatal(err)
			}
			defer as.Close()
			cpu := as.NewCPU(0)
			base := UnmappedBase + 1<<30
			churnCycle(t, as, cpu, base)

			treeHolds := func() uint64 {
				var sum uint64
				for _, n := range treeTxns(as) {
					sum += n
				}
				return sum
			}
			holds, ranges, defers := treeHolds(), as.RangeStats().Acquires, as.dom.Stats().Defers
			for i := 0; i < cycles; i++ {
				churnCycle(t, as, cpu, base)
			}
			if got := treeHolds() - holds; got != 3*cycles {
				t.Errorf("%d tree writer-lock holds in %d cycles, want 3 a cycle", got, cycles)
			}
			if got := as.RangeStats().Acquires - ranges; got != 3*cycles {
				t.Errorf("%d range acquisitions in %d cycles, want 3 a cycle", got, cycles)
			}
			if got := as.dom.Stats().Defers - defers; got != cycles {
				t.Errorf("%d RCU callbacks in %d cycles, want one a cycle (munmap's frames)", got, cycles)
			}
		})
	}
}

// treeTxns returns the write transactions of each of the region
// index's trees, the stripes' in stripe order and then crossing's.
func treeTxns(as *AddressSpace) []uint64 {
	idx := as.idx
	txns := make([]uint64, 0, stripes+1)
	for _, t := range idx.trees {
		txns = append(txns, t.Stats().Txns)
	}
	return append(txns, idx.crossing.Stats().Txns)
}

// twoSlots returns two operation contexts as two operations in flight
// on a busy machine get them: fresh from the pool's New, one after the
// other, so with consecutive slots — different cells of every per-slot
// counter and different RCU shards, both counts being powers of two. It
// skips the test on a one-processor run, where there is one cell and one
// shard. The caller ends them.
func twoSlots(t *testing.T, as *AddressSpace) (a, b *opCtx) {
	t.Helper()
	if mapSlotCells() < 2 || as.dom.Stats().Shards < 2 {
		t.Skip("one processor: one cell, one shard")
	}
	// Take contexts until the pool has none left to give and makes two
	// in a row.
	var pooled []*opCtx
	for made := 0; made < 2; {
		created := opSlots.Load()
		a, b = b, as.beginOp()
		if opSlots.Load() != created {
			made++
		} else {
			made = 0
		}
		pooled = append(pooled, b)
	}
	for _, op := range pooled[:len(pooled)-2] {
		op.end()
	}
	if (a.slot^b.slot)&1 == 0 {
		t.Fatalf("contexts made one after the other have slots %d and %d", a.slot, b.slot)
	}
	return a, b
}

// slotReading is every per-slot cell a mapping operation may write, read
// for one slot: the address space's counters and histogram, the
// shootdown domain's, and the RCU shard's queue count.
func slotReading(as *AddressSpace, slot int) map[string]uint64 {
	m := map[string]uint64{"vm.mapHist": as.stats.slot.At(slot).hist.Count()}
	rowCells(m, as.stats.slot.At(slot))
	m["tlb.flushes"], m["tlb.pages"] = as.fam.ms.tlb.CountsOn(slot)
	ds := as.dom.Stats()
	m["rcu.queued"] = ds.ShardQueued[slot&(ds.Shards-1)]
	return m
}

// stripeReading is every integer word of each of the range manager's
// stripes — its counters and guard-id source — read by reflection, the
// stripes being the manager's own; nil on the global semaphore.
func stripeReading(as *AddressSpace) [][]uint64 {
	if as.sy.rl == nil {
		return nil
	}
	stripes := reflect.ValueOf(as.sy.rl).Elem().FieldByName("stripes")
	out := make([][]uint64, stripes.Len())
	for i := range out {
		for s, f := stripes.Index(i), 0; f < s.NumField(); f++ {
			switch v := s.Field(f); v.Kind() {
			case reflect.Uint64:
				out[i] = append(out[i], v.Uint())
			case reflect.Int:
				out[i] = append(out[i], uint64(v.Int()))
			}
		}
	}
	return out
}

// movedStripes lists the stripes whose words differ between two
// readings.
func movedStripes(before, after [][]uint64) (moved []int) {
	for i := range before {
		if !slices.Equal(before[i], after[i]) {
			moved = append(moved, i)
		}
	}
	return moved
}

// TestDisjointMapOpsWriteOnlyTheirOwnCells extends the fast-path
// fault's shared-write audit to the mapping side. Operations on
// disjoint ranges running in different slots — as two processors'
// operations do, each processor getting its own context back from the
// pool — count everything they count in their own slot's cells and
// queue everything they retire on their own slot's RCU shard: whatever
// moved in one slot's reading, nothing moved in the other's. (Two
// operations in flight always hold two contexts; that those differ in
// slot as well is the pool's doing, checked at the end.) The two
// operations' ranges, 1 GiB apart, also lie in two stripes of the range
// manager (under Hybrid and PureRCU) and of the region index: each
// slot's operations move one stripe's words, not the other's, and
// publish into one stripe's tree, not the other's.
func TestDisjointMapOpsWriteOnlyTheirOwnCells(t *testing.T) {
	forEachDesign(t, Config{CPUs: 2, Frames: 1 << 14, tune: tuning{rcuBatch: -1}}, func(t *testing.T, as *AddressSpace) {
		a, b := twoSlots(t, as)
		cpus := [2]*CPU{as.NewCPU(0), as.NewCPU(1)}
		// One of every mapping operation, each counter moved at least
		// once: a mapping, a merge into it, faults, a split by mprotect, a
		// zap by madvise, a split by a partial munmap, the final munmap.
		ops := func(op *opCtx, cpu *CPU, base uint64) {
			t.Helper()
			rw := vma.ProtRead | vma.ProtWrite
			run := func(code uint64, fn func(*opCtx) error) {
				t.Helper()
				if err := as.mapOpIn(op, code, base, PageSize, fn); err != nil {
					t.Fatal(err)
				}
			}
			mmap := func(addr, length uint64) func(*opCtx) error {
				return func(op *opCtx) error {
					_, err := as.mmapInner(op, addr, length, rw, vma.Fixed, nil, 0)
					return err
				}
			}
			run(trace.OpMmap, mmap(base, 16*PageSize))
			run(trace.OpMmap, mmap(base+16*PageSize, 16*PageSize))
			for p := uint64(0); p < 32; p++ {
				if err := cpu.Fault(base+p*PageSize, true); err != nil {
					t.Fatal(err)
				}
			}
			run(trace.OpMprotect, func(op *opCtx) error { return as.mprotectInner(op, base, 4*PageSize, vma.ProtRead) })
			run(trace.OpMadvise, func(op *opCtx) error { return as.madviseInner(op, base+4*PageSize, 4*PageSize) })
			run(trace.OpMunmap, func(op *opCtx) error { return as.munmapInner(op, base+8*PageSize, 4*PageSize) })
			run(trace.OpMunmap, func(op *opCtx) error { return as.munmapInner(op, base, 32*PageSize) })
		}
		moved := func(before, after map[string]uint64) (names []string) {
			for name, v := range after {
				if v != before[name] {
					names = append(names, name)
				}
			}
			slices.Sort(names)
			return names
		}
		// Every cell a mapping operation writes, and nothing else in the
		// slot's row (forks, stack growth and the slotless paths count
		// there too).
		mapCells := []string{"rcu.queued", "tlb.flushes", "tlb.pages", "vm.Madvises", "vm.Merges", "vm.Mmaps",
			"vm.Mprotects", "vm.Munmaps", "vm.PagesUnmapped", "vm.Splits", "vm.mapHist"}

		a0, b0, s0, x0 := slotReading(as, a.slot), slotReading(as, b.slot), stripeReading(as), treeTxns(as)
		ops(a, cpus[0], UnmappedBase+1<<30)
		a1, b1, s1, x1 := slotReading(as, a.slot), slotReading(as, b.slot), stripeReading(as), treeTxns(as)
		if got := moved(b0, b1); len(got) != 0 {
			t.Errorf("operations in slot %d moved slot %d's %v", a.slot, b.slot, got)
		}
		if got := moved(a0, a1); !slices.Equal(got, mapCells) {
			t.Errorf("operations in slot %d moved %v of its own cells, want %v: the scenario no longer covers them all, or an operation counts in a field not its own", a.slot, got, mapCells)
		}
		ops(b, cpus[1], UnmappedBase+2<<30)
		if got := moved(a1, slotReading(as, a.slot)); len(got) != 0 {
			t.Errorf("operations in slot %d moved slot %d's %v", b.slot, a.slot, got)
		}
		if s0 != nil {
			inA, inB := movedStripes(s0, s1), movedStripes(s1, stripeReading(as))
			if len(inA) != 1 || len(inB) != 1 || inA[0] == inB[0] {
				t.Errorf("range-manager stripes moved: %v by slot %d's operations, %v by slot %d's: want one each, not the same",
					inA, a.slot, inB, b.slot)
			}
		}
		// The region index: each slot's operations publish into their own
		// stripe's tree, never the other's, and none into crossing.
		movedTrees := func(before, after []uint64) (trees []int) {
			for i := range before {
				if before[i] != after[i] {
					trees = append(trees, i)
				}
			}
			return trees
		}
		inA, inB := movedTrees(x0, x1), movedTrees(x1, treeTxns(as))
		if len(inA) != 1 || len(inB) != 1 || inA[0] == inB[0] || inA[0] == stripes || inB[0] == stripes {
			t.Errorf("index trees written: %v by slot %d's operations, %v by slot %d's: want one stripe's tree each, not the same, not crossing (%d)",
				inA, a.slot, inB, b.slot, stripes)
		}
		a.end()
		b.end()
	})
}

// TestConcurrentMapOpsRetireOnDifferentShards: mapping operations in
// flight at once hold contexts of their own, and the contexts a set of
// workers settles on were made one after the other, so they retire on
// RCU shards of their own. retireShard's address hash, which the slot
// replaces, sent arenas 1 GiB apart — the benchmark's map_churn — to one
// shard for half of all seeds.
func TestConcurrentMapOpsRetireOnDifferentShards(t *testing.T) {
	as, err := New(Config{Design: PureRCU, CPUs: 2, Frames: 1 << 14, tune: tuning{rcuBatch: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	a, b := twoSlots(t, as)
	rw := vma.ProtRead | vma.ProtWrite
	bases := [2]uint64{UnmappedBase + 1<<30, UnmappedBase + 2<<30} // retireShard's collision
	for i, base := range bases {
		if _, err := as.Mmap(base, 4*PageSize, rw, vma.Fixed, nil, 0); err != nil {
			t.Fatal(err)
		}
		if err := as.NewCPU(i).Fault(base, true); err != nil {
			t.Fatal(err)
		}
	}
	as.dom.Synchronize()
	before := as.dom.Stats().ShardQueued
	for i, op := range []*opCtx{a, b} {
		if err := as.munmapInner(op, bases[i], 4*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	after := as.dom.Stats().ShardQueued
	busy := 0
	for i := range after {
		if after[i] != before[i] {
			busy++
		}
	}
	if busy != 2 {
		t.Errorf("two operations in flight queued on %d shard(s): %v -> %v", busy, before, after)
	}
	a.end()
	b.end()
}

// TestFixedMmapOverNothingSkipsZapSafely: mmap(MAP_FIXED) over a range
// no VMA overlaps walks no page tables. The tables an earlier mapping
// left under the range — emptied by partial unmaps, never covered by
// one — stay for the new mapping's faults, and Close, whose whole-space
// unmap is unconditional, still frees every one of them: no frame leaks
// under any design (forEachDesign's Close checks).
func TestFixedMmapOverNothingSkipsZapSafely(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1, Frames: 4096}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		rw := vma.ProtRead | vma.ProtWrite
		base := UnmappedBase + 1<<30
		const pages = 64
		fixed := func() {
			t.Helper()
			if _, err := as.Mmap(base, pages*PageSize, rw, vma.Fixed, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		fixed() // over nothing at all: no tables either
		for p := uint64(0); p < pages; p += 3 {
			if err := cpu.Fault(base+p*PageSize, true); err != nil {
				t.Fatal(err)
			}
		}
		// Unmap in two halves: neither covers the leaf table, so it stays,
		// empty, under a range with no VMA.
		for _, half := range []uint64{0, pages / 2} {
			if err := as.Munmap(base+half*PageSize, pages/2*PageSize); err != nil {
				t.Fatal(err)
			}
		}
		tables := as.tables.Stats().TablesLive
		unmapped, flushes := as.Stats().PagesUnmapped, as.Stats().TLBFlushes
		fixed() // over empty tables
		if st := as.Stats(); st.PagesUnmapped != unmapped || st.TLBFlushes != flushes {
			t.Errorf("mmap over nothing zapped: %d pages unmapped, %d flushes", st.PagesUnmapped-unmapped, st.TLBFlushes-flushes)
		}
		if got := as.tables.Stats().TablesLive; got != tables {
			t.Errorf("mmap over nothing changed the live page tables: %d -> %d", tables, got)
		}
		// The new mapping's faults fill the old table; a MAP_FIXED over
		// the now-populated mapping must zap what they filled.
		for p := uint64(0); p < pages; p += 5 {
			if err := cpu.Fault(base+p*PageSize, true); err != nil {
				t.Fatal(err)
			}
		}
		fixed()
		for p := uint64(0); p < pages; p++ {
			if _, ok := as.Translate(base + p*PageSize); ok {
				t.Fatalf("page %d still translated after MAP_FIXED replaced its mapping", p)
			}
		}
	})
}

// TestMunmapOfNothingFreesEmptyTables is the case the shortcut must not
// be extended to: Munmap of a range with no VMA left in it still zaps,
// because the zap is what frees the page tables the range covers — what
// Close's whole-space unmap relies on to return every table.
func TestMunmapOfNothingFreesEmptyTables(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1, Frames: 4096}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		base := UnmappedBase + 1<<30 // leaf-table aligned
		before := as.tables.Stats().TablesLive
		// One page short of a huge chunk: the fault fills a leaf table.
		if _, err := as.Mmap(base, HugeSpan-PageSize, vma.ProtRead|vma.ProtWrite, vma.Fixed, nil, 0); err != nil {
			t.Fatal(err)
		}
		if err := cpu.Fault(base+7*PageSize, true); err != nil {
			t.Fatal(err)
		}
		for _, half := range []uint64{0, HugeSpan / 2} {
			if err := as.Munmap(base+half, HugeSpan/2); err != nil {
				t.Fatal(err)
			}
		}
		withLeaf := as.tables.Stats().TablesLive
		if withLeaf <= before {
			t.Fatalf("the fault built no page tables: %d live before, %d after", before, withLeaf)
		}
		if n := as.RegionCount(); n != 0 {
			t.Fatalf("%d regions left", n)
		}
		// No VMA overlaps the range any more; it covers the leaf table.
		if err := as.Munmap(base, HugeSpan); err != nil {
			t.Fatal(err)
		}
		if got := as.tables.Stats().TablesLive; got != withLeaf-1 {
			t.Errorf("munmap of a VMA-less range left %d page tables live, want the covered leaf freed: %d", got, withLeaf-1)
		}
		// A sparse 64 GiB mapping builds tables only where it is touched:
		// one fault per GiB needs at most three tables each.
		const giant = 64 << 30
		sparse := mustMmap(t, as, 0, giant, vma.ProtRead|vma.ProtWrite, 0)
		for off := uint64(0); off < giant; off += 1 << 30 {
			if err := cpu.Fault(sparse+off, true); err != nil {
				t.Fatal(err)
			}
		}
		if got := as.tables.Stats().TablesLive; got > 64*3+8 {
			t.Errorf("64 faults at 1 GiB strides left %d page tables live, want at most %d", got, 64*3+8)
		}
	})
}

// TestHugeUnmapThroughPooledBuffers is the benchmark's huge_populate
// round: 32 regions of 2 MB, each made resident by one fault, removed by
// one munmap — 32 tree deletions in one transaction, 16 384 frames
// through one gather — between small operations that recycle the same
// pooled buffers. Nothing is lost: every frame comes back.
func TestHugeUnmapThroughPooledBuffers(t *testing.T) {
	const chunks = 32
	as, err := New(Config{Design: PureRCU, CPUs: 1, Frames: 4 * chunks * 512})
	if err != nil {
		t.Fatal(err)
	}
	cpu := as.NewCPU(0)
	base := UnmappedBase + 1<<30
	small := base + 2*chunks*HugeSpan
	for round := 0; round < 3; round++ {
		churnCycle(t, as, cpu, small)
		for c := uint64(0); c < chunks; c++ {
			// Alternating protections keep neighbours from merging.
			prot := vma.ProtRead | vma.ProtWrite
			if c%2 == 1 {
				prot |= vma.ProtExec
			}
			if _, err := as.Mmap(base+c*HugeSpan, HugeSpan, prot, vma.Fixed, nil, 0); err != nil {
				t.Fatal(err)
			}
			if err := cpu.Fault(base+c*HugeSpan+c*PageSize, true); err != nil {
				t.Fatal(err)
			}
		}
		if n := as.RegionCount(); n != chunks {
			t.Fatalf("%d regions, want %d", n, chunks)
		}
		unmapped := as.Stats().PagesUnmapped
		if err := as.Munmap(base, chunks*HugeSpan); err != nil {
			t.Fatal(err)
		}
		if got := as.Stats().PagesUnmapped - unmapped; got != chunks*512 {
			t.Fatalf("round %d: one munmap revoked %d pages, want %d", round, got, chunks*512)
		}
		if n := as.RegionCount(); n != 0 {
			t.Fatalf("%d regions left", n)
		}
	}
	churnCycle(t, as, cpu, small)
	if err := as.Close(); err != nil {
		t.Fatalf("frames lost: %v", err)
	}
}
