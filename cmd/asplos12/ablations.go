package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"bonsai/internal/core"
	"bonsai/internal/pagetable"
	"bonsai/internal/physmem"
	"bonsai/internal/rcu"
	"bonsai/internal/stats"
	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// weightAblation sweeps the BONSAI weight parameter (§3.1: bounded-
// balance trees "exchange a certain degree of imbalance — controlled by
// a weight parameter — for fewer rotations"). The paper uses 4.
func weightAblation() {
	t := &stats.Table{
		Title:   "Ablation: BONSAI weight parameter (100k random inserts)",
		Columns: []string{"Weight", "rotations/insert", "height", "height/log2(n)"},
	}
	const n = 100_000
	log2n := 16.6
	for _, w := range []int{3, 4, 8, 16, 32} {
		tr := core.NewTree[int](core.Options{Weight: w, UpdateInPlace: true})
		rng := rand.New(rand.NewSource(1))
		for tr.Len() < n {
			tr.Insert(rng.Uint64(), 0)
		}
		st := tr.Stats()
		h := tr.Height()
		t.AddRow(fmt.Sprint(w),
			fmt.Sprintf("%.3f", float64(st.Rotations())/float64(n)),
			fmt.Sprint(h),
			fmt.Sprintf("%.2f", float64(h)/log2n))
	}
	fmt.Println(t)
	fmt.Println("Larger weights rotate less but allow deeper trees; the paper's 4")
	fmt.Println("balances garbage production against lookup depth.")
	fmt.Println()
}

// mmapCacheAblation measures the §6 mmap cache — the one-entry
// last-VMA cache stock Linux keeps in front of the region tree, which
// this repository's RWLock and FaultLock designs keep too: with one
// thread it hits almost always; with many threads faulting on different
// regions its hit rate collapses ("below 1% in our benchmarks"), which
// is why the RCU designs disable it. It drives an RWLock address space
// and reads the cache's own counters.
func mmapCacheAblation() error {
	t := &stats.Table{
		Title:   "Ablation: mmap cache hit rate (§6), one-entry cache in front of the region tree",
		Columns: []string{"Workload", "hits", "misses", "hit rate"},
	}
	// The "8 threads" row is one goroutine faulting through 8 CPUs in
	// turn, each on its own region: the interleaving 8 threads walking 8
	// regions produce, which is what the space's one cache observes.
	const size = 64 * vm.PageSize
	measure := func(name string, regions int) error {
		as, err := vm.New(vm.Config{Design: vm.RWLock, CPUs: regions})
		if err != nil {
			return err
		}
		base := func(i int) uint64 { return vm.UnmappedBase + uint64(2*i)*size } // non-adjacent: no merge
		cpus := make([]*vm.CPU, regions)
		for i := range cpus {
			if _, err := as.Mmap(base(i), size, vma.ProtRead|vma.ProtWrite, vma.Fixed, nil, 0); err != nil {
				return err
			}
			cpus[i] = as.NewCPU(i)
		}
		for off := uint64(0); off < size; off += vm.PageSize {
			for r := 0; r < 8; r++ { // refaults within each page
				for i, cpu := range cpus {
					if err := cpu.Fault(base(i)+off, false); err != nil {
						return err
					}
				}
			}
		}
		st := as.Stats()
		t.AddRow(name,
			stats.FormatFloat(float64(st.MmapCacheHits)),
			stats.FormatFloat(float64(st.MmapCacheMisses)),
			fmt.Sprintf("%.1f%%", float64(st.MmapCacheHits)/float64(st.MmapCacheHits+st.MmapCacheMisses)*100))
		return as.Close()
	}

	if err := measure("1 thread, 1 region", 1); err != nil {
		return err
	}
	if err := measure("8 threads, 8 regions (interleaved)", 8); err != nil {
		return err
	}
	fmt.Println(t)
	fmt.Println("With many threads on distinct regions every fault misses and then")
	fmt.Println("*writes* the shared cache line — why §6 disables the cache for RCU designs.")
	fmt.Println()
	return nil
}

// pteLockAblation measures §4.1's per-page-table PTE locks, which keep
// contention away from "all but nearby page faults": the same fills,
// first with each worker in a leaf table of its own, then with every
// worker filling interleaved pages of one shared table. Workers fill
// base PTEs into page tables built directly, the fault path's fill
// protocol without the VMA lookup around it (a VM fault on an aligned
// 2 MB region would install one huge entry and take no PTE lock at all).
func pteLockAblation() {
	const workers = 4
	const fills = pagetable.EntriesPerTable / workers // per worker: both rows fill one table's worth
	t := &stats.Table{
		Title:   "Ablation: PTE locking granularity (4 threads, 128 fills each)",
		Columns: []string{"Configuration", "PTE fills", "locks used", "acquisitions/lock", "contended"},
	}
	for _, nearby := range []bool{false, true} {
		alloc := physmem.New(physmem.Config{Frames: 1 << 14, CPUs: workers})
		dom := rcu.NewDomain(rcu.Options{BatchSize: -1}) // fills retire nothing
		tables, err := pagetable.New(alloc, dom, 0, pagetable.Config{CPUs: workers})
		if err != nil {
			fmt.Println(err)
			return
		}
		errs := make([]error, workers)
		start := make(chan struct{}) // released together, so the fills overlap
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				<-start
				for p := uint64(0); p < fills; p++ {
					// Far: each worker stays inside its own leaf table.
					// Nearby: the workers' pages interleave in one table.
					addr := uint64(id+1)*pagetable.TableSpan + p*pagetable.PageSize
					if nearby {
						addr = pagetable.TableSpan + (p*workers+uint64(id))*pagetable.PageSize
					}
					pt, err := tables.EnsureTable(id, addr)
					if err == nil {
						_, _, err = tables.FillPTE(addr, pt, nil, func() (uint64, error) {
							f, err := alloc.Alloc(id)
							return pagetable.MakePTE(f, true), err
						})
					}
					if err != nil {
						errs[id] = err
						return
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			fmt.Println(err)
			return
		}
		name := "faults 2 MB apart: a table each"
		locks := uint64(workers)
		if nearby {
			name, locks = "nearby faults: one shared table", 1
		}
		acq, contended := tables.PTELockStats()
		t.AddRow(name, stats.FormatFloat(float64(tables.Stats().PTEsFilled)),
			stats.FormatFloat(float64(locks)),
			stats.FormatFloat(float64(acq/locks)),
			stats.FormatFloat(float64(contended)))
	}
	fmt.Println(t)
	fmt.Println("Per-table locks spread the fill traffic over one lock per 2 MB region, so")
	fmt.Println("faults more than 2 MB apart never share a lock cache line; nearby faults")
	fmt.Println("still funnel every fill through their table's one lock.")
}
