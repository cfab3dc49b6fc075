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
// last-VMA cache stock Linux keeps in front of the region tree: with one
// thread it hits almost always; with many threads faulting on different
// regions its hit rate collapses ("below 1% in our benchmarks"), which
// is why the RCU designs disable it. The cache is the lookup rule the
// lock-based designs' fault path uses, run here over a BONSAI tree of
// regions directly.
func mmapCacheAblation() {
	t := &stats.Table{
		Title:   "Ablation: mmap cache hit rate (§6), one-entry cache in front of the region tree",
		Columns: []string{"Workload", "hits", "misses", "hit rate"},
	}

	// The interleaving of faults from concurrent threads is emulated
	// deterministically: the "8 threads" row issues the globally
	// interleaved fault sequence that 8 threads walking 8 regions
	// produce, which is what the single shared cache actually observes.
	const regionPages = 64
	measure := func(name string, regions int) {
		const size = regionPages * pagetable.PageSize
		base := func(i int) uint64 { return uint64(i) * size }
		tree := core.New[uint64]() // region start -> end
		for i := 0; i < regions; i++ {
			tree.Insert(base(i), base(i)+size)
		}
		var cacheLo, cacheHi uint64 // the cached region; empty while lo == hi
		var hits, misses uint64
		for p := 0; p < regionPages; p++ {
			for r := 0; r < 8; r++ { // refaults within each page
				for i := 0; i < regions; i++ { // interleave across "threads"
					addr := base(i) + uint64(p)*pagetable.PageSize
					if cacheLo <= addr && addr < cacheHi {
						hits++
						continue
					}
					misses++
					cacheLo, cacheHi, _ = tree.Floor(addr)
				}
			}
		}
		t.AddRow(name,
			stats.FormatFloat(float64(hits)),
			stats.FormatFloat(float64(misses)),
			fmt.Sprintf("%.1f%%", float64(hits)/float64(hits+misses)*100))
	}

	measure("1 thread, 1 region", 1)
	measure("8 threads, 8 regions (interleaved)", 8)
	fmt.Println(t)
	fmt.Println("With many threads on distinct regions every fault misses and then")
	fmt.Println("*writes* the shared cache line — why §6 disables the cache for RCU designs.")
	fmt.Println()
}

// pteLockAblation compares per-page-table PTE locks against a single
// shared PTE lock (§2/§4.1: fine-grained per-table locks keep faults to
// addresses more than 2 MB apart contention-free). Workers fill base
// PTEs into page tables built directly, the fault path's fill protocol
// without the VMA lookup around it (a VM fault on an aligned 2 MB
// region would install one huge entry and take no PTE lock at all).
func pteLockAblation() {
	const workers = 4
	t := &stats.Table{
		Title:   "Ablation: PTE locking granularity (4 threads filling distinct 2 MB regions)",
		Columns: []string{"Configuration", "PTE fills", "locks used", "acquisitions/lock", "contended"},
	}
	for _, single := range []bool{false, true} {
		alloc := physmem.New(physmem.Config{Frames: 1 << 14, CPUs: workers})
		dom := rcu.NewDomain(rcu.Options{BatchSize: -1}) // fills retire nothing
		tables, err := pagetable.New(alloc, dom, 0, pagetable.Config{SinglePTELock: single, CPUs: workers})
		if err != nil {
			fmt.Println(err)
			return
		}
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				// Each worker stays inside its own leaf page table.
				region := uint64(id+1) * pagetable.TableSpan
				for p := uint64(0); p < pagetable.EntriesPerTable; p++ {
					addr := region + p*pagetable.PageSize
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
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			fmt.Println(err)
			return
		}
		name := "per-page-table PTE locks"
		locks := uint64(workers) // one leaf table per 2 MB region
		if single {
			name, locks = "single shared PTE lock", 1
		}
		acq, contended := tables.PTELockStats()
		t.AddRow(name, stats.FormatFloat(float64(tables.Stats().PTEsFilled)),
			stats.FormatFloat(float64(locks)),
			stats.FormatFloat(float64(acq/locks)),
			stats.FormatFloat(float64(contended)))
	}
	fmt.Println(t)
	fmt.Println("Per-table locks spread the fill traffic over one lock per 2 MB region, so")
	fmt.Println("faults more than 2 MB apart never share a lock cache line; the single-lock")
	fmt.Println("configuration (pre-fine-grained kernels) funnels every fill through one line.")
}
