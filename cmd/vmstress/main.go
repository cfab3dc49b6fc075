// Command vmstress validates the four address-space designs on this
// machine:
//
//	vmstress -conformance        # run the LTP-style battery (§6)
//	vmstress -stress -secs 5     # randomized concurrent stress with
//	                             # invariant and leak checking
//	vmstress -timeline           # record and render the Figure 2 vs
//	                             # Figure 12 concurrency timelines
//	vmstress -design purercu     # restrict to one design
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"bonsai/internal/introspect"
	"bonsai/internal/ltp"
	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// stressSet, when non-nil, registers each stress run's address space
// with the -http introspection server.
var stressSet *introspect.SpaceSet

func main() {
	var (
		conformance = flag.Bool("conformance", false, "run the conformance battery")
		stress      = flag.Bool("stress", false, "run randomized concurrent stress")
		timeline    = flag.Bool("timeline", false, "render op-concurrency timelines")
		secs        = flag.Float64("secs", 2.0, "stress duration per design")
		workers     = flag.Int("workers", 4, "stress worker goroutines")
		seed        = flag.Int64("seed", 1, "stress RNG seed")
		design      = flag.String("design", "", "restrict to one design (rwlock|faultlock|hybrid|purercu)")
		httpAddr    = flag.String("http", "", "serve the live introspection plane on this address (empty = off)")
	)
	flag.Parse()
	if *httpAddr != "" {
		stressSet = introspect.NewSpaceSet("vmstress")
		srv, err := introspect.Start(*httpAddr, stressSet)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "vmstress: introspection at http://%s/\n", srv.Addr())
	}
	if !*conformance && !*stress && !*timeline {
		*conformance = true
		*stress = true
	}

	designs := vm.Designs
	if *design != "" {
		d, err := vm.ParseDesign(*design)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		designs = []vm.Design{d}
	}

	failed := false
	if *conformance {
		fmt.Println("== Conformance battery (LTP-style, §6) ==")
		for _, r := range ltp.RunAll(vm.Config{}) {
			if !containsDesign(designs, r.Design) {
				continue
			}
			status := "ok"
			if r.Err != nil {
				status = "FAIL: " + r.Err.Error()
				failed = true
			}
			fmt.Printf("  %-45s %-22s %s\n", r.Case, r.Design, status)
		}
	}
	if *stress {
		fmt.Println("== Randomized concurrent stress ==")
		for _, d := range designs {
			if err := runStress(d, *workers, *seed, time.Duration(*secs*float64(time.Second))); err != nil {
				fmt.Printf("  %-22s FAIL: %v\n", d, err)
				failed = true
			} else {
				fmt.Printf("  %-22s ok\n", d)
			}
		}
	}
	if *timeline {
		for _, d := range designs {
			renderTimeline(d)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func containsDesign(ds []vm.Design, d vm.Design) bool {
	for _, x := range ds {
		if x == d {
			return true
		}
	}
	return false
}

// runStress hammers one design with concurrent faults, mmaps, munmaps,
// and splits, then verifies no frames leaked and no translation
// survives in unmapped space.
func runStress(d vm.Design, workers int, seed int64, dur time.Duration) error {
	as, err := vm.New(vm.Config{Design: d, CPUs: workers})
	if err != nil {
		return err
	}
	// Deregister from the introspection set before the space closes so
	// no in-flight scrape walks a tearing-down world (remove is
	// idempotent; the defer covers the early error returns).
	remove := func() {}
	if stressSet != nil {
		remove = stressSet.Add(d.String(), as)
		defer remove()
	}
	const pages = 2048
	arena, err := as.Mmap(0, pages*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
	if err != nil {
		return err
	}

	stop := make(chan struct{})
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cpu := as.NewCPU(id)
			rng := rand.New(rand.NewSource(seed + int64(id)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(12) {
				case 0: // unmap a chunk
					off := uint64(rng.Intn(pages-64)) * vm.PageSize
					n := uint64(1+rng.Intn(63)) * vm.PageSize
					if err := as.Munmap(arena+off, n); err != nil {
						errCh <- fmt.Errorf("munmap: %w", err)
						return
					}
				case 1: // remap a chunk
					off := uint64(rng.Intn(pages-64)) * vm.PageSize
					n := uint64(1+rng.Intn(63)) * vm.PageSize
					if _, err := as.Mmap(arena+off, n, vma.ProtRead|vma.ProtWrite, vma.Fixed, nil, 0); err != nil {
						errCh <- fmt.Errorf("mmap: %w", err)
						return
					}
				case 2: // mprotect a chunk (down or up)
					off := uint64(rng.Intn(pages-64)) * vm.PageSize
					n := uint64(1+rng.Intn(63)) * vm.PageSize
					prot := vma.ProtRead
					if rng.Intn(2) == 0 {
						prot |= vma.ProtWrite
					}
					err := as.Mprotect(arena+off, n, prot)
					if err != nil && !errors.Is(err, vm.ErrSegv) {
						errCh <- fmt.Errorf("mprotect: %w", err)
						return
					}
				case 3: // fork, touch, close
					child, err := as.Fork()
					if err != nil {
						if errors.Is(err, vm.ErrNoMemory) {
							continue // family limit under churn
						}
						errCh <- fmt.Errorf("fork: %w", err)
						return
					}
					ccpu := child.NewCPU(id)
					addr := arena + uint64(rng.Intn(pages))*vm.PageSize
					if err := ccpu.Fault(addr, true); err != nil &&
						!errors.Is(err, vm.ErrSegv) && !errors.Is(err, vm.ErrAccess) {
						errCh <- fmt.Errorf("child fault: %w", err)
						return
					}
					if err := child.Close(); err != nil {
						errCh <- fmt.Errorf("child close: %w", err)
						return
					}
				default: // fault
					addr := arena + uint64(rng.Intn(pages))*vm.PageSize
					err := cpu.Fault(addr, true)
					if err != nil && !errors.Is(err, vm.ErrSegv) && !errors.Is(err, vm.ErrAccess) {
						errCh <- fmt.Errorf("fault: %w", err)
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		remove()
		as.Close()
		return err
	default:
	}

	st := as.Stats()
	fmt.Printf("    %s: %d faults, %d mmaps, %d munmaps, %d mprotects, %d forks, %d retries, %d splits, %d COW breaks\n",
		d, st.Faults, st.Mmaps, st.Munmaps, st.Mprotects, st.Forks, st.Retries(), st.Splits, st.CowBreaks)
	if r := as.ReclaimStats(); r.KswapdEvicted+r.DirectEvicted+r.AccountEvicted > 0 {
		fmt.Printf("    %s: reclaim kswapd=%d direct=%d tenant=%d writebacks=%d\n",
			d, r.KswapdEvicted, r.DirectEvicted, r.AccountEvicted, r.Writebacks)
	}
	remove()
	return as.Close() // verifies zero frame leaks
}

// renderTimeline records a short two-thread run — one faulting, one
// mapping — and renders when each operation ran, reproducing the
// qualitative contrast between Figure 2 (stock: mapping operations
// delay faults) and Figure 12 (pure RCU: full overlap).
func renderTimeline(d vm.Design) {
	as, err := vm.New(vm.Config{Design: d, CPUs: 2})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer as.Close()
	const pages = 4096
	arena, err := as.Mmap(0, pages*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}

	type span struct {
		start, end time.Duration
		kind       byte
	}
	var mu sync.Mutex
	var spans []span
	t0 := time.Now()
	record := func(kind byte, start time.Time) {
		mu.Lock()
		spans = append(spans, span{start.Sub(t0), time.Since(t0), kind})
		mu.Unlock()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // faulter
		defer wg.Done()
		cpu := as.NewCPU(0)
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			start := time.Now()
			for j := 0; j < 64; j++ {
				addr := arena + uint64(rng.Intn(pages))*vm.PageSize
				if err := cpu.Fault(addr, true); err != nil && !errors.Is(err, vm.ErrSegv) {
					return
				}
			}
			record('f', start)
		}
	}()
	go func() { // mapper
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for {
			select {
			case <-stop:
				return
			default:
			}
			start := time.Now()
			off := uint64(rng.Intn(pages/2)) * vm.PageSize
			n := uint64(256) * vm.PageSize
			as.Munmap(arena+off, n)
			as.Mmap(arena+off, n, vma.ProtRead|vma.ProtWrite, vma.Fixed, nil, 0)
			record('M', start)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	total := time.Since(t0)
	const width = 100
	rows := map[byte][]byte{'f': bar(width), 'M': bar(width)}
	for _, s := range spans {
		a := int(s.start * width / total)
		b := int(s.end * width / total)
		if b >= width {
			b = width - 1
		}
		for i := a; i <= b; i++ {
			rows[s.kind][i] = rows[s.kind][i]&0x20 | s.kind
		}
	}
	fmt.Printf("\n%s (compare Figure 2 vs Figure 12):\n", d)
	fmt.Printf("  faults [%s]\n", rows['f'])
	fmt.Printf("  mmaps  [%s]\n", rows['M'])
}

func bar(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = ' '
	}
	return b
}
