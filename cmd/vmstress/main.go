// Command vmstress records and renders the Figure 2 vs Figure 12
// concurrency timelines on the real VM system: one thread faulting
// beside one thread mapping, per design.
//
//	vmstress                     # every design
//	vmstress -design purercu     # one design
//
// The LTP-style conformance battery is internal/ltp's test, and
// randomized concurrent stress is cmd/torture's job.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

func main() {
	design := flag.String("design", "", "restrict to one design (rwlock|faultlock|hybrid|purercu)")
	flag.Parse()

	designs := vm.Designs
	if *design != "" {
		d, err := vm.ParseDesign(*design)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		designs = []vm.Design{d}
	}
	for _, d := range designs {
		renderTimeline(d)
	}
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
