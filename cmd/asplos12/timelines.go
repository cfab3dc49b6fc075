package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// timelines records, per design, a short two-thread run on the real VM
// system — one thread faulting, one remapping — and renders when each
// operation ran: the qualitative contrast between Figure 2 (stock:
// mapping operations delay faults) and Figure 12 (pure RCU: full
// overlap).
func timelines() error {
	for _, d := range vm.Designs {
		if err := timeline(d); err != nil {
			return fmt.Errorf("%s: %w", d, err)
		}
	}
	return nil
}

func timeline(d vm.Design) (err error) {
	as, err := vm.New(vm.Config{Design: d, CPUs: 2})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := as.Close(); err == nil {
			err = cerr
		}
	}()
	const pages = 4096
	arena, err := as.Mmap(0, pages*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
	if err != nil {
		return err
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

	// Each thread runs until stop closes or it fails; errs holds the
	// failures.
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	thread := func(seed int64, op func(rng *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := op(rng); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	cpu := as.NewCPU(0)
	thread(1, func(rng *rand.Rand) error { // faulter
		start := time.Now()
		for j := 0; j < 64; j++ {
			addr := arena + uint64(rng.Intn(pages))*vm.PageSize
			// A fault on a page the mapper has just unmapped is a SEGV.
			if err := cpu.Fault(addr, true); err != nil && !errors.Is(err, vm.ErrSegv) {
				return fmt.Errorf("fault %#x: %w", addr, err)
			}
		}
		record('f', start)
		return nil
	})
	thread(2, func(rng *rand.Rand) error { // mapper
		start := time.Now()
		off := uint64(rng.Intn(pages/2)) * vm.PageSize
		n := uint64(256) * vm.PageSize
		if err := as.Munmap(arena+off, n); err != nil {
			return fmt.Errorf("munmap: %w", err)
		}
		if _, err := as.Mmap(arena+off, n, vma.ProtRead|vma.ProtWrite, vma.Fixed, nil, 0); err != nil {
			return fmt.Errorf("mmap: %w", err)
		}
		record('M', start)
		time.Sleep(200 * time.Microsecond)
		return nil
	})
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}

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
	return nil
}

func bar(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = ' '
	}
	return b
}
