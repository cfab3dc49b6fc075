package vm_test

import (
	"fmt"
	"sync"

	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// check stands in for an example's error handling.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// The mmap/fault/munmap lifecycle of §4–5 on a PureRCU address space:
// lazy soft faults, a file mapping, a stack that grows on a fault below
// it, a munmap that splits a region (Figure 10) and a fork whose writes
// stay private (§6's COW case).
func ExampleAddressSpace() {
	as, err := vm.New(vm.Config{Design: vm.PureRCU, CPUs: 1, Backing: true})
	check(err)
	cpu := as.NewCPU(0)

	heap, err := as.Mmap(0, 64*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
	check(err)
	lib := vma.NewFile("libdemo.so", 42)
	text, err := as.Mmap(0, 16*vm.PageSize, vma.ProtRead|vma.ProtExec, vma.Private, lib, 0)
	check(err)
	fmt.Printf("heap at %#x, %s at %#x\n", heap, lib.Name, text)
	stackTop := uint64(0x7f0000000000)
	_, err = as.Mmap(stackTop, 8*vm.PageSize, vma.ProtRead|vma.ProtWrite, vma.Fixed|vma.Stack, nil, 0)
	check(err)

	// The store straddles a page boundary: two faults.
	msg := []byte("hello from the bonsai address space")
	addr := heap + 5*vm.PageSize - 10
	check(cpu.WriteBytes(addr, msg))
	check(cpu.Fault(stackTop-2*vm.PageSize, true)) // grows the stack
	check(as.Munmap(heap+16*vm.PageSize, 8*vm.PageSize))

	child, err := as.Fork()
	check(err)
	check(child.NewCPU(0).WriteBytes(addr, []byte("CHILD OVERWRITE")))
	buf := make([]byte, len(msg))
	check(cpu.ReadBytes(addr, buf))
	fmt.Printf("parent reads %q; the child broke %d COW pages\n", buf, child.Stats().CowBreaks)
	check(child.Close())

	for _, r := range as.Regions() {
		name := ""
		if r.File != nil {
			name = " " + r.File.Name
		}
		fmt.Printf("%#012x-%#012x %s %s%s\n", r.Start, r.End, r.Prot, r.Flags, name)
	}
	st := as.Stats()
	fmt.Printf("%d faults, %d mmaps, %d munmaps, %d splits, %d stack growths\n",
		st.Faults, st.Mmaps, st.Munmaps, st.Splits, st.StackGrowths)
	check(as.Close()) // fails on a leaked frame
	// Output:
	// heap at 0x100000000, libdemo.so at 0x100040000
	// parent reads "hello from the bonsai address space"; the child broke 2 COW pages
	// 0x000100000000-0x000100010000 rw- anon
	// 0x000100018000-0x000100040000 rw- anon
	// 0x000100040000-0x000100050000 r-x private libdemo.so
	// 0x7effffffe000-0x7f0000008000 rw- anon|stack|fixed
	// 3 faults, 3 mmaps, 1 munmaps, 1 splits, 1 stack growths
}

// A Streamflow-style allocator, the pattern that makes Metis VM-bound
// (§7.2): four workers carve 16 KB blocks out of shared 2 MB segments,
// fault each block's pages on first touch and munmap a segment once it
// drains. How many segments a design maps, and how many faults retry,
// depend on the schedule; the faults and a leak-free Close do not.
func ExampleAddressSpace_allocator() {
	const (
		workers, blocks = 4, 400
		segBytes        = 512 * vm.PageSize
		blockBytes      = 16 << 10
	)
	type segment struct {
		base       uint64
		used, next int
		free       []uint64
	}
	for _, d := range []vm.Design{vm.RWLock, vm.PureRCU} {
		as, err := vm.New(vm.Config{Design: d, CPUs: workers})
		check(err)
		var mu sync.Mutex // guards segs
		var segs []*segment
		alloc := func() uint64 {
			mu.Lock()
			defer mu.Unlock()
			var s *segment
			for _, have := range segs {
				if len(have.free) > 0 || have.next < segBytes/blockBytes {
					s = have
					break
				}
			}
			if s == nil {
				base, err := as.Mmap(0, segBytes, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
				check(err)
				s = &segment{base: base}
				segs = append(segs, s)
			}
			s.used++
			if n := len(s.free); n > 0 {
				b := s.free[n-1]
				s.free = s.free[:n-1]
				return b
			}
			s.next++
			return s.base + uint64(s.next-1)*blockBytes
		}
		release := func(b uint64) {
			mu.Lock()
			defer mu.Unlock()
			for i, s := range segs {
				if b >= s.base && b < s.base+segBytes {
					s.free = append(s.free, b)
					if s.used--; s.used == 0 {
						segs = append(segs[:i], segs[i+1:]...)
						check(as.Munmap(s.base, segBytes))
					}
					return
				}
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(cpu *vm.CPU) {
				defer wg.Done()
				var live []uint64
				for i := 0; i < blocks; i++ {
					b := alloc()
					for off := uint64(0); off < blockBytes; off += vm.PageSize {
						check(cpu.Fault(b+off, true))
					}
					if live = append(live, b); len(live) > 16 {
						release(live[0])
						live = live[1:]
					}
				}
				for _, b := range live {
					release(b)
				}
			}(as.NewCPU(w))
		}
		wg.Wait()
		faults := as.Stats().Faults
		check(as.Close())
		fmt.Printf("%s: %d faults, no leaked frames\n", d, faults)
	}
	// Output:
	// Read/write locking: 6400 faults, no leaked frames
	// Pure RCU: 6400 faults, no leaked frames
}
