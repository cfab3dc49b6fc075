// Package ltp is a black-box VM-semantics conformance battery in the
// spirit of the Linux Test Project runs the paper used to validate its
// implementation (§6: "The implementation passes the Linux Test
// Project, as well as our own stress tests"). Every case is expressed
// against the public vm API and must pass identically under all four
// concurrency designs; TestConformanceAllDesigns runs it.
package ltp

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// Case is one conformance check. Run builds its own address space from
// cfg so cases are independent; it must return nil on success.
type Case struct {
	Name string
	Run  func(cfg vm.Config) error
}

// newAS builds an address space, requiring success.
func newAS(cfg vm.Config) (*vm.AddressSpace, error) {
	if cfg.CPUs == 0 {
		cfg.CPUs = 2
	}
	return vm.New(cfg)
}

// closeChecked tears the space down, folding leak errors into err.
func closeChecked(as *vm.AddressSpace, err error) error {
	cerr := as.Close()
	if err != nil {
		return err
	}
	return cerr
}

// Cases returns the conformance battery.
func Cases() []Case {
	return []Case{
		{"map-fault-unmap-roundtrip", caseRoundtrip},
		{"boundary-faults", caseBoundaries},
		{"segv-and-protection", caseSegv},
		{"fixed-replaces-and-preserves-neighbours", caseFixedReplace},
		{"unmap-split-middle", caseSplitMiddle},
		{"unmap-spanning-many-regions", caseSpanMany},
		{"adjacent-merge", caseMerge},
		{"thousand-regions", caseThousandRegions},
		{"data-integrity", caseDataIntegrity},
		{"file-backed-contents", caseFileContents},
		{"demand-zero-after-recycle", caseDemandZero},
		{"stack-growth-and-guard", caseStack},
		{"oom-and-recovery", caseOOM},
		{"sparse-giant-mapping", caseSparse},
		{"fork-cow-semantics", caseForkCow},
		{"concurrent-smoke", caseConcurrentSmoke},
	}
}

func caseForkCow(cfg vm.Config) error {
	cfg.Backing = true
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	run := func() error {
		cpu := as.NewCPU(0)
		base, err := as.Mmap(0, 4*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
		if err != nil {
			return err
		}
		if err := cpu.WriteBytes(base, []byte("parent")); err != nil {
			return err
		}
		child, err := as.Fork()
		if err != nil {
			return err
		}
		ccpu := child.NewCPU(0)
		buf := make([]byte, 6)
		if err := ccpu.ReadBytes(base, buf); err != nil {
			return err
		}
		if string(buf) != "parent" {
			return fmt.Errorf("child read %q before any write", buf)
		}
		// COW isolation both ways.
		if err := ccpu.WriteBytes(base, []byte("child!")); err != nil {
			return err
		}
		if err := cpu.ReadBytes(base, buf); err != nil {
			return err
		}
		if string(buf) != "parent" {
			return fmt.Errorf("child write leaked to parent: %q", buf)
		}
		if err := cpu.WriteBytes(base, []byte("parenT")); err != nil {
			return err
		}
		if err := ccpu.ReadBytes(base, buf); err != nil {
			return err
		}
		if string(buf) != "child!" {
			return fmt.Errorf("parent write leaked to child: %q", buf)
		}
		// Child mappings are independent: unmapping in the child leaves
		// the parent intact.
		if err := child.Munmap(base, 4*vm.PageSize); err != nil {
			return err
		}
		if err := cpu.ReadBytes(base, buf); err != nil {
			return err
		}
		return child.Close()
	}
	return closeChecked(as, run())
}

func caseRoundtrip(cfg vm.Config) error {
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	cpu := as.NewCPU(0)
	run := func() error {
		base, err := as.Mmap(0, 16*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
		if err != nil {
			return err
		}
		for i := uint64(0); i < 16; i++ {
			if err := cpu.Fault(base+i*vm.PageSize, true); err != nil {
				return fmt.Errorf("fault %d: %w", i, err)
			}
		}
		if err := as.Munmap(base, 16*vm.PageSize); err != nil {
			return err
		}
		if _, ok := as.Translate(base); ok {
			return errors.New("translation survived munmap")
		}
		return nil
	}
	return closeChecked(as, run())
}

func caseBoundaries(cfg vm.Config) error {
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	cpu := as.NewCPU(0)
	run := func() error {
		base, err := as.Mmap(0, 4*vm.PageSize, vma.ProtRead, 0, nil, 0)
		if err != nil {
			return err
		}
		if err := cpu.Fault(base, false); err != nil {
			return fmt.Errorf("first byte: %w", err)
		}
		if err := cpu.Fault(base+4*vm.PageSize-1, false); err != nil {
			return fmt.Errorf("last byte: %w", err)
		}
		if err := cpu.Fault(base+4*vm.PageSize, false); !errors.Is(err, vm.ErrSegv) {
			return fmt.Errorf("one past end: %v", err)
		}
		if base > 0 {
			if err := cpu.Fault(base-1, false); !errors.Is(err, vm.ErrSegv) {
				return fmt.Errorf("one before start: %v", err)
			}
		}
		return nil
	}
	return closeChecked(as, run())
}

func caseSegv(cfg vm.Config) error {
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	cpu := as.NewCPU(0)
	run := func() error {
		if err := cpu.Fault(0x1000, false); !errors.Is(err, vm.ErrSegv) {
			return fmt.Errorf("fault in empty space: %v", err)
		}
		ro, err := as.Mmap(0, vm.PageSize, vma.ProtRead, 0, nil, 0)
		if err != nil {
			return err
		}
		if err := cpu.Fault(ro, true); !errors.Is(err, vm.ErrAccess) {
			return fmt.Errorf("write to RO: %v", err)
		}
		wo, err := as.Mmap(0, vm.PageSize, vma.ProtWrite, 0, nil, 0)
		if err != nil {
			return err
		}
		if err := cpu.Fault(wo, false); !errors.Is(err, vm.ErrAccess) {
			return fmt.Errorf("read of write-only: %v", err)
		}
		if err := cpu.Fault(wo, true); err != nil {
			return fmt.Errorf("write to write-only: %w", err)
		}
		return nil
	}
	return closeChecked(as, run())
}

func caseFixedReplace(cfg vm.Config) error {
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	cpu := as.NewCPU(0)
	run := func() error {
		base := vm.UnmappedBase + 0x1000000
		// Neighbours with a 3-page target between them.
		if _, err := as.Mmap(base, vm.PageSize, vma.ProtRead, vma.Fixed, nil, 0); err != nil {
			return err
		}
		if _, err := as.Mmap(base+4*vm.PageSize, vm.PageSize, vma.ProtRead, vma.Fixed, nil, 0); err != nil {
			return err
		}
		if _, err := as.Mmap(base+vm.PageSize, 3*vm.PageSize, vma.ProtRead|vma.ProtWrite, vma.Fixed, nil, 0); err != nil {
			return err
		}
		if err := cpu.Fault(base+2*vm.PageSize, true); err != nil {
			return err
		}
		// Replace the middle; neighbours must be untouched.
		if _, err := as.Mmap(base+vm.PageSize, 3*vm.PageSize, vma.ProtRead, vma.Fixed, nil, 0); err != nil {
			return err
		}
		if _, ok := as.Translate(base + 2*vm.PageSize); ok {
			return errors.New("pages survived MAP_FIXED replacement")
		}
		if err := cpu.Fault(base, false); err != nil {
			return fmt.Errorf("left neighbour: %w", err)
		}
		if err := cpu.Fault(base+4*vm.PageSize, false); err != nil {
			return fmt.Errorf("right neighbour: %w", err)
		}
		return nil
	}
	return closeChecked(as, run())
}

func caseSplitMiddle(cfg vm.Config) error {
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	cpu := as.NewCPU(0)
	run := func() error {
		base, err := as.Mmap(0, 9*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
		if err != nil {
			return err
		}
		if err := as.Munmap(base+3*vm.PageSize, 3*vm.PageSize); err != nil {
			return err
		}
		for i := uint64(0); i < 9; i++ {
			err := cpu.Fault(base+i*vm.PageSize, true)
			inHole := i >= 3 && i < 6
			if inHole && !errors.Is(err, vm.ErrSegv) {
				return fmt.Errorf("hole page %d: %v", i, err)
			}
			if !inHole && err != nil {
				return fmt.Errorf("kept page %d: %w", i, err)
			}
		}
		if n := as.RegionCount(); n != 2 {
			return fmt.Errorf("regions after split: %d", n)
		}
		return nil
	}
	return closeChecked(as, run())
}

func caseSpanMany(cfg vm.Config) error {
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	run := func() error {
		base := vm.UnmappedBase + 0x2000000
		// 8 one-page regions separated by one-page holes.
		for i := uint64(0); i < 8; i++ {
			if _, err := as.Mmap(base+i*2*vm.PageSize, vm.PageSize, vma.ProtRead, vma.Fixed, nil, 0); err != nil {
				return err
			}
		}
		if err := as.Munmap(base, 16*vm.PageSize); err != nil {
			return err
		}
		if n := as.RegionCount(); n != 0 {
			return fmt.Errorf("%d regions survived spanning unmap", n)
		}
		return nil
	}
	return closeChecked(as, run())
}

func caseMerge(cfg vm.Config) error {
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	run := func() error {
		base := vm.UnmappedBase + 0x3000000
		for i := uint64(0); i < 4; i++ {
			if _, err := as.Mmap(base+i*vm.PageSize, vm.PageSize,
				vma.ProtRead|vma.ProtWrite, vma.Fixed, nil, 0); err != nil {
				return err
			}
		}
		if n := as.RegionCount(); n != 1 {
			return fmt.Errorf("4 adjacent mmaps produced %d regions, want 1", n)
		}
		return nil
	}
	return closeChecked(as, run())
}

func caseThousandRegions(cfg vm.Config) error {
	// §2: GNOME/Firefox processes use nearly 1,000 distinct regions.
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	cpu := as.NewCPU(0)
	run := func() error {
		base := vm.UnmappedBase
		const n = 1000
		for i := uint64(0); i < n; i++ {
			prot := vma.ProtRead
			if i%2 == 0 {
				prot |= vma.ProtWrite // alternate prot prevents merging
			}
			if _, err := as.Mmap(base+i*2*vm.PageSize, vm.PageSize, prot, vma.Fixed, nil, 0); err != nil {
				return err
			}
		}
		if got := as.RegionCount(); got != n {
			return fmt.Errorf("RegionCount = %d, want %d", got, n)
		}
		// Spot-check lookups across the whole set.
		for i := uint64(0); i < n; i += 37 {
			if err := cpu.Fault(base+i*2*vm.PageSize, false); err != nil {
				return fmt.Errorf("region %d: %w", i, err)
			}
			if err := cpu.Fault(base+i*2*vm.PageSize+vm.PageSize, false); !errors.Is(err, vm.ErrSegv) {
				return fmt.Errorf("hole %d: %v", i, err)
			}
		}
		return nil
	}
	return closeChecked(as, run())
}

func caseDataIntegrity(cfg vm.Config) error {
	cfg.Backing = true
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	cpu := as.NewCPU(0)
	run := func() error {
		base, err := as.Mmap(0, 8*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
		if err != nil {
			return err
		}
		msg := []byte("the quick brown fox jumps over the lazy dog")
		// Straddle a page boundary.
		at := base + vm.PageSize - 7
		if err := cpu.WriteBytes(at, msg); err != nil {
			return err
		}
		got := make([]byte, len(msg))
		if err := cpu.ReadBytes(at, got); err != nil {
			return err
		}
		if !bytes.Equal(got, msg) {
			return fmt.Errorf("read %q want %q", got, msg)
		}
		return nil
	}
	return closeChecked(as, run())
}

func caseFileContents(cfg vm.Config) error {
	cfg.Backing = true
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	cpu := as.NewCPU(0)
	run := func() error {
		f := vma.NewFile("libtest.so", 31337)
		base, err := as.Mmap(0, 4*vm.PageSize, vma.ProtRead, vma.Private, f, 8*vm.PageSize)
		if err != nil {
			return err
		}
		for i := uint64(0); i < 4; i++ {
			b := make([]byte, 4)
			if err := cpu.ReadBytes(base+i*vm.PageSize, b); err != nil {
				return err
			}
			want := f.PageByte((8 + i) * vm.PageSize)
			if b[0] != want || b[3] != want {
				return fmt.Errorf("page %d: got %#x want %#x", i, b[0], want)
			}
		}
		return nil
	}
	return closeChecked(as, run())
}

func caseDemandZero(cfg vm.Config) error {
	cfg.Backing = true
	cfg.Frames = 512 // small pool forces frame recycling across rounds
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	cpu := as.NewCPU(0)
	run := func() error {
		dirty := bytes.Repeat([]byte{0xFF}, vm.PageSize)
		for round := 0; round < 4; round++ {
			base, err := as.Mmap(0, 64*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
			if err != nil {
				return err
			}
			buf := make([]byte, vm.PageSize)
			for i := uint64(0); i < 64; i++ {
				if err := cpu.ReadBytes(base+i*vm.PageSize, buf); err != nil {
					return err
				}
				for _, b := range buf {
					if b != 0 {
						return fmt.Errorf("round %d page %d: recycled frame not zeroed", round, i)
					}
				}
				if err := cpu.WriteBytes(base+i*vm.PageSize, dirty); err != nil {
					return err
				}
			}
			if err := as.Munmap(base, 64*vm.PageSize); err != nil {
				return err
			}
			as.Domain().Synchronize() // let frames come home before the next round
		}
		return nil
	}
	return closeChecked(as, run())
}

func caseStack(cfg vm.Config) error {
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	cpu := as.NewCPU(0)
	run := func() error {
		top := vm.UnmappedBase + 0x40000000
		if _, err := as.Mmap(top, 16*vm.PageSize, vma.ProtRead|vma.ProtWrite, vma.Fixed|vma.Stack, nil, 0); err != nil {
			return err
		}
		// Grow one page at a time for 32 pages.
		for i := uint64(1); i <= 32; i++ {
			if err := cpu.Fault(top-i*vm.PageSize, true); err != nil {
				return fmt.Errorf("growth step %d: %w", i, err)
			}
		}
		// The whole grown range faults cleanly.
		if err := cpu.Fault(top-32*vm.PageSize, false); err != nil {
			return err
		}
		return nil
	}
	return closeChecked(as, run())
}

func caseOOM(cfg vm.Config) error {
	cfg.Frames = 64
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	cpu := as.NewCPU(0)
	run := func() error {
		base, err := as.Mmap(0, 256*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
		if err != nil {
			return err
		}
		var i uint64
		var lastErr error
		for ; i < 256; i++ {
			if lastErr = cpu.Fault(base+i*vm.PageSize, true); lastErr != nil {
				break
			}
		}
		if !errors.Is(lastErr, vm.ErrNoMemory) {
			return fmt.Errorf("expected ErrNoMemory, faulted %d pages with err %v", i, lastErr)
		}
		// Recovery: unmap returns frames (after a grace period) and the
		// same range becomes usable again.
		if err := as.Munmap(base, 256*vm.PageSize); err != nil {
			return err
		}
		as.Domain().Synchronize()
		base2, err := as.Mmap(0, 8*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
		if err != nil {
			return err
		}
		for j := uint64(0); j < 8; j++ {
			if err := cpu.Fault(base2+j*vm.PageSize, true); err != nil {
				return fmt.Errorf("post-recovery fault: %w", err)
			}
		}
		return nil
	}
	return closeChecked(as, run())
}

func caseSparse(cfg vm.Config) error {
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	cpu := as.NewCPU(0)
	run := func() error {
		// A 64 GB mapping, faulted at 1 GB strides: page tables must be
		// allocated only where touched.
		length := uint64(64) << 30
		base, err := as.Mmap(0, length, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
		if err != nil {
			return err
		}
		for off := uint64(0); off < length; off += 1 << 30 {
			if err := cpu.Fault(base+off, true); err != nil {
				return err
			}
		}
		st := as.Tables().Stats()
		if st.TablesLive > 64*3+8 {
			return fmt.Errorf("sparse faulting allocated %d tables", st.TablesLive)
		}
		return nil
	}
	return closeChecked(as, run())
}

func caseConcurrentSmoke(cfg vm.Config) error {
	cfg.CPUs = 4
	as, err := newAS(cfg)
	if err != nil {
		return err
	}
	run := func() error {
		base, err := as.Mmap(0, 512*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		errCh := make(chan error, 4)
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				cpu := as.NewCPU(id)
				for i := uint64(0); i < 512; i++ {
					if err := cpu.Fault(base+i*vm.PageSize, true); err != nil {
						errCh <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return err
		}
		if st := as.Stats(); st.PagesMapped != 512 {
			return fmt.Errorf("PagesMapped = %d, want 512", st.PagesMapped)
		}
		return nil
	}
	return closeChecked(as, run())
}
