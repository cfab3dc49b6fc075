package vm

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"bonsai/internal/vma"
)

func TestForkCopiesRegionsAndData(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1, Backing: true}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		base := mustMmap(t, as, 0, 8*PageSize, vma.ProtRead|vma.ProtWrite, 0)
		msg := []byte("written before fork")
		if err := cpu.WriteBytes(base+PageSize, msg); err != nil {
			t.Fatal(err)
		}

		child, err := as.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(child.Regions()), len(as.Regions()); got != want {
			t.Fatalf("child has %d regions, parent %d", got, want)
		}
		ccpu := child.NewCPU(0)
		buf := make([]byte, len(msg))
		if err := ccpu.ReadBytes(base+PageSize, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, msg) {
			t.Fatalf("child read %q, want %q", buf, msg)
		}
		if st := as.Stats(); st.Forks != 1 {
			t.Fatalf("Forks = %d", st.Forks)
		}
		if err := child.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRollupKeepsClosedMembers: a fork child leaves the member set when
// it closes, and its faults and mapping operations stay in the family's
// Rollup — exactly once, before and after: the rollup's counts are the
// sum of the members' own Stats, the child's teardown included.
func TestRollupKeepsClosedMembers(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		base := mustMmap(t, as, 0, 16*PageSize, vma.ProtRead|vma.ProtWrite, 0)
		for p := uint64(0); p < 16; p++ {
			if err := cpu.Fault(base+p*PageSize, true); err != nil {
				t.Fatal(err)
			}
		}
		child, err := as.Fork()
		if err != nil {
			t.Fatal(err)
		}
		ccpu := child.NewCPU(0)
		for p := uint64(0); p < 8; p++ {
			if err := ccpu.Fault(base+p*PageSize, true); err != nil {
				t.Fatal(err)
			}
		}
		mustMmap(t, child, 0, PageSize, vma.ProtRead, 0)
		if m := as.Members(); len(m) != 2 || m[0] != as || m[1] != child {
			t.Fatalf("members with the child open = %v, want [parent child]", m)
		}
		live := as.Rollup()
		members := func() Counts {
			c, cc := as.Stats().Counts, child.Stats().Counts
			c.Add(&cc)
			return c
		}
		if want := members(); live.Counts != want {
			t.Fatalf("live rollup counts %+v, want the members' sum %+v", live.Counts, want)
		}
		if err := child.Close(); err != nil {
			t.Fatal(err)
		}
		if m := as.Members(); len(m) != 1 || m[0] != as {
			t.Fatalf("members after the child closed = %v, want [parent]", m)
		}
		closed := as.Rollup()
		if live.Faults != 24 || closed.Faults != 24 {
			t.Fatalf("rollup faults %d with the child open, %d after; want 24", live.Faults, closed.Faults)
		}
		if want := members(); closed.Counts != want || closed.Forks != 1 || closed.CowBreaks != 8 {
			t.Fatalf("closed rollup counts %+v, want the members' sum %+v with 1 fork and 8 COW breaks", closed.Counts, want)
		}
		if closed.Fault.Count() != live.Fault.Count() || closed.MapOp.Count() != live.MapOp.Count() || live.MapOp.Count() != 2 {
			t.Fatalf("samples: fault %d → %d, map op %d → %d; want unchanged, 2 map ops",
				live.Fault.Count(), closed.Fault.Count(), live.MapOp.Count(), closed.MapOp.Count())
		}
	})
}

func TestForkCowIsolation(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1, Backing: true}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		base := mustMmap(t, as, 0, 4*PageSize, vma.ProtRead|vma.ProtWrite, 0)
		orig := bytes.Repeat([]byte{0xAB}, 64)
		if err := cpu.WriteBytes(base, orig); err != nil {
			t.Fatal(err)
		}

		child, err := as.Fork()
		if err != nil {
			t.Fatal(err)
		}
		ccpu := child.NewCPU(0)

		// Child writes: parent must not see it.
		childData := bytes.Repeat([]byte{0xCD}, 64)
		if err := ccpu.WriteBytes(base, childData); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		if err := cpu.ReadBytes(base, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, orig) {
			t.Fatalf("parent sees child's write: %x", buf[0])
		}
		// Parent writes now re-own its copy; child must keep its own.
		parentData := bytes.Repeat([]byte{0xEF}, 64)
		if err := cpu.WriteBytes(base, parentData); err != nil {
			t.Fatal(err)
		}
		if err := ccpu.ReadBytes(base, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, childData) {
			t.Fatalf("child lost its copy: %x", buf[0])
		}

		cst, pst := child.Stats(), as.Stats()
		if cst.CowBreaks == 0 {
			t.Fatal("child write did not break COW")
		}
		if cst.CowCopies == 0 {
			t.Fatal("child COW break did not copy (frame was shared)")
		}
		if pst.CowBreaks == 0 {
			t.Fatal("parent write did not break COW")
		}
		// RCU designs must have routed the COW break through the
		// retry-with-lock path (§6).
		if as.Design().UsesRCU() && cst.RetriesCow == 0 {
			t.Fatal("RCU design broke COW on the fast path")
		}
		if err := child.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestForkSharedMappingStaysShared(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1, Backing: true}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		base := mustMmap(t, as, 0, 2*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared)
		if err := cpu.WriteBytes(base, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		child, err := as.Fork()
		if err != nil {
			t.Fatal(err)
		}
		ccpu := child.NewCPU(0)
		// Child's write must be visible to the parent (no COW).
		if err := ccpu.WriteBytes(base, []byte{9, 9, 9}); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 3)
		if err := cpu.ReadBytes(base, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, []byte{9, 9, 9}) {
			t.Fatalf("shared write not visible to parent: %v", buf)
		}
		if st := child.Stats(); st.CowBreaks != 0 {
			t.Fatalf("shared mapping broke COW %d times", st.CowBreaks)
		}
		if err := child.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestForkUnfaultedPagesAreIndependent(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1, Backing: true}, func(t *testing.T, as *AddressSpace) {
		base := mustMmap(t, as, 0, 4*PageSize, vma.ProtRead|vma.ProtWrite, 0)
		child, err := as.Fork()
		if err != nil {
			t.Fatal(err)
		}
		// Pages never faulted in the parent: the child faults fresh
		// zero pages of its own, with no COW involved.
		ccpu := child.NewCPU(0)
		if err := ccpu.WriteBytes(base, []byte{7}); err != nil {
			t.Fatal(err)
		}
		if _, ok := as.Translate(base); ok {
			t.Fatal("child fault materialized a parent page")
		}
		if st := child.Stats(); st.CowBreaks != 0 {
			t.Fatal("unfaulted page triggered COW")
		}
		if err := child.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestForkParentCloseFirst(t *testing.T) {
	// Frames shared COW must survive the parent's teardown: the child
	// still references them.
	forEachDesign(t, Config{CPUs: 1, Backing: true}, func(t *testing.T, asOuter *AddressSpace) {
		// forEachDesign closes asOuter for us; do the real work with an
		// inner family so we control close order.
		cfg := asOuter.cfg
		parent, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cpu := parent.NewCPU(0)
		base, err := parent.Mmap(0, 2*PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := cpu.WriteBytes(base, []byte("survives parent close")); err != nil {
			t.Fatal(err)
		}
		child, err := parent.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if err := parent.Close(); err != nil {
			t.Fatal(err)
		}
		ccpu := child.NewCPU(0)
		buf := make([]byte, 21)
		if err := ccpu.ReadBytes(base, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "survives parent close" {
			t.Fatalf("child read %q after parent close", buf)
		}
		if err := child.Close(); err != nil {
			t.Fatal(err) // the last Close checks for leaked frames
		}
	})
}

func TestForkGrandchild(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1, Backing: true}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		base := mustMmap(t, as, 0, PageSize, vma.ProtRead|vma.ProtWrite, 0)
		if err := cpu.WriteBytes(base, []byte{42}); err != nil {
			t.Fatal(err)
		}
		child, err := as.Fork()
		if err != nil {
			t.Fatal(err)
		}
		grand, err := child.Fork()
		if err != nil {
			t.Fatal(err)
		}
		gcpu := grand.NewCPU(0)
		buf := make([]byte, 1)
		if err := gcpu.ReadBytes(base, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 42 {
			t.Fatalf("grandchild read %d", buf[0])
		}
		// Grandchild write isolates from both ancestors.
		if err := gcpu.WriteBytes(base, []byte{43}); err != nil {
			t.Fatal(err)
		}
		if err := cpu.ReadBytes(base, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 42 {
			t.Fatal("grandchild write leaked to the original")
		}
		if err := grand.Close(); err != nil {
			t.Fatal(err)
		}
		if err := child.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestForkFamilyLimit(t *testing.T) {
	as, err := New(Config{CPUs: 1, MaxFamily: 2})
	if err != nil {
		t.Fatal(err)
	}
	child, err := as.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Fork(); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("third member allowed: %v", err)
	}
	if err := child.Close(); err != nil {
		t.Fatal(err)
	}
	if err := as.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestForkDuringConcurrentFaults(t *testing.T) {
	// Fork while the parent is actively faulting: every outcome must be
	// a valid snapshot, and nothing may leak.
	forEachDesign(t, Config{CPUs: 2, Backing: true}, func(t *testing.T, as *AddressSpace) {
		const pages = 256
		base := mustMmap(t, as, 0, pages*PageSize, vma.ProtRead|vma.ProtWrite, 0)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			cpu := as.NewCPU(0)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := cpu.Fault(base+uint64(i%pages)*PageSize, true); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		var children []*AddressSpace
		for i := 0; i < 3; i++ {
			child, err := as.Fork()
			if err != nil {
				t.Fatal(err)
			}
			children = append(children, child)
		}
		close(stop)
		wg.Wait()
		// Each child can fault and write everywhere independently.
		for ci, child := range children {
			ccpu := child.NewCPU(0)
			if err := ccpu.WriteBytes(base+uint64(ci)*PageSize, []byte{byte(ci)}); err != nil {
				t.Fatal(err)
			}
			if err := child.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
