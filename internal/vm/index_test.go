package vm

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"bonsai/internal/ranges"
	"bonsai/internal/vma"
)

// auditIndex checks the striped region index, the same under every
// design: every VMA sits in the tree of its start's stripe, keyed by its
// start and not deleted; every VMA that crosses a span boundary is in
// crossing too; and every crossing entry is a VMA of the stripe trees,
// so no deleted one (it may have shrunk since it crossed).
func auditIndex(as *AddressSpace) error {
	idx := as.idx
	var err error
	fail := func(format string, args ...any) bool {
		err = fmt.Errorf(format, args...)
		return false
	}
	for s, tr := range idx.trees {
		tr.Ascend(func(k uint64, v *vma.VMA) bool {
			switch c, inCrossing := idx.crossing.Lookup(k); {
			case k != v.Start():
				return fail("tree %d: %v keyed at %#x", s, v, k)
			case ranges.Stripe(k) != s:
				return fail("tree %d holds %v, whose stripe is %d", s, v, ranges.Stripe(k))
			case v.Deleted():
				return fail("tree %d holds deleted %v", s, v)
			case crosses(v) && c != v:
				return fail("%v crosses a span boundary, but crossing holds %v (%v) at its start", v, c, inCrossing)
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	idx.crossing.Ascend(func(k uint64, v *vma.VMA) bool {
		if live, _ := idx.tree(k).Lookup(k); live != v {
			return fail("crossing holds %v at %#x, its stripe tree %v", v, k, live)
		}
		return true
	})
	return err
}

// TestStripedIndexAcrossBoundaries runs one script of mapping
// operations and faults across 1 GiB span boundaries and the 16 GiB
// stripe wrap (stripe 15 to 0) on all four designs, auditing every
// design's index, its crossing invariant included, after every step,
// then requires every design to hold the same regions and
// translations, in the parent and in a fork.
func TestStripedIndexAcrossBoundaries(t *testing.T) {
	const (
		gib  = uint64(1) << 30
		b1   = UnmappedBase + gib // a span boundary: stripes 4 and 5
		b2   = b1 + gib           // the stack's boundary: stripes 5 and 6
		b16  = 16 * gib           // the wrap: stripes 15 and 0
		wide = 20 * gib           // a region over seventeen spans
	)
	rw, ro := vma.ProtRead|vma.ProtWrite, vma.ProtRead
	type step struct {
		name string
		do   func(as *AddressSpace, cpu *CPU) error
	}
	mmap := func(addr, pages uint64, prot vma.Prot, flags vma.Flags) func(*AddressSpace, *CPU) error {
		return func(as *AddressSpace, _ *CPU) error {
			_, err := as.Mmap(addr, pages*PageSize, prot, flags|vma.Fixed, nil, 0)
			return err
		}
	}
	fault := func(addrs ...uint64) func(*AddressSpace, *CPU) error {
		return func(_ *AddressSpace, cpu *CPU) error {
			for _, a := range addrs {
				if err := cpu.Fault(a, true); err != nil {
					return fmt.Errorf("fault %#x: %w", a, err)
				}
			}
			return nil
		}
	}
	munmap := func(addr, pages uint64) func(*AddressSpace, *CPU) error {
		return func(as *AddressSpace, _ *CPU) error { return as.Munmap(addr, pages*PageSize) }
	}
	mprotect := func(addr, pages uint64, prot vma.Prot) func(*AddressSpace, *CPU) error {
		return func(as *AddressSpace, _ *CPU) error { return as.Mprotect(addr, pages*PageSize, prot) }
	}
	steps := []step{
		{"mmap across b1", mmap(b1-8*PageSize, 16, rw, 0)},
		{"fault both sides of b1", fault(b1-PageSize, b1, b1+7*PageSize)},
		{"merge above b1", mmap(b1+8*PageSize, 8, rw, 0)},
		{"mmap below b16", mmap(b16-8*PageSize, 4, rw, 0)},
		{"fault below b16", fault(b16 - 8*PageSize)},
		{"merge across b16", mmap(b16-4*PageSize, 8, rw, 0)},
		{"fault across b16", fault(b16-PageSize, b16, b16+3*PageSize)},
		{"mprotect split below b1", mprotect(b1-4*PageSize, 2, ro)},
		{"mprotect split above b1", mprotect(b1+2*PageSize, 2, ro)},
		{"mprotect over b1", mprotect(b1-PageSize, 2, ro)},
		{"munmap split below b16", munmap(b16-6*PageSize, 1)},
		{"munmap split above b16", munmap(b16+PageSize, 1)},
		{"stack at b2", mmap(b2, 4, rw, vma.Stack)},
		{"grow the stack across b2", fault(b2-PageSize, b2-3*PageSize)},
		{"mmap over seventeen spans", mmap(wide, 17*gib/PageSize, rw, 0)},
		{"fault in its first, ninth and last spans", fault(wide, wide+8*gib, wide+17*gib-PageSize)},
		{"munmap a span from its middle", munmap(wide+5*gib, gib/PageSize)},
		{"mprotect two spans above the gap", mprotect(wide+6*gib+PageSize, 2*gib/PageSize, ro)},
		{"non-fixed mmap above b1", func(as *AddressSpace, _ *CPU) error {
			_, err := as.Mmap(b1, 2*gib, rw, 0, nil, 0)
			return err
		}},
		{"munmap across b1's merged region", munmap(b1+4*PageSize, 4)},
	}
	probes := []uint64{b1 - 8*PageSize, b1 - PageSize, b1, b1 + 3*PageSize, b1 + 7*PageSize, b1 + 15*PageSize,
		b16 - 8*PageSize, b16 - 6*PageSize, b16 - PageSize, b16, b16 + PageSize, b16 + 3*PageSize,
		b2 - 3*PageSize, b2 - PageSize, b2, wide, wide + 8*gib, wide + 17*gib - PageSize}
	type shot struct {
		regions, child []Region
		mapped         []bool
	}
	var shots []shot
	for _, d := range Designs {
		var s shot
		t.Run(d.String(), func(t *testing.T) {
			as, err := New(Config{Design: d, CPUs: 1, Frames: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			cpu := as.NewCPU(0)
			for _, st := range steps {
				if err := st.do(as, cpu); err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				if err := auditIndex(as); err != nil {
					t.Fatalf("after %s: %v", st.name, err)
				}
			}
			s.regions = as.Regions()
			if got := as.RegionCount(); got != len(s.regions) {
				t.Errorf("RegionCount %d, Regions lists %d", got, len(s.regions))
			}
			for _, p := range probes {
				_, ok := as.Translate(p)
				s.mapped = append(s.mapped, ok)
			}
			child, err := as.Fork()
			if err != nil {
				t.Fatal(err)
			}
			if err := auditIndex(child); err != nil {
				t.Fatalf("child: %v", err)
			}
			s.child = child.Regions()
			ccpu := child.NewCPU(0)
			for _, p := range []uint64{b16 + 3*PageSize, b2 - 3*PageSize, wide + 17*gib - 2*PageSize} {
				if err := ccpu.Fault(p, true); err != nil && !errors.Is(err, ErrAccess) {
					t.Errorf("child fault %#x: %v", p, err)
				}
			}
			if err := child.Close(); err != nil {
				t.Errorf("child teardown: %v", err)
			}
			if err := as.Close(); err != nil {
				t.Errorf("teardown: %v", err)
			}
		})
		shots = append(shots, s)
	}
	ref := shots[0]
	if !slices.Equal(ref.regions, ref.child) {
		t.Errorf("%v: the child's regions differ from the parent's:\n%v\n%v", Designs[0], ref.child, ref.regions)
	}
	for i, s := range shots[1:] {
		d := Designs[i+1]
		if !slices.Equal(s.regions, ref.regions) {
			t.Errorf("%v regions:\n%v\n%v regions:\n%v", d, s.regions, Designs[0], ref.regions)
		}
		if !slices.Equal(s.child, ref.child) {
			t.Errorf("%v child regions differ from %v's", d, Designs[0])
		}
		if !slices.Equal(s.mapped, ref.mapped) {
			t.Errorf("%v translations %v, %v's %v", d, s.mapped, Designs[0], ref.mapped)
		}
	}
}
