package pagetable

import (
	"sync"
	"testing"

	"bonsai/internal/physmem"
	"bonsai/internal/rcu"
	"bonsai/internal/tlb"
)

func newTables(t *testing.T, cfg Config) (*Tables, *physmem.Allocator, *rcu.Domain) {
	t.Helper()
	alloc := physmem.New(physmem.Config{Frames: 1 << 16, CPUs: 8})
	dom := rcu.NewDomain(rcu.Options{BatchSize: -1})
	tb, err := New(alloc, dom, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb, alloc, dom
}

// testGather returns a zero-cost gather for unmap scans: the scan
// feeds revoked frames into it, and Flush hands them back to alloc
// after a grace period.
func testGather(alloc *physmem.Allocator, dom *rcu.Domain) *tlb.Gather {
	return tlb.NewDomain(alloc, dom, tlb.CostModel{}).Gather(0)
}

// fill maps addr to a fresh frame, mimicking the fault handler's fill.
func fill(t *testing.T, tb *Tables, alloc *physmem.Allocator, cpu int, addr uint64) physmem.Frame {
	t.Helper()
	pt, err := tb.EnsureTable(cpu, addr)
	if err != nil {
		t.Fatal(err)
	}
	var frame physmem.Frame
	installed, ok, err := tb.FillPTE(addr, pt, nil, func() (uint64, error) {
		f, err := alloc.Alloc(cpu)
		if err != nil {
			return 0, err
		}
		frame = f
		return MakePTE(f, true), nil
	})
	if err != nil || !ok {
		t.Fatalf("FillPTE(%#x): installed=%v ok=%v err=%v", addr, installed, ok, err)
	}
	return frame
}

func TestWalkMissing(t *testing.T) {
	tb, _, _ := newTables(t, Config{})
	if _, ok := tb.Walk(0x1000); ok {
		t.Fatal("Walk of empty tables succeeded")
	}
	if pt := tb.WalkTable(0x1000); pt != nil {
		t.Fatal("WalkTable of empty tables returned a table")
	}
}

func TestFillThenWalk(t *testing.T) {
	tb, alloc, _ := newTables(t, Config{})
	addrs := []uint64{
		0x0,                 // first page
		0x1000,              // second page, same table
		0x200000,            // next leaf table
		0x40000000,          // next level-3 directory
		0x8000000000,        // next level-4 entry
		MaxAddress - 0x1000, // last page
	}
	frames := map[uint64]physmem.Frame{}
	for _, a := range addrs {
		frames[a] = fill(t, tb, alloc, 0, a)
	}
	for _, a := range addrs {
		pte, ok := tb.Walk(a)
		if !ok {
			t.Fatalf("Walk(%#x) missing", a)
		}
		if PTEFrame(pte) != frames[a] {
			t.Fatalf("Walk(%#x) frame %d want %d", a, PTEFrame(pte), frames[a])
		}
		if pte&PTEWritable == 0 {
			t.Fatalf("Walk(%#x) lost writable bit", a)
		}
	}
	// Unmapped neighbours stay unmapped.
	if _, ok := tb.Walk(0x2000); ok {
		t.Fatal("unmapped page is mapped")
	}
}

func TestFillIdempotent(t *testing.T) {
	tb, alloc, _ := newTables(t, Config{})
	fill(t, tb, alloc, 0, 0x1000)
	pt, _ := tb.EnsureTable(0, 0x1000)
	installed, ok, err := tb.FillPTE(0x1000, pt, nil, func() (uint64, error) {
		t.Fatal("makeFrame called for an already-present PTE")
		return 0, nil
	})
	if err != nil || installed || !ok {
		t.Fatalf("second fill: installed=%v ok=%v err=%v", installed, ok, err)
	}
}

func TestFillRecheckFails(t *testing.T) {
	tb, _, _ := newTables(t, Config{})
	pt, _ := tb.EnsureTable(0, 0x1000)
	installed, ok, err := tb.FillPTE(0x1000, pt, func() bool { return false }, func() (uint64, error) {
		t.Fatal("makeFrame called despite failed recheck")
		return 0, nil
	})
	if err != nil || installed || ok {
		t.Fatalf("recheck-failed fill: installed=%v ok=%v err=%v", installed, ok, err)
	}
}

func TestUnmapRangeFreesEverything(t *testing.T) {
	tb, alloc, dom := newTables(t, Config{})
	base := uint64(0x10000000)
	const pages = 1200 // spans multiple leaf tables
	for i := uint64(0); i < pages; i++ {
		fill(t, tb, alloc, 0, base+i*PageSize)
	}
	if got := tb.CountPresent(base, base+pages*PageSize); got != pages {
		t.Fatalf("mapped %d pages, walk sees %d", pages, got)
	}
	g := testGather(alloc, dom)
	freedPages := 0
	tb.UnmapRange(g, base, base+pages*PageSize, func(_, pte uint64) {
		freedPages++
	})
	g.Flush()
	if freedPages != pages {
		t.Fatalf("unmap scan visited %d pages, want %d", freedPages, pages)
	}
	if got := tb.CountPresent(base, base+pages*PageSize); got != 0 {
		t.Fatalf("%d pages still mapped after unmap", got)
	}
	dom.Synchronize()
	// Only the root and the directories on base's path remain (the
	// partial-level directories are kept: the range did not cover them).
	st := tb.Stats()
	if st.PTEsCleared != pages {
		t.Fatalf("PTEsCleared = %d want %d", st.PTEsCleared, pages)
	}
}

func TestUnmapPartialTableKeepsTable(t *testing.T) {
	tb, alloc, dom := newTables(t, Config{})
	// Map two pages in the same leaf table; unmap one.
	fill(t, tb, alloc, 0, 0x1000)
	fill(t, tb, alloc, 0, 0x2000)
	g := testGather(alloc, dom)
	tb.UnmapRange(g, 0x1000, 0x2000, nil)
	g.Flush()
	if _, ok := tb.Walk(0x1000); ok {
		t.Fatal("unmapped page still mapped")
	}
	if _, ok := tb.Walk(0x2000); !ok {
		t.Fatal("neighbouring page lost")
	}
	pt := tb.WalkTable(0x2000)
	if pt == nil || pt.Dead() {
		t.Fatal("partially covered table was detached")
	}
}

func TestUnmapDetachesFullyCoveredTable(t *testing.T) {
	tb, alloc, dom := newTables(t, Config{})
	// Fill one page inside a 2 MB-aligned span, then unmap the whole span.
	base := uint64(0x200000)
	fill(t, tb, alloc, 0, base+0x5000)
	before := tb.WalkTable(base)
	if before == nil {
		t.Fatal("table missing after fill")
	}
	g := testGather(alloc, dom)
	tb.UnmapRange(g, base, base+TableSpan, nil)
	g.Flush()
	if !before.Dead() {
		t.Fatal("fully covered table not marked dead")
	}
	if tb.WalkTable(base) != nil {
		t.Fatal("detached table still reachable")
	}
}

func TestFillIntoDeadTablePanics(t *testing.T) {
	tb, alloc, dom := newTables(t, Config{})
	base := uint64(0x200000)
	fill(t, tb, alloc, 0, base)
	pt := tb.WalkTable(base)
	g := testGather(alloc, dom)
	tb.UnmapRange(g, base, base+TableSpan, nil)
	g.Flush()
	defer func() {
		if recover() == nil {
			t.Fatal("SetPTE into dead table did not panic")
		}
	}()
	pt.Lock()
	defer pt.Unlock()
	pt.SetPTE(0, MakePTE(1, false))
}

func TestNoFrameLeaksAfterFullTeardown(t *testing.T) {
	tb, alloc, dom := newTables(t, Config{})
	for i := uint64(0); i < 500; i++ {
		fill(t, tb, alloc, 0, 0x100000000+i*0x201000) // scattered: many tables
	}
	g := testGather(alloc, dom)
	tb.UnmapRange(g, 0, MaxAddress, nil)
	g.Flush()
	dom.Synchronize()
	st := tb.Stats()
	if st.TablesLive != 1 { // only the root remains
		t.Fatalf("TablesLive = %d after full teardown, want 1 (root)", st.TablesLive)
	}
	// Everything except the root directory's frame is back in the pool.
	if alloc.InUse() != 1 {
		t.Fatalf("InUse = %d after teardown, want 1 (root frame)", alloc.InUse())
	}
}

func TestConcurrentFillsDistinctTables(t *testing.T) {
	tb, alloc, _ := newTables(t, Config{})
	const cpus = 4
	var wg sync.WaitGroup
	for c := 0; c < cpus; c++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			base := uint64(cpu) << 30 // distinct level-3 subtrees
			for i := uint64(0); i < 300; i++ {
				addr := base + i*PageSize
				pt, err := tb.EnsureTable(cpu, addr)
				if err != nil {
					t.Error(err)
					return
				}
				_, ok, err := tb.FillPTE(addr, pt, nil, func() (uint64, error) {
					f, err := alloc.Alloc(cpu)
					if err != nil {
						return 0, err
					}
					return MakePTE(f, true), nil
				})
				if err != nil || !ok {
					t.Errorf("fill %#x: ok=%v err=%v", addr, ok, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < cpus; c++ {
		base := uint64(c) << 30
		for i := uint64(0); i < 300; i++ {
			if _, ok := tb.Walk(base + i*PageSize); !ok {
				t.Fatalf("cpu %d page %d lost", c, i)
			}
		}
	}
}

func TestConcurrentFillsSameTableDoubleCheck(t *testing.T) {
	// All workers fault the same addresses: exactly one fill per PTE
	// must win, and every losing optimistic table allocation must be
	// discarded without leaking.
	tb, alloc, _ := newTables(t, Config{})
	const cpus = 4
	var wg sync.WaitGroup
	for c := 0; c < cpus; c++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := uint64(0); i < 256; i++ {
				addr := 0x40000000 + i*PageSize
				pt, err := tb.EnsureTable(cpu, addr)
				if err != nil {
					t.Error(err)
					return
				}
				_, _, err = tb.FillPTE(addr, pt, nil, func() (uint64, error) {
					f, err := alloc.Alloc(cpu)
					if err != nil {
						return 0, err
					}
					return MakePTE(f, false), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := tb.Stats()
	if st.PTEsFilled != 256 {
		t.Fatalf("PTEsFilled = %d, want exactly 256", st.PTEsFilled)
	}
	// frames in use = 256 pages + live tables.
	want := int64(256) + st.TablesLive
	if alloc.InUse() != want {
		t.Fatalf("InUse = %d, want %d (discarded tables leaked?)", alloc.InUse(), want)
	}
}

func TestAddressGeometry(t *testing.T) {
	if MaxAddress != 1<<48 {
		t.Fatalf("MaxAddress = %#x", MaxAddress)
	}
	if TableSpan != 2<<20 {
		t.Fatalf("TableSpan = %#x, want 2MB", TableSpan)
	}
	if index(0x1000, 1) != 1 || index(0x200000, 2) != 1 || index(0, 4) != 0 {
		t.Fatal("index computation wrong")
	}
	if index(MaxAddress-1, 4) != 511 {
		t.Fatalf("top index = %d", index(MaxAddress-1, 4))
	}
}
