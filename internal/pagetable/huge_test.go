package pagetable

import (
	"errors"
	"sync"
	"testing"

	"bonsai/internal/physmem"
)

// TestCloneRangeSplitsHuge: fork's clone meeting a live huge entry —
// present before the fork, or installed by a fault racing it — demotes
// the entry in place, riding the fork's gather, and clones the leaf
// table: both sides end with 512 read-only COW entries over the run's
// frames, and installs − splits − zaps still counts the live huge
// entries (none).
func TestCloneRangeSplitsHuge(t *testing.T) {
	tb, alloc, dom := newTables(t, Config{})
	dst, err := New(alloc, dom, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(0x40000000)
	run, err := alloc.AllocRun(0, HugeOrder)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tb.InstallHuge(0, base, run, true, nil); res != HugeInstalled || err != nil {
		t.Fatalf("InstallHuge = %v, %v", res, err)
	}
	g := testGather(alloc, dom)
	shared := 0
	err = tb.CloneRange(0, g, dst, base, base+HugeSpan, true,
		func(_ uint64, f physmem.Frame) { alloc.Ref(f); shared++ }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Pages() != 1+EntriesPerTable {
		t.Fatalf("gather holds %d revocations, want the split plus %d downgrades", g.Pages(), EntriesPerTable)
	}
	g.Flush()
	if shared != EntriesPerTable {
		t.Fatalf("clone shared %d frames, want %d", shared, EntriesPerTable)
	}
	installs, splits, zaps := tb.HugeStats()
	if installs != 1 || splits != 1 || installs-splits-zaps != 0 {
		t.Fatalf("installs %d splits %d zaps %d, want 1/1/0", installs, splits, zaps)
	}
	if _, huge := tb.WalkHuge(base); huge {
		t.Fatal("huge entry survived the clone")
	}
	for i := 0; i < EntriesPerTable; i++ {
		addr := base + uint64(i)*PageSize
		for side, tables := range []*Tables{tb, dst} {
			pte, ok := tables.Walk(addr)
			if !ok || PTEFrame(pte) != run+physmem.Frame(i) || pte&PTECow == 0 || pte&PTEWritable != 0 {
				t.Fatalf("side %d page %d: pte %#x ok %v, want read-only COW over frame %d", side, i, pte, ok, run+physmem.Frame(i))
			}
		}
		if refs := alloc.Refs(run + physmem.Frame(i)); refs != 2 {
			t.Fatalf("frame %d has %d references, want 2", run+physmem.Frame(i), refs)
		}
	}
	g = testGather(alloc, dom)
	tb.UnmapRange(g, base, base+HugeSpan, nil)
	dst.UnmapRange(g, base, base+HugeSpan, nil)
	g.Flush()
	dom.Synchronize()
	for i := 0; i < EntriesPerTable; i++ {
		if alloc.Allocated(run + physmem.Frame(i)) {
			t.Fatalf("frame %d still allocated after both sides unmapped", run+physmem.Frame(i))
		}
	}
}

// TestZapHugeIsOneRunEntry: unmapping a whole huge entry reports it to
// onPage once, as the huge PTE itself, and returns its run as the one
// block it was allocated as — no coalescing.
func TestZapHugeIsOneRunEntry(t *testing.T) {
	tb, alloc, dom := newTables(t, Config{})
	base := uint64(0x40000000)
	run, err := alloc.AllocRun(0, HugeOrder)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tb.InstallHuge(0, base, run, true, nil); res != HugeInstalled || err != nil {
		t.Fatalf("InstallHuge = %v, %v", res, err)
	}
	coalesces, runs := alloc.Stats().BuddyCoalesces, alloc.FreeRuns(HugeOrder)
	g := testGather(alloc, dom)
	var calls []uint64
	tb.UnmapRange(g, base, base+HugeSpan, func(addr, pte uint64) {
		calls = append(calls, addr)
		if pte&PTEHuge == 0 || PTEFrame(pte) != run {
			t.Errorf("onPage(%#x, %#x): want the huge PTE over frame %d", addr, pte, run)
		}
	})
	if len(calls) != 1 || calls[0] != base {
		t.Fatalf("onPage called at %#x, want once at %#x", calls, base)
	}
	if g.Pages() != EntriesPerTable {
		t.Fatalf("gather counts %d pages, want %d", g.Pages(), EntriesPerTable)
	}
	if lo, hi := g.Span(); lo != base || hi != base+HugeSpan-PageSize+1 {
		t.Fatalf("Span() = [%#x, %#x)", lo, hi)
	}
	g.Flush()
	dom.Synchronize()
	// The deposited table's frame may merge with its buddy; the run may not.
	if got := alloc.Stats().BuddyCoalesces - coalesces; got > 1 {
		t.Fatalf("zap of one huge entry took %d coalesce steps", got)
	}
	if got := alloc.FreeRuns(HugeOrder); got != runs+1 {
		t.Fatalf("order-9 blocks %d, want %d", got, runs+1)
	}
	if st := tb.Stats(); st.PTEsCleared != EntriesPerTable {
		t.Fatalf("PTEsCleared = %d, want %d", st.PTEsCleared, EntriesPerTable)
	}
}

// liveDeposits returns the deposits of the tree's live huge entries.
func liveDeposits(tb *Tables) map[*PageTable]bool {
	deps := make(map[*PageTable]bool)
	tb.forEachLevel2(func(d *directory) {
		for i := range d.deposit {
			if dep := d.deposit[i].Load(); dep != nil {
				deps[dep] = true
			}
		}
	})
	return deps
}

// TestSpareReuse: the deposits of 32 huge entries zapped whole come back
// as the next 32 entries' deposits — no PageTable struct is allocated —
// while each deposit still takes a fresh frame and counts as a table
// allocated, live and freed, and the spare list never holds more structs
// than the peak count of live deposits.
func TestSpareReuse(t *testing.T) {
	const chunks = 32
	tb, alloc, dom := newTables(t, Config{})
	base := uint64(0x40000000)
	peak := 0
	check := func() {
		t.Helper()
		if n := len(liveDeposits(tb)); n > peak {
			peak = n
		}
		if n := len(tb.spares); n > peak {
			t.Fatalf("%d spares, more than the peak of %d live deposits", n, peak)
		}
		if err := tb.AuditSpares(); err != nil {
			t.Fatal(err)
		}
	}
	install := func() map[*PageTable]bool {
		t.Helper()
		for c := uint64(0); c < chunks; c++ {
			run, err := alloc.AllocRun(0, HugeOrder)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := tb.InstallHuge(0, base+c*HugeSpan, run, true, nil); res != HugeInstalled || err != nil {
				t.Fatalf("InstallHuge = %v, %v", res, err)
			}
			check()
		}
		return liveDeposits(tb)
	}
	unmap := func() {
		t.Helper()
		g := testGather(alloc, dom)
		tb.UnmapRange(g, base, base+chunks*HugeSpan, nil)
		g.Flush()
		dom.Synchronize()
		check()
	}
	first := install()
	unmap()
	if len(tb.spares) != chunks {
		t.Fatalf("%d spares after zapping %d huge entries, want %d", len(tb.spares), chunks, chunks)
	}
	// A failed double check discards its table: the frame is freed at
	// once and the struct listed again.
	run, err := alloc.AllocRun(0, HugeOrder)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tb.InstallHuge(0, base, run, true, func() bool { return false }); res != HugeRecheckFailed || err != nil {
		t.Fatalf("InstallHuge with a failing recheck = %v, %v", res, err)
	}
	alloc.FreeRun(run, HugeOrder)
	if len(tb.spares) != chunks {
		t.Fatalf("%d spares after a discarded deposit, want %d", len(tb.spares), chunks)
	}
	check()
	st := tb.Stats()
	second := install()
	st2 := tb.Stats()
	for dep := range second {
		if !first[dep] {
			t.Fatal("a deposit was allocated on the heap with spares listed")
		}
		if !alloc.Allocated(dep.frame) {
			t.Fatalf("deposit frame %d is free", dep.frame)
		}
	}
	if len(tb.spares) != 0 {
		t.Fatalf("%d spares left after reinstalling %d entries, want 0", len(tb.spares), chunks)
	}
	if alloced, live := st2.TablesAlloc-st.TablesAlloc, st2.TablesLive-st.TablesLive; alloced != chunks || live != chunks {
		t.Fatalf("reinstalling counted %d tables allocated and %d live, want %d and %d", alloced, live, chunks, chunks)
	}
	unmap()
	if got := tb.Stats().TablesFreed - st2.TablesFreed; got != chunks {
		t.Fatalf("zapping freed %d tables, want %d", got, chunks)
	}
	for dep := range second {
		if alloc.Allocated(dep.frame) {
			t.Fatalf("deposit frame %d still allocated after the zap and a grace period", dep.frame)
		}
	}
}

// TestSplitTableNeverSpare: a deposit that a split publishes is a leaf
// table lock-free walkers can reach, so when the unmap scan detaches it
// (dead, its frame retired through the gather) its struct never comes
// back as a spare; the deposit of the chunk zapped whole beside it does.
func TestSplitTableNeverSpare(t *testing.T) {
	tb, alloc, dom := newTables(t, Config{})
	base := uint64(0x40000000)
	for c := uint64(0); c < 2; c++ {
		run, err := alloc.AllocRun(0, HugeOrder)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := tb.InstallHuge(0, base+c*HugeSpan, run, true, nil); res != HugeInstalled || err != nil {
			t.Fatalf("InstallHuge = %v, %v", res, err)
		}
	}
	g := testGather(alloc, dom)
	if _, splits := tb.WriteProtectRange(g, base, base+HugeSpan/2); splits != 1 {
		t.Fatalf("a half-chunk write-protect split %d entries, want 1", splits)
	}
	g.Flush()
	split := tb.WalkTable(base)
	if split == nil {
		t.Fatal("the split published no leaf table")
	}
	g = testGather(alloc, dom)
	tb.UnmapRange(g, base, base+2*HugeSpan, nil)
	g.Flush()
	dom.Synchronize()
	if err := tb.AuditSpares(); err != nil {
		t.Fatal(err)
	}
	for _, pt := range tb.spares {
		if pt == split {
			t.Fatal("the split's published table came back as a spare")
		}
	}
	if len(tb.spares) != 1 {
		t.Fatalf("%d spares, want 1 (the deposit of the chunk zapped whole)", len(tb.spares))
	}
}

// TestSparesUnderConcurrentInstalls: four CPUs race for one chunk each
// round, two with huge installs and two with leaf tables, so the losers
// discard onto the spare list from both paths while the winners take
// spares; the chunk is then unmapped. The spare list stays consistent
// and never holds more structs than the CPUs can have had unpublished at
// once (one each).
func TestSparesUnderConcurrentInstalls(t *testing.T) {
	const cpus, rounds = 4, 200
	tb, alloc, dom := newTables(t, Config{})
	base := uint64(0x40000000)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for cpu := 0; cpu < cpus; cpu++ {
			wg.Add(1)
			go func(cpu int) {
				defer wg.Done()
				<-start
				if cpu%2 == 1 {
					if _, err := tb.EnsureTable(cpu, base); err != nil && !errors.Is(err, ErrHugeMapped) {
						t.Error(err)
					}
					return
				}
				run, err := alloc.AllocRun(cpu, HugeOrder)
				if err != nil {
					t.Error(err)
					return
				}
				if res, err := tb.InstallHuge(cpu, base, run, true, nil); err != nil || res != HugeInstalled {
					alloc.FreeRun(run, HugeOrder) // still ours
				}
			}(cpu)
		}
		close(start)
		wg.Wait()
		g := testGather(alloc, dom)
		tb.UnmapRange(g, base, base+HugeSpan, nil)
		g.Flush()
		dom.Synchronize()
		if err := tb.AuditSpares(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if n := len(tb.spares); n > cpus {
			t.Fatalf("round %d: %d spares, more than %d CPUs can have held unpublished", r, n, cpus)
		}
	}
	t.Logf("%d optimistic tables discarded in %d rounds", tb.Stats().Discarded, rounds)
}
