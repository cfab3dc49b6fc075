package pagetable

import (
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
	dom.Barrier()
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
	dom.Barrier()
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
