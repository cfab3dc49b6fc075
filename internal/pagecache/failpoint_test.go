package pagecache

// Failure-injection tests for the writeback error taxonomy: retryable
// errors leave the page dirty and resident (nothing lost, try again),
// sticky errors drop the data but latch an error the next Writeback —
// this system's fsync — reports exactly once, and an eviction whose
// pre-eviction writeback fails retryably reverts instead of discarding
// a dirty page. Serial only: the failpoint registry is process-global.

import (
	"errors"
	"testing"

	"bonsai/internal/fail"
	"bonsai/internal/physmem"
)

func TestFillInjectionFailsTyped(t *testing.T) {
	defer fail.DisableAll()
	c, _, _ := newTestCache(t, 1)
	if err := fail.Enable(1, "pagecache.fill", fail.Config{OneIn: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := c.FindOrCreate(0, 0, func(physmem.Frame) {})
	if !errors.Is(err, ErrFillIO) || !errors.Is(err, ErrIO) {
		t.Fatalf("got %v, want ErrFillIO (wrapping ErrIO)", err)
	}
	st := c.Stats()
	if st.Resident != 0 || st.FillErrs != 1 {
		t.Fatalf("stats after failed fill: %+v", st)
	}
	fail.DisableAll()
	if _, err := c.FindOrCreate(0, 0, func(physmem.Frame) {}); err != nil {
		t.Fatalf("fill after device healed: %v", err)
	}
}

func TestWritebackRetryableKeepsPageDirty(t *testing.T) {
	defer fail.DisableAll()
	c, _, _ := newTestCache(t, 1)
	pg, err := c.FindOrCreate(0, 0, func(physmem.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	pg.MarkDirty()
	if err := fail.Enable(2, "pagecache.wb-retryable", fail.Config{OneIn: 1}); err != nil {
		t.Fatal(err)
	}
	n, err := c.Writeback(nil)
	if n != 0 || !errors.Is(err, ErrWritebackIO) {
		t.Fatalf("Writeback under retryable injection: n=%d err=%v", n, err)
	}
	if !pg.Dirty() {
		t.Fatal("retryable writeback failure cleaned the page — a later crash would lose the data silently")
	}
	if st := c.Stats(); st.DirtyPages != 1 || st.WritebackRetries != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Device healed: the same data writes back fine — nothing was lost.
	fail.DisableAll()
	if n, err := c.Writeback(nil); n != 1 || err != nil {
		t.Fatalf("Writeback after healing: n=%d err=%v", n, err)
	}
}

func TestStickyWritebackLatchReportsOnce(t *testing.T) {
	defer fail.DisableAll()
	c, _, _ := newTestCache(t, 1)
	pg, err := c.FindOrCreate(0, 0, func(physmem.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	pg.MarkDirty()
	if err := fail.Enable(3, "pagecache.wb-sticky", fail.Config{OneIn: 1}); err != nil {
		t.Fatal(err)
	}
	n, err := c.Writeback(nil)
	if n != 0 || !errors.Is(err, ErrStickyIO) {
		t.Fatalf("Writeback under sticky injection: n=%d err=%v", n, err)
	}
	if pg.Dirty() {
		t.Fatal("sticky failure left the page dirty: it must be cleaned (the data is gone) with the error latched instead")
	}
	// The errseq_t discipline: the latched error was reported exactly
	// once; a second fsync sees a clean file and no stale error.
	if n, err := c.Writeback(nil); n != 0 || err != nil {
		t.Fatalf("second Writeback re-reported: n=%d err=%v", n, err)
	}
	if st := c.Stats(); st.WritebackSticky != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestEvictionRevertsOnRetryableWriteback: the reclaim scan must not
// evict a dirty page it could not write back (the data would be lost
// for a transient device error); the eviction is aborted and the page
// stays resident and dirty for a later pass.
func TestEvictionRevertsOnRetryableWriteback(t *testing.T) {
	defer fail.DisableAll()
	c, alloc, dom := newTestCache(t, 1)
	pg, err := c.FindOrCreate(0, 0, func(physmem.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	pg.MarkDirty()
	if err := fail.Enable(4, "pagecache.wb-retryable", fail.Config{OneIn: 1}); err != nil {
		t.Fatal(err)
	}
	// Force: ignore the accessed bit, so only the writeback failure can
	// save the page.
	if ev, _ := scan(c, 1, true); ev != 0 {
		t.Fatalf("evicted %d pages past a failed writeback", ev)
	}
	if c.Lookup(0) != pg || pg.Deleted() || !pg.Dirty() {
		t.Fatalf("aborted eviction left page=%v deleted=%v dirty=%v", c.Lookup(0), pg.Deleted(), pg.Dirty())
	}
	fail.DisableAll()
	ev, written := scan(c, 1, true)
	if ev != 1 || written != 1 {
		t.Fatalf("post-heal scan: evicted=%d written=%d, want 1,1", ev, written)
	}
	dom.Synchronize()
	if alloc.InUse() != 0 {
		t.Fatalf("%d frames leaked through the abort/retry cycle", alloc.InUse())
	}
}

// TestEvictionProceedsOnStickyWriteback: a sticky failure means the
// data is unrecoverable however long the page stays cached, so the
// eviction completes (freeing the frame) and the error latch carries
// the loss to the next Writeback caller.
func TestEvictionProceedsOnStickyWriteback(t *testing.T) {
	defer fail.DisableAll()
	c, alloc, dom := newTestCache(t, 1)
	pg, err := c.FindOrCreate(0, 0, func(physmem.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	pg.MarkDirty()
	if err := fail.Enable(5, "pagecache.wb-sticky", fail.Config{OneIn: 1}); err != nil {
		t.Fatal(err)
	}
	ev, written := scan(c, 1, true)
	if ev != 1 || written != 0 {
		t.Fatalf("sticky-failure scan: evicted=%d written=%d, want 1,0", ev, written)
	}
	fail.DisableAll()
	if _, err := c.Writeback(nil); !errors.Is(err, ErrStickyIO) {
		t.Fatalf("eviction's sticky loss not latched for fsync: %v", err)
	}
	dom.Synchronize()
	if alloc.InUse() != 0 {
		t.Fatalf("%d frames leaked", alloc.InUse())
	}
}
