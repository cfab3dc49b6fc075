package pagecache

import (
	"sync"
	"sync/atomic"
	"testing"

	"bonsai/internal/physmem"
	"bonsai/internal/rcu"
	"bonsai/internal/tlb"
)

func newTestCache(t *testing.T, cpus int) (*Cache, *physmem.Allocator, *rcu.Domain) {
	t.Helper()
	alloc := physmem.New(physmem.Config{Frames: 1 << 12, CPUs: cpus, Backing: true})
	dom := rcu.NewDomain(rcu.Options{})
	t.Cleanup(dom.Close)
	return New(7, "test.dat#7", alloc, dom, NewRegistry(alloc.NumFrames())), alloc, dom
}

// newTestTLB returns a zero-cost gather domain for reclaim scans.
func newTestTLB(alloc *physmem.Allocator, dom *rcu.Domain) *tlb.Domain {
	return tlb.NewDomain(alloc, dom, tlb.CostModel{})
}

// scan runs one ReclaimScan into a fresh gather of a zero-cost domain
// and flushes it, as the reclaimer does.
func scan(c *Cache, batch int, force bool) (evicted, written int) {
	g := newTestTLB(c.alloc, c.dom).Gather(0)
	evicted, written = c.ReclaimScan(nil, batch, force, g)
	g.Flush()
	return evicted, written
}

func TestFillLookupHit(t *testing.T) {
	c, alloc, _ := newTestCache(t, 1)
	var filled int
	pg, err := c.FindOrCreate(0, 3*physmem.PageSize, func(f physmem.Frame) {
		filled++
		alloc.Data(f)[0] = 0xAB
	})
	if err != nil {
		t.Fatal(err)
	}
	if filled != 1 || pg.Offset() != 3*physmem.PageSize {
		t.Fatalf("filled=%d off=%#x", filled, pg.Offset())
	}
	if alloc.Refs(pg.Frame()) != 1 {
		t.Fatalf("cache-owned frame has %d refs, want 1", alloc.Refs(pg.Frame()))
	}
	// Second resolve of the same page (any sub-page offset) is a hit.
	again, err := c.FindOrCreate(0, 3*physmem.PageSize+17, func(physmem.Frame) { filled++ })
	if err != nil {
		t.Fatal(err)
	}
	if again != pg || filled != 1 {
		t.Fatalf("hit returned a different page (filled=%d)", filled)
	}
	if got := c.Lookup(3 * physmem.PageSize); got != pg {
		t.Fatal("Lookup missed a resident page")
	}
	if c.Lookup(4*physmem.PageSize) != nil {
		t.Fatal("Lookup invented a page")
	}
	st := c.Stats()
	if st.Resident != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCoalesce checks that concurrent faulters on one absent page
// produce exactly one fill: the losers either hit lock-free or coalesce
// behind the winner's per-file mutex hold.
func TestCoalesce(t *testing.T) {
	const workers = 8
	c, _, _ := newTestCache(t, workers)
	var fills atomic.Int32
	var wg sync.WaitGroup
	pages := make([]*Page, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			pg, err := c.FindOrCreate(id, 0, func(physmem.Frame) { fills.Add(1) })
			if err != nil {
				t.Error(err)
				return
			}
			pages[id] = pg
		}(w)
	}
	wg.Wait()
	if fills.Load() != 1 {
		t.Fatalf("%d fills for one page", fills.Load())
	}
	for _, pg := range pages[1:] {
		if pg != pages[0] {
			t.Fatal("faulters resolved different pages")
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != workers-1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDropReleasesFrames: a Drop unlinks the pages in its range and
// returns all their frames in one RCU callback, after a grace period.
func TestDropReleasesFrames(t *testing.T) {
	c, alloc, dom := newTestCache(t, 1)
	var frames []physmem.Frame
	for i := uint64(0); i < 4; i++ {
		pg, err := c.FindOrCreate(0, i*physmem.PageSize, nil)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, pg.Frame())
	}
	pg := c.Lookup(2 * physmem.PageSize)
	// dropOne drops [lo, hi), which must hold want resident pages, with
	// one RCU callback.
	dropOne := func(lo, hi uint64, want int) {
		t.Helper()
		before := dom.Stats().Defers
		if n := c.Drop(lo, hi); n != want {
			t.Fatalf("Drop(%#x, %#x) removed %d, want %d", lo, hi, n, want)
		}
		if n := dom.Stats().Defers - before; n != 1 {
			t.Fatalf("a Drop of %d pages queued %d RCU callbacks, want 1", want, n)
		}
	}
	dropOne(physmem.PageSize, 3*physmem.PageSize, 2)
	if !pg.Deleted() {
		t.Fatal("dropped page not marked deleted")
	}
	if c.Lookup(physmem.PageSize) != nil || c.Lookup(2*physmem.PageSize) != nil {
		t.Fatal("dropped pages still resident")
	}
	if c.Lookup(0) == nil || c.Lookup(3*physmem.PageSize) == nil {
		t.Fatal("drop removed pages outside the range")
	}
	dom.Synchronize() // run the deferred reference drops
	if alloc.Allocated(frames[1]) || alloc.Allocated(frames[2]) {
		t.Fatal("dropped frames still allocated after a grace period")
	}
	if !alloc.Allocated(frames[0]) || !alloc.Allocated(frames[3]) {
		t.Fatal("resident frames were freed")
	}
	if n := alloc.InUse(); n != 2 {
		t.Fatalf("%d frames in use after dropping 2 of 4, want 2", n)
	}
	dropOne(0, MaxOffset, 2)
	dom.Synchronize()
	if alloc.InUse() != 0 {
		t.Fatalf("%d frames leaked", alloc.InUse())
	}
	if err := alloc.AuditBuddy(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyWriteback(t *testing.T) {
	c, _, _ := newTestCache(t, 1)
	for i := uint64(0); i < 3; i++ {
		pg, err := c.FindOrCreate(0, i*physmem.PageSize, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			pg.MarkDirty()
			pg.MarkDirty() // idempotent: one transition, one count
		}
	}
	if st := c.Stats(); st.DirtyPages != 2 {
		t.Fatalf("dirty=%d, want 2", st.DirtyPages)
	}
	var offs []uint64
	n, err := c.Writeback(func(off uint64, _ physmem.Frame) { offs = append(offs, off) })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(offs) != 2 {
		t.Fatalf("writeback cleaned %d (%v)", n, offs)
	}
	st := c.Stats()
	if st.DirtyPages != 0 || st.Writebacks != 2 {
		t.Fatalf("stats %+v", st)
	}
	if n, err := c.Writeback(nil); n != 0 || err != nil {
		t.Fatalf("second writeback: %d pages, err %v", n, err)
	}
}

// fakeOwner simulates an address space for rmap tests: a flat
// vaddr-to-frame "page table". Revocations feed the scan's gather like
// the real owner's.
type fakeOwner struct {
	alloc *physmem.Allocator
	mu    sync.Mutex
	ptes  map[uint64]physmem.Frame
}

func (o *fakeOwner) EvictPTE(g *tlb.Gather, vaddr uint64, inc Incarnation) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	f := inc.Frame()
	if o.ptes[vaddr] != f || !inc.Current() {
		return false
	}
	delete(o.ptes, vaddr)
	g.Page(vaddr, f)
	return true
}

// install faults off in as vaddr following the fault-path protocol:
// resolve, reference, AddMapping, install. owner is the identity the
// rmap records (it may wrap o, as evictingOwner does).
func (o *fakeOwner) install(t *testing.T, c *Cache, owner MappingOwner, vaddr, off uint64) *Page {
	t.Helper()
	pg, err := c.FindOrCreate(0, off, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.alloc.Ref(pg.Frame())
	if !pg.AddMapping(owner, vaddr) {
		t.Fatal("AddMapping failed on a live page")
	}
	o.mu.Lock()
	if o.ptes == nil {
		o.ptes = map[uint64]physmem.Frame{}
	}
	o.ptes[vaddr] = pg.Frame()
	o.mu.Unlock()
	return pg
}

// TestReclaimSecondChance: pages referenced since the last pass get one
// more pass; the next pass evicts them. Unmapped clean pages only.
func TestReclaimSecondChance(t *testing.T) {
	c, alloc, dom := newTestCache(t, 1)
	for i := uint64(0); i < 4; i++ {
		if _, err := c.FindOrCreate(0, i*physmem.PageSize, nil); err != nil {
			t.Fatal(err)
		}
	}
	if ev, _ := scan(c, 4, false); ev != 0 {
		t.Fatalf("first pass evicted %d referenced pages", ev)
	}
	ev, _ := scan(c, 4, false)
	if ev != 4 {
		t.Fatalf("second pass evicted %d, want 4", ev)
	}
	st := c.Stats()
	if st.Resident != 0 || st.Evictions != 4 {
		t.Fatalf("stats %+v", st)
	}
	dom.Synchronize()
	if alloc.InUse() != 0 {
		t.Fatalf("%d frames still allocated after eviction", alloc.InUse())
	}
	// Refilling an evicted offset counts as a refault.
	if _, err := c.FindOrCreate(0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Refaults != 1 {
		t.Fatalf("refaults = %d, want 1", st.Refaults)
	}
}

// TestReclaimUnmapsViaRmap: evicting a mapped page revokes every PTE
// through the reverse map and releases both the mapping references and
// the cache's own reference.
func TestReclaimUnmapsViaRmap(t *testing.T) {
	c, alloc, dom := newTestCache(t, 1)
	a := &fakeOwner{alloc: alloc}
	b := &fakeOwner{alloc: alloc}
	pg := a.install(t, c, a, 0x1000, 0)
	if got := b.install(t, c, b, 0x7000, 0); got != pg {
		t.Fatal("owners resolved different pages")
	}
	if pg.Mapped() != 2 {
		t.Fatalf("rmap has %d entries, want 2", pg.Mapped())
	}
	if refs := alloc.Refs(pg.Frame()); refs != 3 {
		t.Fatalf("frame refs = %d, want 3 (cache + 2 PTEs)", refs)
	}
	tl := newTestTLB(alloc, dom)
	g := tl.Gather(0)
	ev, _ := c.ReclaimScan(nil, 1, true, g)
	g.Flush()
	if ev != 1 {
		t.Fatalf("evicted=%d, want 1", ev)
	}
	// Both PTEs were revoked through one batch: a single flush covered
	// two pages, where the per-page pipeline paid one shootdown each.
	if st := tl.Stats(); st.Flushes != 1 || st.PagesFlushed != 2 {
		t.Fatalf("tlb stats %+v, want 1 flush covering 2 pages", st)
	}
	if len(a.ptes) != 0 || len(b.ptes) != 0 {
		t.Fatal("eviction left PTEs installed")
	}
	if !pg.Deleted() || c.Lookup(0) != nil {
		t.Fatal("evicted page still resident")
	}
	dom.Synchronize()
	if alloc.InUse() != 0 {
		t.Fatalf("%d frames leaked", alloc.InUse())
	}
	// The page is gone from the cache: AddMapping on the stale pointer
	// must fail (the fault path's retry signal).
	fresh, err := c.FindOrCreate(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == pg {
		t.Fatal("refault returned the evicted page object")
	}
	if pg.AddMapping(a, 0x1000) {
		t.Fatal("AddMapping succeeded on an evicted page")
	}
}

// TestEvictWritebackRoundTrip: a dirty page is written back before
// eviction and its contents come back from the store on refault.
func TestEvictWritebackRoundTrip(t *testing.T) {
	c, alloc, dom := newTestCache(t, 1)
	pg, err := c.FindOrCreate(0, 0, func(f physmem.Frame) { alloc.Data(f)[0] = 0x11 })
	if err != nil {
		t.Fatal(err)
	}
	alloc.Data(pg.Frame())[0] = 0x22 // a store through a shared mapping
	pg.MarkDirty()
	ev, written := scan(c, 1, true)
	if ev != 1 || written != 1 {
		t.Fatalf("evicted=%d written=%d, want 1/1", ev, written)
	}
	dom.Synchronize()
	again, err := c.FindOrCreate(0, 0, func(f physmem.Frame) { alloc.Data(f)[0] = 0x11 })
	if err != nil {
		t.Fatal(err)
	}
	if got := alloc.Data(again.Frame())[0]; got != 0x22 {
		t.Fatalf("refaulted page byte = %#x, want the written-back %#x", got, 0x22)
	}
	st := c.Stats()
	if st.Writebacks != 1 || st.Refaults != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// evictingOwner re-adds a mapping from inside EvictPTE — standing in
// for a faulter that refaults the page between the scan's revocation
// phase and its bookkeeping phase. The generation protocol must abort
// the eviction and keep the re-added mapping's rmap entry.
type evictingOwner struct {
	fakeOwner
	c       *Cache
	pg      *Page
	readded bool
}

func (o *evictingOwner) EvictPTE(g *tlb.Gather, vaddr uint64, inc Incarnation) bool {
	ok := o.fakeOwner.EvictPTE(g, vaddr, inc)
	f := inc.Frame()
	if ok && !o.readded {
		o.readded = true
		// The "refault": reference, AddMapping, reinstall — on a page
		// that is not yet deleted (phase 3 has not run).
		o.alloc.Ref(f)
		if !o.pg.AddMapping(o, vaddr) {
			o.alloc.FreeRemote(f)
			return ok
		}
		o.mu.Lock()
		o.ptes[vaddr] = f
		o.mu.Unlock()
	}
	return ok
}

// TestEvictAbortOnRefault: a mapping re-added after the snapshot (a
// refault racing the scan) must abort the eviction — the page stays
// resident and the new rmap entry survives.
func TestEvictAbortOnRefault(t *testing.T) {
	c, alloc, dom := newTestCache(t, 1)
	o := &evictingOwner{fakeOwner: fakeOwner{alloc: alloc}, c: c}
	o.pg = o.install(t, c, o, 0x1000, 0)
	tl := newTestTLB(alloc, dom)
	g := tl.Gather(0)
	ev, _ := c.ReclaimScan(nil, 1, true, g)
	g.Flush()
	if ev != 0 {
		t.Fatalf("evicted %d, want the refault to abort the eviction", ev)
	}
	if st := c.Stats(); st.EvictAborts != 1 || st.Resident != 1 {
		t.Fatalf("stats %+v", st)
	}
	if c.Lookup(0) != o.pg {
		t.Fatal("aborted eviction removed the page")
	}
	if o.pg.Mapped() != 1 {
		t.Fatalf("rmap has %d entries, want the re-added mapping", o.pg.Mapped())
	}
	// The re-added mapping is live: a later scan (no further refault)
	// evicts it cleanly.
	o.readded = true // suppress the re-add
	g = tl.Gather(0)
	if ev, _ := c.ReclaimScan(nil, 1, true, g); ev != 1 {
		t.Fatalf("follow-up scan evicted %d, want 1", ev)
	}
	g.Flush()
	dom.Synchronize()
	if alloc.InUse() != 0 {
		t.Fatalf("%d frames leaked", alloc.InUse())
	}
}

// remappingOwner zaps and refaults the slot from inside EvictPTE,
// before the revocation — standing in for a munmap, a new mapping of
// the same file page at the same address and a fault on it, all between
// the scan's snapshot and its revocation phase. The slot maps the same
// frame again, as a newer rmap incarnation.
type remappingOwner struct {
	fakeOwner
	t        *testing.T
	c        *Cache
	remapped bool
}

func (o *remappingOwner) EvictPTE(g *tlb.Gather, vaddr uint64, inc Incarnation) bool {
	if !o.remapped {
		o.remapped = true
		// The zap: clear the entry and its rmap entry under the "PTE
		// lock", and drop the mapping's reference.
		o.mu.Lock()
		delete(o.ptes, vaddr)
		o.mu.Unlock()
		inc.pg.RemoveMapping(o, vaddr)
		o.alloc.FreeRemote(inc.Frame())
		// The refault, through the fault path's protocol.
		o.install(o.t, o.c, o, vaddr, inc.pg.off)
	}
	return o.fakeOwner.EvictPTE(g, vaddr, inc)
}

// TestEvictSparesRefaultedSlot: a slot zapped and refaulted onto the
// same page between the scan's snapshot and its revocation is a new
// mapping; the scan must not revoke it (it would leave the page's rmap
// naming a PTE that is gone, and the page one reference short), and
// the eviction aborts.
func TestEvictSparesRefaultedSlot(t *testing.T) {
	c, alloc, dom := newTestCache(t, 1)
	o := &remappingOwner{fakeOwner: fakeOwner{alloc: alloc}, t: t, c: c}
	pg := o.install(t, c, o, 0x1000, 0)
	tl := newTestTLB(alloc, dom)
	g := tl.Gather(0)
	if ev, _ := c.ReclaimScan(nil, 1, true, g); ev != 0 {
		t.Fatalf("evicted %d, want the refault to abort the eviction", ev)
	}
	g.Flush()
	dom.Synchronize()
	if _, mapped := o.ptes[0x1000]; !mapped || !pg.MappedBy(o, 0x1000) {
		t.Fatalf("after the scan: PTE present %v, rmap entry %v — the refaulted mapping was revoked", mapped, pg.MappedBy(o, 0x1000))
	}
	if refs := alloc.Refs(pg.Frame()); refs != 2 {
		t.Fatalf("frame holds %d references, want 2 (cache + the refaulted mapping)", refs)
	}
	if err := c.Audit(func(owner MappingOwner, vaddr uint64) (physmem.Frame, bool) {
		f, ok := o.ptes[vaddr]
		return f, ok
	}); err != nil {
		t.Fatal(err)
	}
	// Unmap it for the leak check.
	delete(o.ptes, 0x1000)
	pg.RemoveMapping(o, 0x1000)
	alloc.FreeRemote(pg.Frame())
}

// readers resolve a page, take a frame reference inside an RCU read
// section, and re-check the mark — exactly the fault path's protocol —
// while a dropper continuously removes and refills the page. The frame
// state bitmap turns any premature free into a panic.
func TestLookupRefDuringDrop(t *testing.T) {
	const readers = 4
	c, alloc, dom := newTestCache(t, readers+1)
	const rounds = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rd := dom.Register()
			defer dom.Unregister(rd)
			for {
				select {
				case <-stop:
					return
				default:
				}
				rd.Lock()
				pg, err := c.FindOrCreate(id, 0, nil)
				if err != nil {
					t.Error(err)
					rd.Unlock()
					return
				}
				alloc.Ref(pg.Frame())
				if pg.Deleted() {
					// Dropped under us: the reference must be returned.
					alloc.FreeRemote(pg.Frame())
					rd.Unlock()
					continue
				}
				rd.Unlock()
				// Simulate the mapping life cycle: drop the PTE ref.
				alloc.FreeRemote(pg.Frame())
			}
		}(w)
	}
	for i := 0; i < rounds; i++ {
		c.Drop(0, physmem.PageSize)
	}
	close(stop)
	wg.Wait()
	c.DropAll()
	dom.Synchronize()
	if alloc.InUse() != 0 {
		t.Fatalf("%d frames leaked", alloc.InUse())
	}
}

// TestEvictionReleasesAfterScanFlush: an evicted page's frame — the
// cache's own reference as much as its revoked PTEs' — is released by
// the scan gather's flush and the grace period after it, never by a
// grace period that completes between the scan and the flush. Before
// the flush the shootdown has not been paid, so a stale translation to
// the frame may still be cached; the domain is in manual mode so the
// test decides when grace periods run.
func TestEvictionReleasesAfterScanFlush(t *testing.T) {
	alloc := physmem.New(physmem.Config{Frames: 1 << 10, CPUs: 1, Backing: true})
	dom := rcu.NewDomain(rcu.Options{BatchSize: -1})
	t.Cleanup(dom.Close)
	ac := physmem.NewAccount("t", 0)
	alloc.BindAccount(0, ac)
	c := New(7, "test.dat#7", alloc, dom, NewRegistry(alloc.NumFrames()))

	o := &fakeOwner{alloc: alloc}
	mapped := o.install(t, c, o, 0x1000, 0).Frame()
	pg, err := c.FindOrCreate(0, physmem.PageSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	unmapped := pg.Frame()
	if ac.Charged() != 2 {
		t.Fatalf("charged %d frames, want 2", ac.Charged())
	}

	g := newTestTLB(alloc, dom).Gather(0)
	if ev, _ := c.ReclaimScan(nil, 2, true, g); ev != 2 {
		t.Fatalf("evicted %d, want 2", ev)
	}
	dom.Synchronize() // a grace period ends before the scan's shootdown
	if refs := alloc.Refs(mapped); refs != 2 {
		t.Errorf("mapped frame holds %d references before the flush, want 2 (cache + revoked PTE)", refs)
	}
	if !alloc.Allocated(unmapped) {
		t.Error("unmapped evicted frame freed before the scan's flush")
	}
	if ac.Charged() != 2 {
		t.Errorf("charged %d frames before the flush, want 2", ac.Charged())
	}

	g.Flush()
	dom.Synchronize()
	if alloc.Allocated(mapped) || alloc.Allocated(unmapped) {
		t.Error("evicted frames still allocated after the flush and a grace period")
	}
	if ac.Charged() != 0 || alloc.InUse() != 0 {
		t.Errorf("after the flush: charged %d, in use %d, want 0 and 0", ac.Charged(), alloc.InUse())
	}
}
