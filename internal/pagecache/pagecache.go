// Package pagecache implements a per-file page cache: the radix-keyed
// map from file page offsets to physical frames that lets every address
// space mapping a file share one frame per page, the way the kernel's
// struct address_space does. The paper stops short of this — its
// implementation "handles file-backed and COW faults by retrying with
// the lock held" (§6) — so this package extends the paper's RCU-lookup
// discipline from the region index to the file layer: lookups are
// lock-free RCU reads validated by a per-page deleted mark (the same
// double-check shape as §5.2's VMA check), while inserts and removals
// serialize on one per-file mutex.
//
// Frame ownership rules:
//
//   - The cache holds one physmem reference for every resident page,
//     taken at fill time (the frame is allocated with refcount 1, owned
//     by the cache).
//   - Every page-table entry mapping a cached frame holds one further
//     reference, taken by the faulting CPU before it installs the PTE
//     and dropped by the unmap/zap path (munmap, madvise(DONTNEED),
//     mprotect-replacement zaps, address-space teardown) through the
//     zap's TLB gather: batched, after the revoking flush and an RCU
//     grace period.
//   - Drop removes pages from the cache and releases the cache's own
//     reference after a grace period, so a concurrent lock-free faulter
//     that found the page can still safely take its mapping reference
//     inside its read-side critical section. Eviction releases it the
//     same way, but through the scan's TLB gather (below).
//
// Lookup/FindOrCreate callers MUST therefore be inside an RCU read-side
// critical section of the cache's domain: the grace period is what
// keeps the returned page's frame allocated (refcount held) long enough
// for the caller to take its own reference and run the deleted-mark
// double check.
//
// Reclaim: every page carries a reverse map — the set of (owner, vaddr)
// PTEs mapping it, maintained under the page's own rmap mutex by the
// VM fault and zap paths (per page, not per file, so concurrent
// installs of different pages never contend) — plus an accessed bit
// the lock-free lookup paths set. The reverse map is two inline slots
// and an overflow map made only for a third mapping, so installing and
// zapping a page's usual one or two mappings compares words and
// allocates nothing. ReclaimScan uses them to run a clock/second-chance
// eviction pass: revoke each candidate's PTEs through the rmap (no
// cache mutex held, so the lock order against faulting — PTE lock, then
// cache/rmap mutex — is never inverted), write dirty pages back to the
// cache's store, and unlink the page like Drop. Everything the scan
// releases goes into the caller's TLB gather (internal/tlb): first the
// revoked PTEs' frame references, then each evicted page's own cache
// reference. The caller's one flush pays one shootdown for the batch
// and only then queues one RCU callback that returns every frame in one
// FreeBatch, so no evicted frame is reusable before its shootdown.
// Rmap entries are generation-stamped so the scan's deferred
// bookkeeping can never delete an entry a concurrent refault re-added
// for the same (owner, vaddr) slot.
package pagecache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bonsai/internal/contention"
	"bonsai/internal/fail"
	"bonsai/internal/physmem"
	"bonsai/internal/rcu"
	"bonsai/internal/stats"
	"bonsai/internal/tlb"
	"bonsai/internal/trace"
)

// I/O error taxonomy. ErrIO is the base every simulated device error
// wraps, so errors.Is(err, ErrIO) identifies any cache I/O failure.
// The two writeback flavors model the split a real block layer forces
// on the kernel:
//
//   - ErrWritebackIO is retryable: the write never reached the device,
//     the page stays dirty and resident, and a later writeback (or the
//     eviction scan) tries again. Nothing is lost.
//   - ErrStickyIO is a sticky media failure: the page was cleaned but
//     its contents did not reach the store, so the data is gone. The
//     error latches on the cache and the next Writeback — the fsync of
//     this system — reports it exactly once (errseq_t/AS_EIO
//     semantics), because a caller that never hears about the loss
//     would conclude its data was durable.
var (
	ErrIO          = errors.New("pagecache: I/O error")
	ErrFillIO      = fmt.Errorf("read fill: %w", ErrIO)
	ErrWritebackIO = fmt.Errorf("writeback (retryable): %w", ErrIO)
	ErrStickyIO    = fmt.Errorf("writeback (sticky, data dropped): %w", ErrIO)
)

// Failpoints (armed only by fault injection; see internal/fail).
var (
	failFill     = fail.NewPoint("pagecache.fill")
	failWBRetry  = fail.NewPoint("pagecache.wb-retryable")
	failWBSticky = fail.NewPoint("pagecache.wb-sticky")
)

// Radix geometry: like the page-table tree, 512-way nodes over the file
// page index (offset >> 12). Five levels cover 57-bit byte offsets,
// comfortably beyond the 48-bit address space a mapping can span.
const (
	pageShift = 12
	entryBits = 9
	fanout    = 1 << entryBits
	levels    = 5
	// MaxOffset is one past the highest cacheable file byte offset.
	MaxOffset = uint64(1) << (pageShift + levels*entryBits)
)

// MappingOwner is the address-space side of a reverse mapping: the VM
// layer implements it so eviction can revoke the PTE at vaddr if it
// still maps f. EvictPTE runs with no cache mutex held; it takes the
// owner's PTE lock, compares the installed frame against f, clears the
// entry on a match, and records the revoked translation in g — the
// scan's batch gather, whose flush (paid once per batch by the reclaim
// driver) charges the shootdown and retires the cleared mapping's
// frame reference past a grace period.
type MappingOwner interface {
	EvictPTE(g *tlb.Gather, vaddr uint64, f physmem.Frame) bool
}

// Page is one resident file page. Its frame is stable for the Page's
// lifetime; the deleted mark is set (under the page's rmap mutex) when
// the page is dropped or evicted, and is what lock-free faulters
// double-check after taking their mapping reference.
type Page struct {
	cache   *Cache
	off     uint64 // page-aligned byte offset in the file
	frame   physmem.Frame
	dirty   atomic.Bool
	deleted atomic.Bool

	// accessed is the clock algorithm's reference bit: set by the
	// lock-free lookup paths, cleared (one second chance) by the scan.
	accessed atomic.Bool

	// rmapMu guards rmap, rmapGen, and every deleted *transition* (the
	// atomic is for lock-free observers). It is per page — the PTE
	// install fast path takes it, and a per-file lock there would
	// re-serialize the very faults the lock-free cache exists to keep
	// disjoint (the kernel keys rmap locking per page for the same
	// reason). Innermost lock level: taken under PTE locks (fault and
	// zap paths) and under the cache mutex (Drop and the reclaim scan's
	// bookkeeping); never the other way around.
	rmapMu sync.Mutex

	// rmap holds each PTE mapping this page with the generation at
	// which it was added (two inline slots, an overflow map only for a
	// third mapping; see rmapSet). The generation lets the reclaim scan
	// delete exactly the incarnation it revoked: a refault that re-adds
	// the same (owner, vaddr) slot gets a fresh generation, so the
	// scan's deferred delete leaves it alone.
	rmap    rmapSet
	rmapGen uint64
}

// Frame returns the physical frame backing the page.
func (p *Page) Frame() physmem.Frame { return p.frame }

// Offset returns the page's byte offset in the file.
func (p *Page) Offset() uint64 { return p.off }

// Deleted reports whether the page has been dropped from the cache.
// Faulters check this after taking a frame reference; a set mark means
// the reference must be returned and the fault retried.
func (p *Page) Deleted() bool { return p.deleted.Load() }

// Dirty reports whether the page has been written through a shared
// mapping since the last writeback.
func (p *Page) Dirty() bool { return p.dirty.Load() }

// MarkDirty records a store through a shared mapping. Safe from any
// goroutine; the cache's dirty-page counter tracks transitions.
func (p *Page) MarkDirty() {
	if !p.dirty.Swap(true) {
		p.cache.dirtyPages.Add(1)
	}
}

// touch sets the clock reference bit, loading first so the hot fault
// path usually avoids writing a shared cache line.
func (p *Page) touch() {
	if !p.accessed.Load() {
		p.accessed.Store(true)
	}
}

// AddMapping records that owner's PTE at vaddr maps this page. It
// must be called by the faulting CPU after taking its frame reference
// and before installing the PTE (both under the leaf PTE lock); the
// deleted check under the page's rmap mutex subsumes the lock-free
// lookup's deleted-mark double check. A false return means the page
// was dropped or evicted after the lookup: the caller must return its
// frame reference and retry the fault.
func (p *Page) AddMapping(owner MappingOwner, vaddr uint64) bool {
	p.rmapMu.Lock()
	defer p.rmapMu.Unlock()
	if p.deleted.Load() {
		return false
	}
	p.rmapGen++
	p.rmap.set(mapping{owner, vaddr}, p.rmapGen)
	return true
}

// RemoveMapping drops the rmap entry for (owner, vaddr). The zap paths
// call it inside the PTE lock that cleared the entry, which orders the
// removal before any refault can re-add the same slot; it is idempotent
// against the reclaim scan removing the entry it revoked.
func (p *Page) RemoveMapping(owner MappingOwner, vaddr uint64) {
	p.rmapMu.Lock()
	p.rmap.remove(mapping{owner, vaddr}, 0)
	p.rmapMu.Unlock()
}

// Mapped returns the number of PTEs currently reverse-mapped (for
// tests and stats snapshots).
func (p *Page) Mapped() int {
	p.rmapMu.Lock()
	defer p.rmapMu.Unlock()
	return p.rmap.len()
}

// MappedBy reports whether owner's PTE at vaddr is registered in the
// page's reverse map (the audit and torture harnesses' rmap↔PTE
// cross-check).
func (p *Page) MappedBy(owner MappingOwner, vaddr uint64) bool {
	p.rmapMu.Lock()
	defer p.rmapMu.Unlock()
	return p.rmap.get(mapping{owner, vaddr}) != 0
}

// markDeletedLocked sets the deleted mark under the rmap mutex, so it
// is ordered against AddMapping's check. The caller holds the cache
// mutex (Drop and the reclaim scan's bookkeeping phase).
func (p *Page) markDeletedLocked() {
	p.rmapMu.Lock()
	p.deleted.Store(true)
	p.rmapMu.Unlock()
}

// node is one radix level. Level 1 nodes hold pages; higher levels hold
// child nodes. Slots are atomic pointers so lock-free readers descend
// with plain loads; all stores happen under the cache mutex.
type node struct {
	level int
	kids  []atomic.Pointer[node] // level > 1
	pages []atomic.Pointer[Page] // level == 1
}

func newNode(level int) *node {
	n := &node{level: level}
	if level == 1 {
		n.pages = make([]atomic.Pointer[Page], fanout)
	} else {
		n.kids = make([]atomic.Pointer[node], fanout)
	}
	return n
}

// slot returns the node's slot index for the given byte offset.
func (n *node) slot(off uint64) int {
	return int(off>>(pageShift+uint(n.level-1)*entryBits)) & (fanout - 1)
}

// Registry maps physical frames back to the resident cache page
// occupying them, machine-wide (one Registry per frame allocator,
// shared by every cache on the machine). The VM zap and COW-break
// paths use it to find the page whose rmap entry a cleared PTE was:
// they run address-first, after the owning VMA may already be gone.
// Slots are atomic so the lookup is lock-free; set/clear happen under
// the owning cache's mutex at fill and drop/evict time. A non-nil
// lookup is exact: a frame cannot be recycled into a new page while
// any PTE (which holds a frame reference) still maps it.
type Registry struct {
	pages []atomic.Pointer[Page]
}

// NewRegistry returns a registry for an allocator with the given
// number of frames (physmem.Allocator.NumFrames).
func NewRegistry(frames uint64) *Registry {
	return &Registry{pages: make([]atomic.Pointer[Page], frames+1)}
}

// Lookup returns the resident page whose frame is f, or nil.
func (r *Registry) Lookup(f physmem.Frame) *Page {
	if r == nil || f == physmem.NoFrame || uint64(f) >= uint64(len(r.pages)) {
		return nil
	}
	return r.pages[f].Load()
}

func (r *Registry) set(f physmem.Frame, pg *Page) {
	if r != nil {
		r.pages[f].Store(pg)
	}
}

func (r *Registry) clear(f physmem.Frame) {
	if r != nil {
		r.pages[f].Store(nil)
	}
}

// Cache is the page cache of one file. Lookups are lock-free (callers
// hold an RCU read section); FindOrCreate's miss path, Drop/Writeback,
// and the reclaim scan's bookkeeping phases serialize on mu.
type Cache struct {
	fileID uint64
	label  string
	site   string // contention-profiler site name, "pagecache:"+label
	alloc  *physmem.Allocator
	dom    *rcu.Domain
	reg    *Registry

	mu   sync.Mutex // serializes fills, drops, writeback, and eviction bookkeeping
	root *node

	// clockHand is the next byte offset the eviction scan examines
	// (guarded by mu); the scan wraps around the resident set.
	clockHand uint64

	// clockHands holds the per-account clock hands of tenant-local
	// scans (guarded by mu). Each account sweeps its own pages at its
	// own pace: an over-limit tenant's scan neither advances the global
	// hand nor steals second chances from its neighbors' pages.
	clockHands map[*physmem.Account]uint64

	// cands and snap are the reclaim scan's working memory, reused from
	// scan to scan: one batch's candidates and one flat snapshot of their
	// reverse maps (candidate i's entries are snap[cands[i].lo:cands[i].hi]).
	// The scan lock every ReclaimScan caller holds guards them, not mu:
	// the revocation phase reads them with mu released.
	cands []scanCandidate
	snap  []rmapEntry

	// evictedOffs tracks offsets removed by eviction (not Drop) so the
	// next fill of the same page counts as a refault. Guarded by mu.
	evictedOffs map[uint64]struct{}

	// store is the simulated backing store: writeback copies dirty page
	// contents here (when frames carry data), and fills read it back,
	// so an evicted dirty page round-trips instead of losing stores.
	// Guarded by mu.
	store map[uint64]*[physmem.PageSize]byte

	// wbErr is the per-file sticky-error latch (errseq_t): set when a
	// writeback drops data on a sticky device error, reported and
	// cleared by the next Writeback call. Guarded by mu.
	wbErr error

	resident    atomic.Int64
	hits        stats.Counter // per-CPU (allocator magazine index): the fault hot path
	misses      atomic.Uint64 // fills: faults that populated the cache
	coalesced   atomic.Uint64 // faulters that waited out a concurrent fill
	dropped     atomic.Uint64
	dirtyPages  atomic.Int64
	writebacks  atomic.Uint64
	evictions   atomic.Uint64
	evictAborts atomic.Uint64 // candidates that were refaulted mid-scan
	refaults    atomic.Uint64 // fills of previously evicted pages

	fillErrs     atomic.Uint64 // fills failed by an injected read error
	wbErrsRetry  atomic.Uint64 // retryable writeback failures (page kept dirty)
	wbErrsSticky atomic.Uint64 // sticky writeback failures (data dropped, latched)
}

// New returns an empty cache for the file with the given stable ID and
// display label. Frames come from alloc; drops defer their frees
// through dom. reg, when non-nil, is the machine-wide frame-to-page
// registry the cache keeps current for the VM layer's zap paths.
func New(fileID uint64, label string, alloc *physmem.Allocator, dom *rcu.Domain, reg *Registry) *Cache {
	return &Cache{fileID: fileID, label: label, site: "pagecache:" + label,
		alloc: alloc, dom: dom, reg: reg, root: newNode(levels),
		hits: stats.NewCounter(alloc.NumCPUs())}
}

// lock acquires the cache mutex through the contention profiler, so an
// armed introspection server attributes waits to this file. Disarmed
// it is one atomic load on top of the plain Lock.
func (c *Cache) lock() { contention.Lock(&c.mu, c.site) }

// Label returns the file's display label (name#id).
func (c *Cache) Label() string { return c.label }

// SameAllocator reports whether the cache's frames come from a. The VM
// layer uses it to reject mapping a file whose cache belongs to a
// different simulated machine.
func (c *Cache) SameAllocator(a *physmem.Allocator) bool { return c.alloc == a }

func checkOffset(off uint64) {
	if off >= MaxOffset {
		panic(fmt.Sprintf("pagecache: offset %#x beyond %d-bit cache", off, pageShift+levels*entryBits))
	}
}

// lookup descends to the page at off with plain atomic loads. off is
// page-aligned by masking.
func (c *Cache) lookup(off uint64) *Page {
	n := c.root
	for n.level > 1 {
		n = n.kids[n.slot(off)].Load()
		if n == nil {
			return nil
		}
	}
	return n.pages[n.slot(off)].Load()
}

// Lookup returns the resident page covering off, or nil on a miss. The
// caller must be inside an RCU read-side critical section of the
// cache's domain, and must re-check Deleted after taking its own frame
// reference (see the package comment's ownership rules).
func (c *Cache) Lookup(off uint64) *Page {
	checkOffset(off)
	pg := c.lookup(off &^ (physmem.PageSize - 1))
	if pg == nil || pg.Deleted() {
		return nil
	}
	pg.touch()
	return pg
}

// FindOrCreate returns the page covering off, filling it if absent:
// fill receives the freshly allocated frame and initializes its
// contents. The hit path is the lock-free Lookup; the miss path
// serializes on the per-file mutex, so concurrent faulters on the same
// page coalesce — the losers block briefly and then find the winner's
// page instead of double-filling. cpu selects the allocator magazine
// for the fill. Callers must be inside an RCU read-side critical
// section (see Lookup).
func (c *Cache) FindOrCreate(cpu int, off uint64, fill func(physmem.Frame)) (*Page, error) {
	checkOffset(off)
	off &^= physmem.PageSize - 1
	if pg := c.lookup(off); pg != nil && !pg.Deleted() {
		c.hits.Add(cpu, 1)
		pg.touch()
		return pg, nil
	}
	c.lock()
	if pg := c.lookup(off); pg != nil && !pg.Deleted() {
		// A concurrent faulter filled the page while we waited.
		c.mu.Unlock()
		c.coalesced.Add(1)
		pg.touch()
		return pg, nil
	}
	if failFill.Fire() {
		// Injected read failure: the backing device could not deliver
		// the page. Typed ErrFillIO so the VM layer reports it as an
		// I/O fault (SIGBUS territory), never as memory exhaustion.
		c.mu.Unlock()
		c.fillErrs.Add(1)
		return nil, ErrFillIO
	}
	frame, err := c.alloc.Alloc(cpu)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	// A page that was evicted comes back from the backing store (its
	// last writeback), not from fill's pristine contents — the round
	// trip is what makes eviction of dirty pages lossless — and fill
	// is skipped entirely: the store supersedes it, and both copies
	// run under the cache mutex every fault miss contends on.
	if buf := c.store[off]; buf != nil && c.alloc.Backed() {
		*c.alloc.Data(frame) = *buf
	} else if fill != nil {
		fill(frame)
	}
	if _, evicted := c.evictedOffs[off]; evicted {
		delete(c.evictedOffs, off)
		c.refaults.Add(1)
	}
	pg := &Page{cache: c, off: off, frame: frame}
	pg.accessed.Store(true)
	c.insertLocked(off, pg)
	c.reg.set(frame, pg)
	c.resident.Add(1)
	c.mu.Unlock()
	c.misses.Add(1)
	return pg, nil
}

// insertLocked publishes pg at off, growing the radix path as needed.
// The cache mutex is held; missing nodes are built and then published
// with one atomic store each, so lock-free readers see either nothing
// or a fully formed path.
func (c *Cache) insertLocked(off uint64, pg *Page) {
	n := c.root
	for n.level > 1 {
		slot := n.slot(off)
		next := n.kids[slot].Load()
		if next == nil {
			next = newNode(n.level - 1)
			n.kids[slot].Store(next)
		}
		n = next
	}
	n.pages[n.slot(off)].Store(pg)
}

// Drop removes every resident page with byte offset in [lo, hi) and
// returns how many were removed. Each page is marked deleted, unlinked,
// and its cache-owned frame reference released only after an RCU grace
// period — a lock-free faulter that found the page before the drop can
// still take its mapping reference safely inside its read section (its
// deleted-mark double check then sends it back for a retry).
//
// Dropping does not zap page-table entries: like removing a page from
// the kernel's page cache, existing mappings keep their frames (and
// their references) until they are unmapped.
func (c *Cache) Drop(lo, hi uint64) int {
	if hi > MaxOffset {
		hi = MaxOffset
	}
	if lo >= hi {
		return 0
	}
	c.lock()
	defer c.mu.Unlock()
	dropped := 0
	c.walkLocked(c.root, func(n *node, slot int, pg *Page) {
		if pg.off < lo || pg.off >= hi {
			return
		}
		pg.markDeletedLocked()
		n.pages[slot].Store(nil)
		if pg.dirty.Swap(false) {
			c.dirtyPages.Add(-1)
		}
		frame := pg.frame
		c.reg.clear(frame)
		c.dom.Defer(func() { c.alloc.FreeRemote(frame) })
		dropped++
	})
	// Truncate semantics extend to the backing store and the refault
	// tracking: a fill after a Drop is a fresh page, never a resurrected
	// pre-truncate copy, and never counts as a refault.
	for off := range c.store {
		if off >= lo && off < hi {
			delete(c.store, off)
		}
	}
	for off := range c.evictedOffs {
		if off >= lo && off < hi {
			delete(c.evictedOffs, off)
		}
	}
	c.resident.Add(int64(-dropped))
	c.dropped.Add(uint64(dropped))
	return dropped
}

// DropAll removes every resident page (teardown, or a simulated
// truncate to zero).
func (c *Cache) DropAll() int { return c.Drop(0, MaxOffset) }

// Writeback clears the dirty mark of every dirty page that has no
// live mappings, copying its contents into the cache's backing store
// (when frames carry data) and invoking wb (if non-nil) with each
// page's offset and frame — the hook a real device queue would write
// from. Pages with reverse mappings are skipped: their PTEs may be
// writable, so cleaning them here would break the writable-implies-
// dirty invariant eviction's writeback relies on (a store landing
// after the clean would be discarded by a later eviction). A real
// kernel write-protects PTEs to clean mapped pages; in this system
// mapped dirty pages are written back when they are reclaimed — whose
// scan revokes the PTEs first — or once unmapped.
//
// Writeback is this system's fsync: it returns the number of pages
// written back and any device error owed to the caller — a retryable
// failure from this pass (the page stays dirty for the next call), or
// a sticky data-loss error latched by any earlier writeback, including
// eviction's. A latched sticky error is reported exactly once and then
// cleared, the kernel's errseq_t discipline: every fsync caller since
// the error hears about it once, and none can miss a silent data drop.
func (c *Cache) Writeback(wb func(off uint64, frame physmem.Frame)) (int, error) {
	c.lock()
	defer c.mu.Unlock()
	written := 0
	var retryErr error
	c.walkLocked(c.root, func(_ *node, _ int, pg *Page) {
		if pg.Mapped() > 0 {
			return
		}
		wrote, err := c.writebackLocked(pg)
		if err != nil && retryErr == nil && !errors.Is(err, ErrStickyIO) {
			retryErr = err // sticky errors are latched in wbErr; report those below
		}
		if !wrote {
			return
		}
		if wb != nil {
			wb(pg.off, pg.frame)
		}
		written++
	})
	err := c.wbErr
	c.wbErr = nil // reported once; the latch re-arms on the next sticky failure
	if err == nil {
		err = retryErr
	}
	return written, err
}

// writebackLocked cleans one page under the cache mutex, persisting
// its contents into the store when frames are backed. It reports
// whether the page was written back, with the error taxonomy of the
// package comment: on ErrWritebackIO the page is untouched (still
// dirty, still resident — retry later); on ErrStickyIO the page was
// cleaned but its contents dropped, and the cache's error latch is set
// for the next Writeback to report.
func (c *Cache) writebackLocked(pg *Page) (bool, error) {
	if !pg.dirty.Load() {
		return false, nil
	}
	if failWBRetry.Fire() {
		c.wbErrsRetry.Add(1)
		trace.Emit(trace.AuxCPU, trace.EvWriteback, c.fileID, pg.off/physmem.PageSize, 1)
		return false, ErrWritebackIO
	}
	if !pg.dirty.Swap(false) {
		return false, nil
	}
	c.dirtyPages.Add(-1)
	if failWBSticky.Fire() {
		c.wbErrsSticky.Add(1)
		c.wbErr = ErrStickyIO
		trace.Emit(trace.AuxCPU, trace.EvWriteback, c.fileID, pg.off/physmem.PageSize, 1)
		return false, ErrStickyIO
	}
	if c.alloc.Backed() {
		if c.store == nil {
			c.store = make(map[uint64]*[physmem.PageSize]byte)
		}
		buf := c.store[pg.off]
		if buf == nil {
			buf = new([physmem.PageSize]byte)
			c.store[pg.off] = buf
		}
		*buf = *c.alloc.Data(pg.frame)
	}
	c.writebacks.Add(1)
	trace.Emit(trace.AuxCPU, trace.EvWriteback, c.fileID, pg.off/physmem.PageSize, 0)
	return true, nil
}

// unlinkLocked clears the radix slot of off (the page must be resident;
// the caller holds the cache mutex and has marked it deleted).
func (c *Cache) unlinkLocked(off uint64) {
	n := c.root
	for n.level > 1 {
		n = n.kids[n.slot(off)].Load()
		if n == nil {
			return
		}
	}
	n.pages[n.slot(off)].Store(nil)
}

// scanCandidate is one page a reclaim scan picked, with the bounds of
// its rmap snapshot in the cache's flat snapshot buffer.
type scanCandidate struct {
	pg     *Page
	lo, hi int
}

// ReclaimScan runs one clock/second-chance eviction pass over the
// resident set, starting at the clock hand, and tries to evict up to
// batch pages. A nil acct scans every page with the cache's global
// clock hand; a non-nil acct (tenant-local reclaim) sweeps only the
// pages charged to it with its own per-account hand, leaving other
// tenants' accessed bits — their second chances — untouched. The caller
// must (a) hold the machine's reclaim scan lock — scans never run
// concurrently with each other, and they share the cache's scan scratch
// — and (b) be inside an RCU read-side critical section of the cache's
// domain, because revoking mappings walks page tables lock-free. When
// force is set the accessed bit is ignored (direct reclaim's progress
// guarantee); otherwise a set bit buys the page one more pass.
//
// g is the reclaimer's batch gather, and it must not be nil. The scan
// feeds it every translation it revokes and then every evicted page's
// own cache reference; the reclaimer flushes it once after the whole
// batch. That is one shootdown charge per scan instead of one per page,
// the way the kernel's try_to_unmap batches its IPIs, and one RCU
// callback and one FreeBatch for all the batch's frames. It also orders
// the frees after the shootdown: an evicted frame becomes allocatable
// only after the flush and a grace period.
//
// The scan runs in three phases so the fault path's lock order (PTE
// lock, then cache mutex) is never inverted:
//
//  1. under the cache mutex: advance the clock hand, pick candidates,
//     and snapshot each candidate's rmap (keys plus generations);
//  2. with no cache lock held: revoke each snapshot PTE through
//     MappingOwner.EvictPTE, which takes only PTE locks;
//  3. under the cache mutex again: delete exactly the snapshotted rmap
//     incarnations, then — if no mapping remains; a refault mid-scan
//     aborts the eviction — write the page back if dirty, mark it
//     deleted, unlink it, and hand the cache's frame reference to g.
//
// It returns the number of pages evicted and of pages written back.
func (c *Cache) ReclaimScan(acct *physmem.Account, batch int, force bool, g *tlb.Gather) (evicted, written int) {
	if batch <= 0 {
		return 0, 0
	}
	// The scratch keeps its capacity from scan to scan; its pointers are
	// cleared on the way out so it pins no evicted page or closed space.
	defer func() {
		clear(c.cands)
		clear(c.snap)
		c.cands, c.snap = c.cands[:0], c.snap[:0]
	}()

	// Phase 1: candidate selection at the clock hand. The pruned radix
	// walk starts at the hand's subtree and stops as soon as the batch
	// is full (wrapping once), so a small eviction batch never pays a
	// full-cache sweep under the mutex fault fills contend on. A gentle
	// pass over a fully referenced resident set still visits every page
	// — that is the clock algorithm clearing its bits.
	c.lock()
	hand := c.clockHand
	if acct != nil {
		hand = c.clockHands[acct]
	}
	if hand >= MaxOffset {
		hand = 0
	}
	next, moved := hand, false // the hand's new position, stored once
	examine := func(pg *Page) bool {
		next, moved = pg.off+physmem.PageSize, true
		if acct != nil && c.alloc.Owner(pg.frame) != acct {
			trace.Emit(trace.AuxCPU, trace.EvPageVerdict, c.fileID,
				pg.off/physmem.PageSize, trace.VerdictSkipped)
			return true // another tenant's page: invisible to this scan
		}
		if !force && pg.accessed.Swap(false) {
			trace.Emit(trace.AuxCPU, trace.EvPageVerdict, c.fileID,
				pg.off/physmem.PageSize, trace.VerdictSecondChance)
			return true // referenced since the last pass: second chance
		}
		lo := len(c.snap)
		pg.rmapMu.Lock()
		c.snap = pg.rmap.appendTo(c.snap)
		pg.rmapMu.Unlock()
		c.cands = append(c.cands, scanCandidate{pg, lo, len(c.snap)})
		return len(c.cands) < batch
	}
	if c.walkFromLocked(c.root, hand, examine) && hand > 0 {
		c.walkFromLocked(c.root, 0, func(pg *Page) bool {
			if pg.off >= hand {
				return false // wrapped all the way around
			}
			return examine(pg)
		})
	}
	if moved {
		if acct == nil {
			c.clockHand = next
		} else {
			if c.clockHands == nil {
				c.clockHands = make(map[*physmem.Account]uint64)
			}
			c.clockHands[acct] = next
		}
	}
	c.mu.Unlock()
	if len(c.cands) == 0 {
		return 0, 0
	}

	// Phase 2: revoke translations through the rmap, feeding the batch
	// gather. Only PTE locks are taken; a miss (the slot was zapped,
	// remapped, or COW-broken since the snapshot) is left for phase 3
	// to disambiguate by generation.
	for _, cd := range c.cands {
		for _, e := range c.snap[cd.lo:cd.hi] {
			e.m.owner.EvictPTE(g, e.m.vaddr, cd.pg.frame)
		}
	}

	// Phase 3: bookkeeping and the evictions themselves.
	c.lock()
	for _, cd := range c.cands {
		pg := cd.pg
		pg.rmapMu.Lock()
		for _, e := range c.snap[cd.lo:cd.hi] {
			// Delete only the incarnation we snapshotted: either we
			// revoked its PTE, or a concurrent zap did (its own removal
			// of the same entry is idempotent). A slot re-added by a
			// refault carries a newer generation and stays.
			pg.rmap.remove(e.m, e.gen)
		}
		if pg.deleted.Load() {
			pg.rmapMu.Unlock()
			continue // raced with Drop
		}
		if pg.rmap.len() != 0 {
			// Refaulted between the phases: the page is in active use;
			// keep it (its new PTEs were never revoked).
			pg.rmapMu.Unlock()
			c.evictAborts.Add(1)
			trace.Emit(trace.AuxCPU, trace.EvPageVerdict, c.fileID,
				pg.off/physmem.PageSize, trace.VerdictAbort)
			continue
		}
		// Deleting under the rmap mutex closes the window against a
		// faulter's AddMapping: it either landed above (we abort) or
		// will fail its deleted check (it retries on a fresh page).
		pg.deleted.Store(true)
		pg.rmapMu.Unlock()
		wrote, werr := c.writebackLocked(pg)
		if werr != nil && !errors.Is(werr, ErrStickyIO) {
			// Retryable writeback failure: the page is still dirty and
			// must not be evicted (its contents exist nowhere else).
			// Revert the deleted mark — safe under the cache mutex, which
			// excludes fills; a faulter that transiently observed the
			// mark just retries and finds the page live again. A sticky
			// failure takes the other branch: the page was cleaned, the
			// data is gone either way, so eviction proceeds and the latch
			// carries the loss to the next Writeback.
			pg.rmapMu.Lock()
			pg.deleted.Store(false)
			pg.rmapMu.Unlock()
			continue
		}
		if wrote {
			written++
		}
		c.unlinkLocked(pg.off)
		c.reg.clear(pg.frame)
		if c.evictedOffs == nil {
			c.evictedOffs = make(map[uint64]struct{})
		}
		c.evictedOffs[pg.off] = struct{}{}
		// Record the eviction against the page's charge account before
		// the batch's release clears the owner stamp. An under-limit
		// account evicted by a scan it did not initiate (acct == nil:
		// machine-wide; acct != owner: another tenant's drain) is
		// absorbing someone else's pressure — the cross-tenant fairness
		// signal the soak driver gates on.
		if ac := c.alloc.Owner(pg.frame); ac != nil {
			ac.NoteEviction(ac != acct)
		}
		// The cache's own reference leaves with the batch, after the
		// flush that retires the PTEs revoked above and a grace period
		// (lock-free lookups that found the page may still be taking a
		// mapping reference; their deleted check sends them back).
		g.Release(pg.frame)
		evicted++
		verdict := trace.VerdictEvicted
		if wrote {
			verdict = trace.VerdictWriteback
		}
		trace.Emit(trace.AuxCPU, trace.EvPageVerdict, c.fileID,
			pg.off/physmem.PageSize, verdict)
	}
	c.resident.Add(int64(-evicted))
	c.evictions.Add(uint64(evicted))
	c.mu.Unlock()
	return evicted, written
}

// ForgetAccount drops the cache's per-account clock hand for ac.
// Called when a tenant departs so the hands map does not accumulate
// entries for dead accounts.
func (c *Cache) ForgetAccount(ac *physmem.Account) {
	c.lock()
	delete(c.clockHands, ac)
	c.mu.Unlock()
}

// AccountHands returns how many per-account clock hands the cache
// retains — the churn-leak audit: departed tenants' hands must be
// swept, or long-lived caches grow one dead entry per departure.
func (c *Cache) AccountHands() int {
	c.lock()
	defer c.mu.Unlock()
	return len(c.clockHands)
}

// walkFromLocked visits resident pages with offset >= from in
// ascending order, descending only radix subtrees that can contain
// them. visit returning false stops the walk; walkFromLocked then
// returns false. The caller holds the cache mutex.
func (c *Cache) walkFromLocked(n *node, from uint64, visit func(pg *Page) bool) bool {
	if n.level == 1 {
		for i := n.slot(from); i < fanout; i++ {
			if pg := n.pages[i].Load(); pg != nil {
				if !visit(pg) {
					return false
				}
			}
		}
		return true
	}
	start := n.slot(from)
	for i := start; i < fanout; i++ {
		child := n.kids[i].Load()
		if child == nil {
			continue
		}
		f := from
		if i != start {
			f = 0 // later subtrees are wholly above from
		}
		if !c.walkFromLocked(child, f, visit) {
			return false
		}
	}
	return true
}

// walkLocked visits every resident page under the cache mutex. Visit
// order is ascending offset.
func (c *Cache) walkLocked(n *node, visit func(n *node, slot int, pg *Page)) {
	if n.level == 1 {
		for i := range n.pages {
			if pg := n.pages[i].Load(); pg != nil {
				visit(n, i, pg)
			}
		}
		return
	}
	for i := range n.kids {
		if child := n.kids[i].Load(); child != nil {
			c.walkLocked(child, visit)
		}
	}
}

// Audit cross-checks the cache's ownership invariants under the cache
// mutex and returns every violation found, joined. The caller must
// have quiesced the machine: no fault, zap, fork, or reclaim in
// flight, and the RCU domain flushed, so every revoked mapping's frame
// reference has been retired (mid-flight, references legitimately
// exceed the rmap's count). resolve, when non-nil, maps one rmap entry
// back to the frame the owner's page table actually holds at vaddr —
// the VM layer passes a page-table walk — closing the rmap↔PTE loop in
// the direction the zap paths maintain.
//
// Invariants checked, per resident page: not marked deleted while
// linked; its frame allocated, and registered to this page in the
// frame registry; frame references exactly 1 (the cache's own) plus
// one per rmap entry; and every rmap entry resolving to this frame.
// The resident counter must match the linked-page count.
func (c *Cache) Audit(resolve func(owner MappingOwner, vaddr uint64) (physmem.Frame, bool)) error {
	c.lock()
	defer c.mu.Unlock()
	var errs []error
	linked := int64(0)
	c.walkLocked(c.root, func(_ *node, _ int, pg *Page) {
		linked++
		if pg.deleted.Load() {
			errs = append(errs, fmt.Errorf("page %#x: marked deleted but still linked", pg.off))
			return
		}
		if !c.alloc.Allocated(pg.frame) {
			errs = append(errs, fmt.Errorf("page %#x: frame %d is not allocated", pg.off, pg.frame))
			return
		}
		if c.reg != nil {
			if got := c.reg.Lookup(pg.frame); got != pg {
				errs = append(errs, fmt.Errorf("page %#x: frame registry disagrees for frame %d", pg.off, pg.frame))
			}
		}
		pg.rmapMu.Lock()
		maps := pg.rmap.appendTo(nil)
		pg.rmapMu.Unlock()
		if refs, want := c.alloc.Refs(pg.frame), int32(1+len(maps)); refs != want {
			errs = append(errs, fmt.Errorf("page %#x: frame %d holds %d references, want %d (cache + %d mappings)",
				pg.off, pg.frame, refs, want, len(maps)))
		}
		if resolve != nil {
			for _, e := range maps {
				if f, ok := resolve(e.m.owner, e.m.vaddr); !ok || f != pg.frame {
					errs = append(errs, fmt.Errorf("page %#x: rmap entry %#x resolves to frame %d (present=%v), want %d",
						pg.off, e.m.vaddr, f, ok, pg.frame))
				}
			}
		}
	})
	if got := c.resident.Load(); got != linked {
		errs = append(errs, fmt.Errorf("resident counter %d, but %d pages linked", got, linked))
	}
	return errors.Join(errs...)
}

// Stats is a snapshot of cache counters.
type Stats struct {
	Resident    int64  // pages currently cached
	Hits        uint64 // lock-free lookup hits
	Misses      uint64 // fills (faults that populated the cache)
	Coalesced   uint64 // faulters that waited out a concurrent fill of the same page
	Dropped     uint64 // pages removed by Drop
	DirtyPages  int64  // pages currently dirty
	Writebacks  uint64 // pages cleaned by Writeback or pre-eviction writeback
	Evictions   uint64 // pages reclaimed by ReclaimScan
	EvictAborts uint64 // eviction candidates refaulted mid-scan
	Refaults    uint64 // fills of previously evicted pages

	FillErrs         uint64 // fills failed by an injected read error
	WritebackRetries uint64 // retryable writeback failures (page kept dirty)
	WritebackSticky  uint64 // sticky writeback failures (data dropped, latched)
}

// Add accumulates o into s (for aggregating per-file caches).
func (s *Stats) Add(o Stats) {
	s.Resident += o.Resident
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Coalesced += o.Coalesced
	s.Dropped += o.Dropped
	s.DirtyPages += o.DirtyPages
	s.Writebacks += o.Writebacks
	s.Evictions += o.Evictions
	s.EvictAborts += o.EvictAborts
	s.Refaults += o.Refaults
	s.FillErrs += o.FillErrs
	s.WritebackRetries += o.WritebackRetries
	s.WritebackSticky += o.WritebackSticky
}

// HitsOn returns the lookup hits counted on cpu's cell alone (the
// shared-write audit reads it to prove which CPU a fault counted on).
func (c *Cache) HitsOn(cpu int) uint64 { return c.hits.CPU(cpu) }

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Resident:    c.resident.Load(),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Coalesced:   c.coalesced.Load(),
		Dropped:     c.dropped.Load(),
		DirtyPages:  c.dirtyPages.Load(),
		Writebacks:  c.writebacks.Load(),
		Evictions:   c.evictions.Load(),
		EvictAborts: c.evictAborts.Load(),
		Refaults:    c.refaults.Load(),

		FillErrs:         c.fillErrs.Load(),
		WritebackRetries: c.wbErrsRetry.Load(),
		WritebackSticky:  c.wbErrsSticky.Load(),
	}
}
