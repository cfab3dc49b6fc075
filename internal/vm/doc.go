// Package vm implements the concurrent address-space designs of §5: a
// user-space reproduction of the Linux virtual memory system with the
// paper's data structures (a region tree — the BONSAI tree in every
// design — and four-level page tables), lock set (mmap_sem, fault lock, tree lock, page-directory lock,
// per-page-table PTE locks), and race handling (VMA split race, page
// table deallocation race, page table fill race, retry-with-lock).
//
// Four designs are provided, in increasing concurrency:
//
//	RWLock    — stock Linux: one read/write semaphore; faults read-lock,
//	            mapping operations write-lock (§4.1).
//	FaultLock — mapping operations hold mmap_sem for their whole run but
//	            take a separate fault lock only around their mutation
//	            phase, letting faults overlap their planning phase (§5.1).
//	Hybrid    — faults take no mmap_sem at all: page tables and VMAs are
//	            RCU-managed, and only the region tree keeps a read/write
//	            lock (§5.2).
//	PureRCU   — the region tree drops that lock too, so the fault path
//	            is entirely lock-free and writes no shared cache line
//	            (§5.3).
//
// All four index their VMAs in the same BONSAI trees, one per
// range-lock stripe. The paper's Hybrid keeps a red-black tree, whose
// in-place rotations are why it needs the tree lock; here Hybrid takes
// that lock around the BONSAI trees instead, so Hybrid and PureRCU
// differ only in the lock.
//
// # Lock hierarchy
//
// The designs differ in two decisions only — how a fault reads the
// region tree, and what a mapping operation excludes — and one value per
// address space, the synchronization policy of sync.go chosen by
// Config.Design, makes both. The fault, mapping, fork, huge-page and
// inspection code is written once against four questions: what a
// fast-path fault holds (enter/exit), how to hold an interval's mappings
// still while faults keep running (pin), what a mapping operation
// mutates under (lock/lockAll/reserve, returning a guard whose mutate()
// is FaultLock's mutation phase and a no-op elsewhere), and which lock
// serializes the region tree's writers. No other file names a semaphore
// or asks which design it runs under (TestSyncSeam), and each design's
// operations wait on exactly the locks below (TestDesignLockTable). The
// four designs' policies:
//
//   - RWLock: a fault holds mmap_sem read for the whole fault (§4.1); a
//     pin is mmap_sem read; a mapping operation holds mmap_sem write,
//     which also excludes every reader of the region tree.
//   - FaultLock: a fault holds the fault lock read (§5.1); a pin is
//     mmap_sem read; a mapping operation holds mmap_sem write throughout
//     and the fault lock write from mutate() until unlock.
//   - Hybrid: a fault runs in an RCU read section with the tree lock read
//     around its lookup (§5.2); pins and mapping operations take a range
//     lock on their interval, widened to cover straddling VMAs (the whole
//     space for fork, Close and stack growth); every tree access takes
//     the tree lock.
//   - PureRCU: a fault runs in an RCU read section and nothing else
//     (§5.3); locking as Hybrid, without the tree lock. The index, the
//     same in every design, is sixteen BONSAI trees, one per range-lock
//     stripe (a VMA lives in the tree of its start's 1 GiB span, mod
//     16), plus a seventeenth, crossing, holding every VMA whose extent
//     crosses a span boundary. A fault's lookup is one descent of its
//     address's stripe tree, falling back to crossing only on a miss;
//     under PureRCU the only index locks are the trees' writer
//     spinlocks, each taken once per operation that touches the tree.
//     Operations in different stripes write different trees, so they
//     share no index word.
//
// The RCU designs' range-locked mapping side goes beyond the paper,
// which leaves mapping operations serialized on mmap_sem ("mmap,
// munmap, and mprotect are still serialized with the mmap_sem"):
// operations on disjoint ranges run concurrently, and operations in
// different stripes publish into different trees (under Hybrid, still
// one at a time behind the tree lock). An
// operation's edits are one transaction per tree it touches, so a
// lock-free fault may see one tree's half of it without the other's
// (an insert into the next span's tree not yet published, a VMA already
// trimmed in crossing): states it already tolerates, as a miss or a VMA
// deleted or trimmed under it, by retrying with its page pinned (the
// split race across a span boundary is explored, TestExploreCrossingSplitRace).
//
// A fault whose fast path cannot finish — a lookup miss, a lost fill
// race, a copy-on-write break an RCU reader may not do in place —
// retries with its page pinned, and a page still unmapped escalates to
// the whole-space exclusion, where a stack may grow. CollapseRange pins
// the 2 MB-aligned span of its request once and promotes under that pin,
// while faults in the span keep running.
//
// Below the policy the levels are the same in every design, taken
// strictly outermost first:
//
//  1. the policy's pin or mapping-op exclusion: mmap_sem, or a range
//     lock, FIFO-fair in each stripe, so a waiting fork is never starved;
//  2. the policy's fault lock or index writer lock;
//  3. the reclaim scan lock (internal/reclaim), acquired only with no
//     lower level held: the fault and fork paths unwind completely
//     (ErrFrameShortage) before direct reclaim, and the scan takes levels
//     4 and 5 in separate phases;
//  4. the page-directory lock (the §4.1 double check), and the
//     per-page-table PTE locks, under which the §5.2 fill-race recheck,
//     the eviction scan's EvictPTE and the zap paths' rmap removals run.
//     One sanctioned inversion: pagetable.Collapse holds a leaf's PTE lock
//     across the page-directory lock, safe because no path takes a PTE
//     lock while holding the directory lock;
//  5. the per-file page-cache mutex (fills, drops, writeback, the scan's
//     bookkeeping; it also guards the per-tenant clock hands), taken
//     under a PTE lock by a file fault's miss path; cache lookups take
//     nothing;
//  6. the per-page rmap mutex (pagecache.Page);
//  7. the contention profile's mutex (internal/contention), the
//     innermost leaf, taken only while the profiler is armed: Note runs
//     under the page-cache mutex and the reclaim scan lock, just
//     acquired after a contended wait, and after a queued range-lock
//     grant, and takes nothing under it.
//
// Not locks, so they may run under any level: a tenant's charge
// (physmem.Account atomics), a TLB gather (owned by its zapping thread;
// Flush runs after every PTE lock is released, inside the level-1
// exclusion) and trace emission (a fetch-add into a per-CPU ring).
//
// With range locks a VMA is only ever mutated by an operation whose
// held range covers its whole extent (lock with cover set re-acquires
// rather than widening in place, so two expanding neighbours cannot
// deadlock). Operations on one VMA therefore always conflict, and
// disjoint ranges, even touching ones, never do. A non-fixed Mmap
// reserves its gap through the same lock: search the tree, lock the gap
// as any mmap locks its range, re-check it under the held range, and on
// a loss unlock and search again. RangeStats reports acquisitions,
// conflicts and a per-stripe sum of the most operations held at once.
//
// A mapping operation costs one hold of each shared lock: its range, in
// the stripes it touches, and the writer spinlock of each tree it
// changes, because all it changes in a tree is one transaction
// (regionIndex.edit: one core.Tree.Update and one root publish per
// touched tree, one tree for an operation inside a span, plus Hybrid's
// tree lock in write mode);
// at most one RCU callback, for the frames it released (the tree nodes
// it displaced are left to the garbage collector, which frees none
// while a fault can still reach it), and the grace-period work that
// callback may owe, paid after its locks are released (opCtx.end); and
// no allocation beyond the VMAs and nodes it publishes
// (TestMapCycleCounts, TestMapCycleAllocs). The rest comes
// from an operation context (opctx.go), pooled per processor: the range
// guard, the TLB gather, the scratch lists and a slot. A slot stands in for a
// CPU id — operations run on any goroutine — and picks the operation's
// cell in every per-slot counter and its RCU shard, so operations on
// disjoint ranges count and retire on lines of their own
// (TestDisjointMapOpsWriteOnlyTheirOwnCells,
// TestConcurrentMapOpsRetireOnDifferentShards). A MAP_FIXED mmap over
// nothing walks no page tables; Munmap and Close always zap, because the
// zap frees the page tables.
//
// # What a fast-path fault writes
//
// The paper's result (§5.3) is that a PureRCU fault takes no lock and
// writes no shared cache line. TestFastPathFaultWritesOnlyItsOwnCells
// (the shared-write gate) holds the counter half true per design by
// faulting on CPU 0 only and requiring every counter and histogram delta
// to land in CPU 0's cells. A fast-path fault writes:
//
//   - its own per-CPU cells: its row of the space's Counts (a
//     stats.PerCPU row, beside its fault histogram), the page tables'
//     fill counter, the page cache's hit counter and the allocator's
//     allocation counter (stats.Counter cells indexed by its magazine),
//     its RCU reader, its magazine, and its CPU's sampling state. Reads
//     sum the cells, so physmem's InUse and FreeFrames stay exact;
//   - the leaf page table's PTE lock (one word, which also counts its
//     acquisitions) and entry, shared within 2 MB;
//   - the mapped frame's metadata: one word, generation and reference
//     count, eight frames to a line — a huge fault's run writes the head's
//     alone, and a magazine refills with one aligned buddy block, so CPUs
//     start out on lines of their own — and for a file page the cache
//     page's reference count and reverse map, for a limited tenant its
//     charge counter and the frame's owner stamp;
//   - its design's lock word, a sync.RWMutex reader count: mmap_sem's
//     (RWLock), the fault lock's (FaultLock), the tree lock's (Hybrid);
//     none in PureRCU.
//
// Nothing address-space-wide: no shared counter, histogram, clock read
// or watermark check. Faults are counted exactly and timed by sampling:
// each CPU times one fault per seeded gap uniform on 1…31 (1 in 16; a
// fixed stride would alias with the 512-entry table period), and every
// fault while the tracer is armed. The CPU is padded to lines of its
// own: two contexts made back to back otherwise share one, which once
// cost file_shared a fifth of its throughput. Shared lines are written
// only off the fast path: table allocation, the low-watermark check of
// every 32nd allocation's magazine refill, retries. Unmapping counts per
// batch (one add per leaf table cleared, one per zap), and a contended
// range lock polls its grant for up to 25 µs before it parks.
//
// # Huge pages
//
// Anonymous private memory is transparently backed by 2 MB mappings,
// one level-2 entry for 512 pages. The first touch of a fully covered,
// aligned chunk allocates an order-9 run (physmem.AllocRun) and installs
// a huge entry under the page-directory lock's §5.2 double check, so the
// same path serves all four designs. A run that cannot be had fails typed
// (physmem.ErrNoRun) and the fault falls back to one base page, which
// may reclaim; a 2 MB fault never drives the reclaim ladder itself.
//
// A chunk that filled in with base pages — after a run shortage, a
// split, or a fork whose child has exited — stays base pages: nothing
// promotes in the background. CollapseRange, the MADV_COLLAPSE
// analogue, is the one way back: under its pin it surveys each eligible
// chunk of the request (pagetable.SurveyChunk counts the present PTEs),
// and promotes every fully populated one, copying into a fresh run and
// retiring the old frames through the gather and a grace period; a COW
// page the fork child no longer shares is re-owned by the copy.
//
// Splits ride the operation's gather: partial munmap, an mprotect whose
// boundary cuts a huge entry, MADV_DONTNEED and fork (CloneRange demotes
// each entry it meets, a racing first-touch one included) all demote to
// base pages; whole-chunk zaps retire the entry unsplit, one run entry
// and one FreeRun. Each huge entry carries a deposited leaf table, so a
// split never allocates; a zapped deposit's Go struct, and a table that
// lost a double-check race, go onto the tree's spare list for the next
// table, never a table a split published. A huge_populate round makes 3
// heap allocations (TestHugeRoundCounts). AuditTHP re-walks every huge
// entry against protections, alignment, refcounts, the spare list and
// the installs − splits − zaps identity.
//
// # Errors and running out of memory
//
//   - ErrFrameShortage is internal and retryable: the operation unwound
//     completely and may run direct reclaim and retry. It never escapes
//     the API; ErrTenantShortage is its tenant-limit twin.
//   - ErrNoMemory is terminal. Mmap, faults and Fork return it typed, with
//     every partly acquired frame released.
//   - pagecache.ErrIO is a backing-store failure: ErrWritebackIO is
//     retryable (the page stays dirty and resident), ErrStickyIO latches
//     per file and the next Writeback reports it once (errseq_t). A fill
//     error leaves the fault as ErrIO, not as out-of-memory.
//
// An allocation failure climbs one ladder: one reclaim scan and a
// retry, at most shortageRetryBudget (64) times, whatever the scan
// evicted; then the OOM killer of last resort, if Host.SetOOMKiller
// registered one, serialized machine-wide and choosing the largest-RSS
// member of the faulting tenant first (a tenant-limit shortage never
// looks outside the tenant), after which the budget starts again; then
// ErrNoMemory, with zero leaked frames
// (TestInjectedAllocFailureLeaksNothing). Every scan ends with a grace
// period, so a retry finds the frames, and the tenant charges, that
// were queued behind one: memory an operation freed is never the
// reason it runs out (TestTenantWaitsOutTheRCUBacklog).
//
// # Validation
//
// The paper's implementation "passes the Linux Test Project, as well as
// our own stress tests". Here the LTP half is the forEachDesign tests:
// each runs the same assertions through the public API under all four
// designs — boundary bytes, protections, MAP_FIXED replacement, splits
// and merges, 1,000 regions, stack growth, file contents, zeroed recycled
// frames, OOM and recovery, sparse page tables, fork and COW, concurrent
// faults — then Close's leak check. The stress half is internal/torture.
//
// The paper also checked "a model of the VM system designed to capture
// key races" exhaustively. Here the model is this package. Six schedule
// points (fail.Point.Yield, one atomic load disarmed) sit at the race
// windows: vm.fault-lookup after the lockless VMA lookup, vm.fault-fill
// before a fill takes the PTE lock, vm.unmap-cut and vm.unmap-commit in
// munmap, vm.reserve-gap between a non-fixed mmap's gap search and its
// range lock, and ranges.stripe-step between two stripes of a range lock.
// The explorer (explore_test.go) parks each goroutine at its points and
// releases one at a time, depth first through every order; a released
// goroutine that blocks on a lock a parked one holds is read from the
// goroutine dump. TestExploreFillRace runs §5.2's fill race (16 schedules
// per design and page state), TestExploreSplitRace Figure 10's split
// (17), TestExploreGapRace two mmaps racing for one gap (6 schedules
// under Hybrid and PureRCU, 2 under RWLock and FaultLock), and
// TestExploreStripeRace a munmap across the stripes' 15 → 0 wrap against
// a fork (35). A failing schedule prints as its list of point hits, which
// replay runs again. The fill, gap and stripe races each kill a mutant
// twin (scripts/mutants.sh): no recheck under the PTE lock, no re-check
// of the gap, stripes taken in address order. The same mechanism parks
// physmem's InUse fold between its two passes at the physmem.counts-pass
// point (TestInUseAcrossAllocsPass).
//
// # The multi-tenant host
//
// A Host (NewHost(cfg, maxTenants)) holds up to maxTenants address-space
// families as tenants over one frame pool, RCU domain, TLB domain and
// reclaimer. Admit(name, limit) returns the tenant's root space, which
// is its handle: the root, its siblings (NewSibling) and fork children
// bill one memcg-style physmem.Account, charged at every frame
// allocation and uncharged at the frame's final free, whoever frees it.
// A limit ≤ 0 admits the tenant unaccounted. A member that closes folds
// its Counts and histograms into its family's Rollup.
//
// The host's one tenant table holds each family's name and admission
// limit; Admit checks the name and claims the slot in one critical
// section, and Tenants reads it. A tenant retires when its last member
// closes, by Evict or not: in the same critical section it leaves the
// table and its final Rollup joins the departed totals, so the machine's
// counts keep its events. A retired family refuses NewSibling and Fork
// (ErrInvalid), so it retires exactly once.
//
// A file's page cache belongs to the machine: every tenant mapping the
// file shares its frames. The host counts the live tenants that map
// each file, and a retiring tenant drops the cache only when it was the
// last of them (TestSharedFileOutlivesFirstTenant).
//
// A charge over the limit refuses with ErrTenantShortage, and the
// operation climbs the same ladder with a tenant-local scan: each retry
// follows an eviction scan of the tenant's own pages (each cache keeps a
// clock hand per account), then the OOM killer inside the tenant, then
// ErrNoMemory. Only a pool shortage (ErrFrameShortage) engages the
// machine-wide kswapd and direct reclaim, so a tenant at its limit never
// evicts a neighbour's page. Account.EvictionsUnderLimit counts
// evictions someone else's reclaim made while the victim was under its
// limit; its rollup, introspect.Snapshot.CrossTenantEvictions, must stay
// zero (TestTenantIsolation).
//
// Evict(root) lowers the limit to one frame, closes the members in
// reverse, drains the residual shared pages (their charge moves to the
// next tenant to refault them) and audits the account to zero charge;
// a residue is an error. Until the tenant leaves the table every surface
// reports its admission limit, not the lowered one.
package vm
