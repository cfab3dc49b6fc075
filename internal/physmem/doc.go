// Package physmem implements the physical page-frame allocator that
// backs the simulated address spaces: the analogue of the Linux page
// allocator the paper's microbenchmark bottoms out in (§7.3 observes
// "slight non-scalability in the Linux page allocator").
//
// # Memory hierarchy
//
// Frames are the bottom of three layers. A page cache
// (internal/pagecache) per vma.File is shared by every address space of
// a family, the original, its forks and its NewSibling processes: a
// file's first Mmap attaches the cache behind the file's stable ID, and
// every later mapping of the file, in any member, faults to the same
// frames. VMAs (internal/vma) carry the file; a Shared mapping maps the
// cache's frames directly, and a Private one maps them read-only with
// the COW mark until the first write copies the page.
//
// Frames are reference counted. The cache holds one reference per
// resident page, taken at fill, and each PTE mapping a cached frame holds
// one more, taken before the install and dropped by munmap, DONTNEED or
// teardown through the usual RCU-deferred free. pagecache.Drop releases
// the cache's own reference only after a grace period, so a lock-free
// faulter that found the page can still take its reference and then
// recheck the page's deleted mark: §5.2's double check at the file
// layer. A cache-hit file fault under Hybrid or PureRCU therefore takes
// no global lock; a miss takes the file's mutex, so faulters of one
// missing page coalesce behind one fill. Shared file pages are installed
// read-only on a read fault, and the first write fault marks the page
// dirty for pagecache.Writeback.
//
// # Frames and runs
//
// The allocator is a binary buddy system: free memory is kept as
// power-of-two blocks on per-order free lists (order 0 = one 4 KiB
// frame, order 9 = one 2 MiB run), blocks split on allocation and
// coalesce with their buddy on free, so contiguous runs for huge
// mappings stay allocatable as long as the frames themselves are free.
// Per-CPU magazines cache order-0 frames in front of the buddy lists so
// the common single-frame path touches only its own CPU's cache lines,
// like the kernel's per-CPU page lists. Each magazine has its own
// spinlock (uncontended in the common path — the kernel made the same
// move when per-CPU page lists grew remote draining) so that reclaim
// can steal frames stranded in idle magazines instead of reporting
// out-of-memory while free frames exist. An empty magazine refills with
// one buddy block, the largest free one that fits half a magazine: one
// buddy step, and two CPUs' frames never share a line of the metadata
// array (eight frames to a line, blocks of eight or more aligned to it).
//
// A frame's metadata is one word, generation<<32 | references: allocation
// is a single Add that bumps both halves, a free a single Add(-1), and a
// frame is allocated exactly while its reference count is non-zero. The
// same Add detects double allocation and double free, which turns RCU
// use-after-free bugs in the VM layer (freeing a frame before a grace
// period) into hard test failures instead of silent corruption.
//
// An unsplit run from AllocRun is one frame word too — its head's, like
// the kernel's compound pages. The head's references, generation and
// owner stamp speak for every frame of the run, so a 2 MiB run is
// allocated with one Add and freed with one Add, not 512 of each. A
// tail's word holds only a tail bit and the run's order, which locate the
// head, and Allocated, Refs, Gen and Owner of a tail read the head's. A
// tail is written when its block takes the run shape, and not again while
// the block keeps it: a run freed whole keeps its shape on the free list,
// so reusing it at the same order touches the head alone. The shape is
// undone — every tail materialized as a word of its own carrying the
// head's references, generation and owner — in two places only:
// SplitRun (a huge mapping demoted to base pages, before any of its
// frames gains a sharer) and the buddy lists splitting or coalescing a
// shaped free block. A block takes its shape with the highest generation
// among its frames, so Gen of every frame still grows strictly from one
// allocation to the next, whatever shape it had in either. Ref, Free or
// FreeBatch of a frame of an unsplit run panics like a double free: the
// run must be split first. FreeRun of a split run panics too: its frames
// retire one by one.
//
// Watermarks: Config.LowWater/HighWater define the memory-pressure
// band the reclaim subsystem (internal/reclaim) operates in. When free
// frames drop below the low watermark, one token is published on the
// Pressure channel — the kswapd wake-up — and the signal re-arms once
// free frames climb back above the high watermark. The low watermark is
// checked where frames leave the shared pool (magazine refill, AllocRun):
// a crossing is noticed at most half a magazine late.
package physmem
