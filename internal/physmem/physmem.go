package physmem

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"bonsai/internal/fail"
	"bonsai/internal/locks"
)

// Failpoints (armed only by the torture harness and fault-injection
// tests; see internal/fail): failAlloc makes Alloc report pool
// exhaustion outright — the shortfall the VM layer must answer with
// direct reclaim and, eventually, a typed ErrNoMemory — and failDrain
// makes the magazine steal come back empty-handed, starving the
// last-resort path that normally hides stranded frames. failRunAlloc
// makes AllocRun report a run shortage for order > 0 requests: the
// typed signal the huge-page fault path must answer by falling back to
// base pages, never by surfacing an error. countsPass is a schedule
// point between counts' frees and allocs passes.
var (
	failAlloc    = fail.NewPoint("physmem.alloc")
	failDrain    = fail.NewPoint("physmem.drain")
	failRunAlloc = fail.NewPoint("physmem.run-alloc")
	countsPass   = fail.NewPoint("physmem.counts-pass")
)

// PageSize is the size of a physical frame in bytes (x86-64 small page).
const PageSize = 4096

// MaxOrder is the largest buddy order: an order-9 block is 512
// contiguous frames — the 2 MiB run backing one huge mapping.
const MaxOrder = 9

// Frame is a physical frame number. The zero Frame is never allocated
// and acts as an invalid sentinel.
type Frame uint64

// NoFrame is the invalid frame.
const NoFrame Frame = 0

// ErrOutOfMemory is returned when no frames remain.
var ErrOutOfMemory = errors.New("physmem: out of frames")

// ErrNoRun is returned by AllocRun when the buddy lists hold no
// contiguous block of the requested order even after draining the
// magazines. The pool may have plenty of free frames — they are just
// fragmented — so the caller's correct response is to fall back to
// base pages, not to reclaim.
var ErrNoRun = errors.New("physmem: no contiguous run of requested order")

// Config configures an Allocator.
type Config struct {
	// Frames is the number of allocatable frames (not counting the
	// reserved frame 0). Zero means DefaultFrames.
	Frames uint64
	// CPUs is the number of per-CPU magazines. Zero means 1.
	CPUs int
	// MagazineSize is the per-CPU cache capacity. Zero means 64.
	MagazineSize int
	// Backing, if true, gives every allocated frame a real zeroed
	// 4 KiB buffer reachable through Data. Examples and data-integrity
	// tests enable it; benchmarks leave it off.
	Backing bool
	// LowWater and HighWater are the reclaim watermarks in frames.
	// When free frames (including frames cached in magazines) drop
	// below LowWater, the allocator publishes one token on Pressure;
	// the signal re-arms when free frames exceed HighWater. Zero
	// disables pressure signaling.
	LowWater, HighWater uint64
}

// DefaultFrames is the default pool size (1 GiB of 4 KiB frames).
const DefaultFrames = 1 << 18

// magazine is one CPU's frame cache and, on the same padded line, its
// share of the allocation counters: no line another CPU writes.
type magazine struct {
	_      [64]byte
	mu     locks.SpinLock
	frames []Frame
	allocs atomic.Uint64 // frames handed out through this index (Alloc, AllocRun)
	frees  atomic.Uint64 // final frees returned through this index (Free)
	_      [64]byte
}

// noOrder marks a frame that is not the base of a free buddy block.
const noOrder = 0xff

// The low half of a frame word. A frame of its own holds its reference
// count there and nothing else; a run's head adds headBit and the run's
// order; a tail holds tailBit and the order, and no references.
const (
	refsMask   = 1<<24 - 1
	orderShift = 24
	orderMask  = 0xf
	headBit    = 1 << 30
	tailBit    = 1 << 31
)

// shapeOrder returns the run order a head or tail word records.
func shapeOrder(w uint64) int { return int(uint32(w)>>orderShift) & orderMask }

// headOf returns the head of the run whose tail f is (w is f's word).
func headOf(f Frame, w uint64) Frame { return f &^ (Frame(1)<<shapeOrder(w) - 1) }

// Allocator is a physical frame allocator. Alloc and Free are safe for
// concurrent use; each CPU id should be used by one goroutine at a
// time (the per-magazine locks make violations safe, merely slow).
type Allocator struct {
	cfg Config

	// mu protects the buddy structure — freeLists, blockOrder, blockIdx —
	// and the plain counters below it.
	mu locks.SpinLock

	// buddyFree counts the frames on the buddy lists: a lower bound on
	// FreeFrames (which adds the magazine-cached frames) that the refill
	// path can read without summing every magazine's cells. Every change
	// of a run's shape happens under mu too, and counts its tails here.
	buddyFree, splits, coalesces   uint64
	tailsShaped, tailsMaterialized uint64

	// freeLists[o] holds the bases of free blocks of 1<<o frames. Every
	// base is aligned to its block size; New pushes the initial carving
	// in descending base order so low frames are allocated first.
	freeLists [MaxOrder + 1][]Frame

	// blockOrder[f] is the order of the free block based at f, or
	// noOrder when f is allocated, magazine-cached, or interior to a
	// block. blockIdx[f] is the block's position in its free list, so
	// coalescing removes a buddy in O(1) by swap-remove.
	blockOrder []uint8
	blockIdx   []int32

	mags []magazine

	// meta holds one word per frame, generation<<32 | references (a
	// run's tails point at their head instead; see the package comment).
	// Fork shares page frames copy-on-write, and a frame returns to the
	// pool only when its last reference is dropped; non-zero references
	// mean allocated. The generation advances each time the frame is
	// allocated: tests use it to prove lifetime invariants — a frame seen
	// through a live translation must keep the generation it had when the
	// translation was installed, or it was recycled under that translation.
	meta []atomic.Uint64

	backing []atomic.Pointer[[PageSize]byte]

	// accounts maps magazine index -> bound charge account (nil =
	// unaccounted); owner stamps each allocated frame (an unsplit run's
	// head alone) with the account it was charged to, so the final free —
	// from any CPU, any tenant — returns the charge to the right place.
	accounts []atomic.Pointer[Account]
	owner    []atomic.Pointer[Account]

	// pressure is the kswapd wake-up channel (capacity 1); lowHit is
	// the latch that keeps sustained pressure from hammering it.
	pressure chan struct{}
	lowHit   atomic.Bool

	// remoteFrees counts final frees that name no CPU (FreeRemote,
	// FreeBatch); the rest of the allocation counts live in the magazines.
	remoteFrees    atomic.Uint64
	refills        atomic.Uint64
	drains         atomic.Uint64
	drained        atomic.Uint64
	runAllocs      atomic.Uint64
	runFailures    atomic.Uint64
	allocFailures  atomic.Uint64
	limitFailures  atomic.Uint64
	pressureEvents atomic.Uint64

	// drainMu lets one magazine steal run at a time (DrainMagazines).
	drainMu sync.Mutex
}

// New returns an allocator with the given configuration.
func New(cfg Config) *Allocator {
	if cfg.Frames == 0 {
		cfg.Frames = DefaultFrames
	}
	if cfg.CPUs <= 0 {
		cfg.CPUs = 1
	}
	if cfg.MagazineSize <= 0 {
		cfg.MagazineSize = 64
	}
	if cfg.HighWater < cfg.LowWater {
		cfg.HighWater = cfg.LowWater
	}
	a := &Allocator{
		cfg:        cfg,
		buddyFree:  cfg.Frames,
		blockOrder: make([]uint8, cfg.Frames+1),
		blockIdx:   make([]int32, cfg.Frames+1),
		mags:       make([]magazine, cfg.CPUs),
		meta:       make([]atomic.Uint64, cfg.Frames+1),
		accounts:   make([]atomic.Pointer[Account], cfg.CPUs),
		owner:      make([]atomic.Pointer[Account], cfg.Frames+1),
		pressure:   make(chan struct{}, 1),
	}
	for i := range a.blockOrder {
		a.blockOrder[i] = noOrder
	}
	// Carve [1, Frames] into maximal size-aligned blocks, pushed in
	// descending base order so each list's stack top is its lowest base
	// and low frames are allocated first.
	blocks := carve(cfg.Frames)
	for i := len(blocks) - 1; i >= 0; i-- {
		a.pushBlockLocked(blocks[i].base, blocks[i].order)
	}
	if cfg.Backing {
		a.backing = make([]atomic.Pointer[[PageSize]byte], cfg.Frames+1)
	}
	return a
}

type block struct {
	base  Frame
	order int
}

// carve splits [1, frames] into maximal blocks, each aligned to its own
// size, in ascending base order. This is the buddy structure's quiesce
// state: freeing everything coalesces back to exactly this carving.
func carve(frames uint64) []block {
	var blocks []block
	for lo := uint64(1); lo <= frames; {
		order := 0
		for order < MaxOrder &&
			lo%(1<<(order+1)) == 0 &&
			lo+(1<<(order+1))-1 <= frames {
			order++
		}
		blocks = append(blocks, block{Frame(lo), order})
		lo += 1 << order
	}
	return blocks
}

// pushBlockLocked adds a free block to its order's list. Caller holds mu
// (or is New, before the allocator is published).
func (a *Allocator) pushBlockLocked(base Frame, order int) {
	a.blockOrder[base] = uint8(order)
	a.blockIdx[base] = int32(len(a.freeLists[order]))
	a.freeLists[order] = append(a.freeLists[order], base)
}

// removeBlockLocked unlinks a known-free block from its order's list by
// swap-remove, fixing the moved block's index. Caller holds mu.
func (a *Allocator) removeBlockLocked(base Frame, order int) {
	list := a.freeLists[order]
	idx := a.blockIdx[base]
	last := list[len(list)-1]
	list[idx] = last
	a.blockIdx[last] = idx
	a.freeLists[order] = list[:len(list)-1]
	a.blockOrder[base] = noOrder
}

// allocBlockLocked takes one free block of exactly the requested order,
// splitting the smallest larger block when the order's own list is
// empty (the split keeps the low half and frees the high buddy, so
// allocation stays low-frames-first). A block taken whole keeps any run
// shape it has; a split one loses it. Caller holds mu.
func (a *Allocator) allocBlockLocked(order int) (Frame, bool) {
	o := order
	for o <= MaxOrder && len(a.freeLists[o]) == 0 {
		o++
	}
	if o > MaxOrder {
		return NoFrame, false
	}
	list := a.freeLists[o]
	base := list[len(list)-1]
	a.freeLists[o] = list[:len(list)-1]
	a.blockOrder[base] = noOrder
	if o > order {
		a.unshapeLocked(base)
	}
	for o > order {
		o--
		a.splits++
		a.pushBlockLocked(base+Frame(1)<<o, o)
	}
	a.buddyFree -= 1 << order
	return base, true
}

// freeBlockLocked returns a block to the buddy lists, coalescing with
// its buddy as long as the buddy is a free block of the same order and
// the merged block stays inside the pool. A run freed whole keeps its
// shape unless it merges. Caller holds mu.
func (a *Allocator) freeBlockLocked(base Frame, order int) {
	a.buddyFree += 1 << order
	for order < MaxOrder {
		size := Frame(1) << order
		buddy := base ^ size
		if buddy < 1 || uint64(buddy)+uint64(size)-1 > a.cfg.Frames {
			break
		}
		if a.blockOrder[buddy] != uint8(order) {
			break
		}
		a.removeBlockLocked(buddy, order)
		if order > 0 { // only a block of two or more frames can be shaped
			a.unshapeLocked(base)
			a.unshapeLocked(buddy)
		}
		a.coalesces++
		if buddy < base {
			base = buddy
		}
		order++
	}
	a.pushBlockLocked(base, order)
}

// shapeLocked gives the free block at base the shape of an order-order
// run, unless it has it already (it was freed whole and has not merged
// since): each tail's word records the head, and the head takes the
// highest generation among the block's frames. The block's frames are
// otherwise all of their own and free. Caller holds mu.
func (a *Allocator) shapeLocked(base Frame, order int) {
	head := uint64(headBit | order<<orderShift)
	hw := a.meta[base].Load()
	if uint32(hw) == uint32(head) {
		return
	}
	gen := hw >> 32
	for f := base + 1; f < base+Frame(1)<<order; f++ {
		w := a.meta[f].Load()
		if uint32(w) != 0 {
			panic(fmt.Sprintf("physmem: frame %d of a free block allocated twice", f))
		}
		gen = max(gen, w>>32)
		a.meta[f].Store(w | tailBit | uint64(order)<<orderShift)
	}
	a.meta[base].Store(gen<<32 | head)
	a.tailsShaped += 1<<order - 1
}

// unshapeLocked materializes the run headed at base, if base heads one:
// each tail becomes a word of its own carrying the head's references,
// generation and owner stamp, tails first, so a concurrent reader sees
// the same values through either word. A live run's words change only
// through the holder of its one reference (FreeRun) or under mu. Caller
// holds mu.
func (a *Allocator) unshapeLocked(base Frame) {
	hw := a.meta[base].Load()
	if uint32(hw)&headBit == 0 {
		return
	}
	n := Frame(1) << shapeOrder(hw)
	plain := hw &^ (headBit | orderMask<<orderShift)
	if ac := a.owner[base].Load(); ac != nil {
		for f := base + 1; f < base+n; f++ {
			a.owner[f].Store(ac)
		}
	}
	for f := base + 1; f < base+n; f++ {
		a.meta[f].Store(plain)
	}
	a.meta[base].Store(plain)
	a.tailsMaterialized += uint64(n - 1)
}

// stamp marks a frame taken from the pool as allocated to ac (nil =
// unaccounted): one Add advances its generation and sets its single
// reference, and the sum shows whether anyone held it already — or
// whether the frame belongs to a run's shape, which a frame handed out on
// its own never does.
func (a *Allocator) stamp(f Frame, ac *Account) {
	if ac != nil {
		a.owner[f].Store(ac)
	}
	if uint32(a.meta[f].Add(1<<32|1)) != 1 {
		panic(fmt.Sprintf("physmem: frame %d allocated twice", f))
	}
}

// drop drops one reference to f on behalf of op and reports whether it
// was the last, in which case the caller owns the frame's way back to a
// pool and returns its charge (unchargeFrame).
func (a *Allocator) drop(f Frame, op string) bool {
	if f == NoFrame || uint64(f) > a.cfg.Frames {
		panic(fmt.Sprintf("physmem: %s of invalid frame %d", op, f))
	}
	return a.dropped(f, a.meta[f].Add(^uint64(0)), op)
}

// dropped judges w, f's word after one reference was subtracted from it.
// A word with no references to give, or a frame of an unsplit run, has
// its subtraction undone and panics.
func (a *Allocator) dropped(f Frame, w uint64, op string) bool {
	switch low := uint32(w); {
	case low == 0:
		return true
	case low <= refsMask:
		return false // other references remain
	}
	// Undo the borrow from the generation half, or from a run's shape.
	if w = a.meta[f].Add(1); uint32(w)&headBit != 0 && w&refsMask != 0 {
		panic(fmt.Sprintf("physmem: %s of frame %d, the head of an unsplit run", op, f))
	}
	panic(fmt.Sprintf("physmem: %s of frame %d with no references", op, f))
}

// word returns the word that speaks for f: its own, or its head's while
// f is a tail of an unsplit run.
func (a *Allocator) word(f Frame) uint64 {
	w := a.meta[f].Load()
	if uint32(w)&tailBit != 0 {
		w = a.meta[headOf(f, w)].Load()
	}
	return w
}

// Allocated reports whether the frame is currently allocated.
func (a *Allocator) Allocated(f Frame) bool {
	return f != NoFrame && uint64(f) <= a.cfg.Frames && a.word(f)&refsMask != 0
}

// Alloc allocates a frame using cpu's magazine. If Backing is enabled
// the frame's buffer is zeroed before return. When both the magazine
// and the buddy lists are empty, Alloc steals frames stranded in other
// CPUs' magazines (DrainMagazines) as a last resort before reporting
// ErrOutOfMemory, so the error means the pool is genuinely exhausted —
// the condition the VM layer answers with direct reclaim.
func (a *Allocator) Alloc(cpu int) (Frame, error) {
	if failAlloc.Fire() {
		a.allocFailures.Add(1)
		return NoFrame, ErrOutOfMemory
	}
	// Charge the bound account before touching the pool: an over-limit
	// tenant must not consume a frame another tenant could have used,
	// even transiently.
	ac := a.accounts[cpu%len(a.mags)].Load()
	if ac != nil && !ac.tryChargeN(1) {
		a.limitFailures.Add(1)
		return NoFrame, ErrOverLimit
	}
	m := &a.mags[cpu%len(a.mags)]
	f, low, err := a.popMagazine(m)
	if err != nil {
		// Pull stranded frames back and retry once, even when this steal
		// came back empty: a concurrent failing allocation may have just
		// drained every magazine, and its haul is in the buddy lists.
		a.DrainMagazines()
		f, low, err = a.popMagazine(m)
	}
	if err != nil {
		a.allocFailures.Add(1)
		if ac != nil {
			ac.unchargeN(1)
		}
		return NoFrame, err
	}
	a.stamp(f, ac)
	m.allocs.Add(1)
	if low { // a refill left the buddy lists below the low watermark: the hit path's only check
		a.notePressure()
	}
	a.zeroBacking(f)
	return f, nil
}

// AllocRun allocates 1<<order contiguous, size-aligned frames and
// returns the first, the run's head. The run is one frame word: a single
// Add on the head's word takes its reference and advances its
// generation, and the head alone is stamped with the account the run was
// charged to (see the package comment for what its tails report). A block
// reused at the order it was freed at writes nothing else. An unsplit run
// returns through FreeRun as one unit — one Add, one uncharge, one block.
// Only SplitRun makes the frames independent: a split huge mapping's
// frames retire one at a time through a TLB gather's FreeBatch, and the
// buddy lists coalesce them back into runs.
//
// A run shortage is reported as ErrNoRun — typed separately from
// ErrOutOfMemory because the pool may hold plenty of fragmented free
// frames; the huge-page fault path answers it by falling back to base
// pages. An account at its frame limit gets ErrOverLimit, charged and
// refused atomically for the whole run.
func (a *Allocator) AllocRun(cpu, order int) (Frame, error) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("physmem: AllocRun order %d out of range", order))
	}
	if order == 0 {
		return a.Alloc(cpu)
	}
	if failRunAlloc.Fire() {
		a.runFailures.Add(1)
		return NoFrame, ErrNoRun
	}
	n := int64(1) << order
	ac := a.accounts[cpu%len(a.mags)].Load()
	if ac != nil && !ac.tryChargeN(n) {
		a.limitFailures.Add(1)
		return NoFrame, ErrOverLimit
	}
	base, _, low := a.allocBlock(order, order, true)
	// Magazine-cached order-0 frames may be exactly the holes keeping a
	// run from coalescing; pull them back and retry once (as Alloc does,
	// whatever this steal itself recovered).
	if base == NoFrame {
		a.DrainMagazines()
		base, _, low = a.allocBlock(order, order, true)
	}
	if base == NoFrame {
		a.runFailures.Add(1)
		if ac != nil {
			ac.unchargeN(n)
		}
		return NoFrame, ErrNoRun
	}
	if ac != nil {
		a.owner[base].Store(ac)
	}
	if uint32(a.meta[base].Add(1<<32|1)) != headBit|uint32(order)<<orderShift|1 {
		panic(fmt.Sprintf("physmem: run %d allocated twice", base))
	}
	if a.backing != nil {
		for f := base; f < base+Frame(n); f++ {
			a.zeroBacking(f)
		}
	}
	a.runAllocs.Add(1)
	a.mags[cpu%len(a.mags)].allocs.Add(uint64(n))
	if low {
		a.notePressure()
	}
	return base, nil
}

// allocBlock takes, under the allocator lock, a free block of order want
// or, when the pool is too fragmented to have one, the largest block of
// at least order least; NoFrame when there is none. run says the block
// becomes one run, shaped (see shapeLocked); otherwise its frames come
// back independent. low reports that the buddy lists are left below the
// low watermark: notePressure is due.
func (a *Allocator) allocBlock(want, least int, run bool) (base Frame, order int, low bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for order = want; order >= least; order-- {
		if b, ok := a.allocBlockLocked(order); ok {
			if run {
				a.shapeLocked(b, order)
			} else {
				a.unshapeLocked(b)
			}
			return b, order, a.buddyFree < a.cfg.LowWater
		}
	}
	return NoFrame, 0, false
}

// SplitRun makes the unsplit run AllocRun handed out at base 1<<order
// independent frames, each carrying the run's references, generation and
// owner stamp — the one place a live run changes shape on purpose, where
// a huge mapping is demoted to base pages. The caller holds the run's
// reference and keeps the frames out of anyone else's reach until it
// returns. A run already split is left as it is.
func (a *Allocator) SplitRun(base Frame, order int) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("physmem: SplitRun order %d out of range", order))
	}
	n := Frame(1) << order
	if base == NoFrame || base%n != 0 || uint64(base)+uint64(n)-1 > a.cfg.Frames {
		panic(fmt.Sprintf("physmem: SplitRun of invalid run %d+%d", base, n))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	switch w := a.meta[base].Load(); {
	case uint32(w)&headBit == 0 && uint32(w) <= refsMask:
		return // independent frames already
	case uint32(w)&headBit == 0 || shapeOrder(w) != order || w&refsMask == 0:
		panic(fmt.Sprintf("physmem: SplitRun of frame %d, not the head of a live order-%d run", base, order))
	}
	a.unshapeLocked(base)
}

// FreeRun drops the one reference of an unsplit run allocated by
// AllocRun — an unsplit huge mapping's run, retired by a TLB gather's run
// entry, or a huge fault's run that was never published. It drops the
// head's reference with one Add, reads the head's owner stamp once,
// uncharges the whole run at once, and frees the one block it was
// allocated as under one lock hold with no coalescing; the block keeps
// its run shape on the free list. Freeing a run twice panics, and so does
// freeing one split since: SplitRun's frames are independent, and retire
// one at a time through FreeBatch. An order-0 run is the frame Alloc
// handed out, and returns through FreeRemote. Like FreeRemote it is safe
// from any goroutine; frames reachable by concurrent RCU readers must
// wait out a grace period first.
func (a *Allocator) FreeRun(base Frame, order int) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("physmem: FreeRun order %d out of range", order))
	}
	if order == 0 {
		a.FreeRemote(base)
		return
	}
	n := Frame(1) << order
	if base == NoFrame || uint64(base)+uint64(n)-1 > a.cfg.Frames {
		panic(fmt.Sprintf("physmem: FreeRun of invalid run %d+%d", base, n))
	}
	w := a.meta[base].Add(^uint64(0))
	if uint32(w)&headBit == 0 {
		a.meta[base].Add(1)
		panic(fmt.Sprintf("physmem: FreeRun of frame %d, a frame of its own: a split run frees through FreeBatch", base))
	}
	// An unsplit run has one reference, so this drop was the last —
	// unless there was none to drop (the Add borrowed from the order).
	if w&refsMask != 0 || shapeOrder(w) != order {
		a.meta[base].Add(1)
		panic(fmt.Sprintf("physmem: FreeRun of run %d with no references, or not of order %d", base, order))
	}
	a.unchargeRun(base, n)
	a.remoteFrees.Add(uint64(n))
	a.mu.Lock()
	a.freeBlockLocked(base, order)
	a.mu.Unlock()
	a.rearmPressure()
}

func (a *Allocator) zeroBacking(f Frame) {
	if a.backing == nil {
		return
	}
	buf := a.backing[f].Load()
	if buf == nil {
		buf = new([PageSize]byte)
		a.backing[f].Store(buf)
	} else {
		*buf = [PageSize]byte{}
	}
}

// popMagazine takes one frame from m, refilling it from the buddy
// lists when empty; low reports a refill that left the buddy lists
// below the low watermark.
func (a *Allocator) popMagazine(m *magazine) (f Frame, low bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.frames) == 0 {
		if low, err = a.refill(m); err != nil {
			return NoFrame, false, err
		}
	}
	f = m.frames[len(m.frames)-1]
	m.frames = m.frames[:len(m.frames)-1]
	return f, low, nil
}

// refill moves one buddy block into m as order-0 frames: the largest
// order that fits half a magazine (split off a larger block if need be),
// a smaller one from a fragmented pool, down to the last single frame.
// The caller holds m.mu: the lock order is always magazine lock before
// the global lock (DrainMagazines collects under the magazine locks
// first and pushes afterwards).
func (a *Allocator) refill(m *magazine) (low bool, err error) {
	base, order, low := a.allocBlock(bits.Len(uint(max(a.cfg.MagazineSize/2, 1)))-1, 0, false)
	if base == NoFrame {
		return false, ErrOutOfMemory
	}
	for f := base; f < base+Frame(1)<<order; f++ {
		m.frames = append(m.frames, f)
	}
	a.refills.Add(1)
	return low, nil
}

// DrainMagazines steals every frame cached in the per-CPU magazines
// back into the buddy lists (coalescing as it goes) and returns how
// many were recovered. The reclaim subsystem calls it before evicting
// pages, and Alloc calls it as a last resort, so frames stranded in an
// idle CPU's magazine can never cause a spurious ErrOutOfMemory;
// AllocRun calls it so magazine-cached frames can never hold a
// coalesceable run hostage.
func (a *Allocator) DrainMagazines() int {
	if failDrain.Fire() {
		return 0
	}
	// One steal at a time: a steal that finds the magazines already
	// emptied returns only after the steal that emptied them has pushed
	// its haul, so the retry of a failed allocation behind it finds the
	// frames in the buddy lists instead of reporting exhaustion.
	a.drainMu.Lock()
	defer a.drainMu.Unlock()
	var stolen []Frame
	for i := range a.mags {
		m := &a.mags[i]
		m.mu.Lock()
		if len(m.frames) > 0 {
			stolen = append(stolen, m.frames...)
			m.frames = m.frames[:0]
		}
		m.mu.Unlock()
	}
	if len(stolen) == 0 {
		return 0
	}
	a.mu.Lock()
	for _, f := range stolen {
		a.freeBlockLocked(f, 0)
	}
	a.mu.Unlock()
	a.drains.Add(1)
	a.drained.Add(uint64(len(stolen)))
	return len(stolen)
}

// Ref takes an additional reference on an allocated frame (fork's
// copy-on-write page sharing). A frame of an unsplit run has no
// references of its own to share — a tail none, the head the whole run's
// one — so Ref of one panics, like Free of one: the run is split first
// (SplitRun), as a huge mapping is demoted before its frames are shared.
func (a *Allocator) Ref(f Frame) {
	if f == NoFrame || uint64(f) > a.cfg.Frames {
		panic(fmt.Sprintf("physmem: Ref of invalid frame %d", f))
	}
	if low := uint32(a.meta[f].Add(1)); low >= 2 && low <= refsMask {
		return
	}
	if w := a.meta[f].Add(^uint64(0)); uint32(w)&headBit != 0 && w&refsMask != 0 {
		panic(fmt.Sprintf("physmem: Ref of frame %d, the head of an unsplit run", f))
	}
	panic(fmt.Sprintf("physmem: Ref of frame %d with no references", f))
}

// Refs returns the frame's current reference count (a COW break with a
// single reference can simply re-own the page).
func (a *Allocator) Refs(f Frame) int32 { return int32(a.word(f) & refsMask) }

// Free drops one reference to the frame; the frame returns to cpu's
// magazine when the last reference is dropped. A magazine that
// overflows spills its older half to the buddy lists and keeps the
// frames freed last — the cache-warm ones — for the next allocations,
// as the kernel's per-CPU lists do.
//
// Frames reachable by concurrent RCU readers must not be passed to Free
// until a grace period has elapsed (use rcu.Domain.Defer); the frame
// word turns violations into panics when the frame is reused.
func (a *Allocator) Free(cpu int, f Frame) {
	if !a.drop(f, "Free") {
		return
	}
	a.unchargeFrame(f)
	m := &a.mags[cpu%len(a.mags)]
	m.frees.Add(1)
	m.mu.Lock()
	m.frames = append(m.frames, f)
	if len(m.frames) > a.cfg.MagazineSize {
		spill := len(m.frames) / 2
		a.mu.Lock()
		for _, sf := range m.frames[:spill] {
			a.freeBlockLocked(sf, 0)
		}
		a.mu.Unlock()
		m.frames = m.frames[:copy(m.frames, m.frames[spill:])]
	}
	m.mu.Unlock()
	a.rearmPressure()
}

// FreeRemote drops one reference like Free, but returns a final frame
// directly to the buddy lists under the allocator lock. Unlike Free it
// is safe from any goroutine, which is what RCU callbacks need: a
// deferred free runs on whichever goroutine drives the grace period,
// not on the CPU that queued it.
func (a *Allocator) FreeRemote(f Frame) { a.FreeBatch([]Frame{f}) }

// FreeBatch drops one reference from each frame, returning every frame
// whose last reference dropped to the buddy lists under a single
// allocator-lock acquisition — the batched analogue of FreeRemote the
// TLB-gather flush path uses, so a 1024-page unmap pays one lock round
// instead of 1024. Freed frames coalesce with their buddies, so the
// zap of a split huge mapping reassembles the 2 MiB run frame by frame
// (an unsplit run skips that: it returns through FreeRun, and a frame of
// one here panics). Like
// FreeRemote it is safe from any goroutine, and frames reachable by
// concurrent RCU readers must not reach it until a grace period has
// elapsed.
func (a *Allocator) FreeBatch(frames []Frame) {
	final := 0
	for _, f := range frames {
		if a.drop(f, "FreeBatch") {
			a.unchargeFrame(f)
			frames[final] = f
			final++
		}
	}
	if final == 0 {
		return
	}
	a.remoteFrees.Add(uint64(final))
	a.mu.Lock()
	for _, f := range frames[:final] {
		a.freeBlockLocked(f, 0)
	}
	a.mu.Unlock()
	a.rearmPressure()
}

// Gen returns the frame's allocation generation: greater after each
// allocation of the frame than after the one before (modulo 2^32 — the
// upper half of the frame's word, or of its run head's), and constant
// while it stays allocated, so an observer holding a frame number can
// detect a free-and-recycle behind its back.
func (a *Allocator) Gen(f Frame) uint64 {
	if f == NoFrame || uint64(f) > a.cfg.Frames {
		panic(fmt.Sprintf("physmem: Gen of invalid frame %d", f))
	}
	return a.word(f) >> 32
}

// AuditBuddy validates the buddy structure: every free block is
// size-aligned and in range, its bookkeeping (blockOrder/blockIdx)
// matches its list position, no two free blocks overlap, no free
// block's frame is marked allocated, and coalescing is maximal (no two
// buddies sit free at the same order). Tests and the fuzz harness call
// it at quiesce points; it takes the allocator lock for the duration.
func (a *Allocator) AuditBuddy() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	seen := make(map[Frame]bool)
	for order := 0; order <= MaxOrder; order++ {
		size := Frame(1) << order
		for idx, base := range a.freeLists[order] {
			if base < 1 || uint64(base)+uint64(size)-1 > a.cfg.Frames {
				return fmt.Errorf("order-%d block %d out of range", order, base)
			}
			if uint64(base)%uint64(size) != 0 {
				return fmt.Errorf("order-%d block %d misaligned", order, base)
			}
			if a.blockOrder[base] != uint8(order) {
				return fmt.Errorf("block %d order mismatch: list %d, tag %d", base, order, a.blockOrder[base])
			}
			if a.blockIdx[base] != int32(idx) {
				return fmt.Errorf("block %d index mismatch: at %d, tag %d", base, idx, a.blockIdx[base])
			}
			for f := base; f < base+size; f++ {
				if seen[f] {
					return fmt.Errorf("frame %d in two free blocks", f)
				}
				seen[f] = true
				if a.Allocated(f) {
					return fmt.Errorf("frame %d free in order-%d block but marked allocated", f, order)
				}
			}
			if order < MaxOrder {
				buddy := base ^ size
				if buddy >= 1 && uint64(buddy)+uint64(size)-1 <= a.cfg.Frames &&
					a.blockOrder[buddy] == uint8(order) {
					return fmt.Errorf("order-%d buddies %d and %d both free (missed coalesce)", order, base, buddy)
				}
			}
		}
	}
	return nil
}

// notePressure publishes one wake-up token when free frames fall below
// the low watermark. Callers reach it only once the buddy lists alone
// hold fewer (buddyFree): the sum over every magazine's cells is paid
// near the watermark and nowhere else. The latch keeps sustained
// pressure from spinning on the channel; rearmPressure resets it once
// frees lift the level back above the high watermark.
func (a *Allocator) notePressure() {
	if a.FreeFrames() >= int64(a.cfg.LowWater) {
		return
	}
	if a.lowHit.CompareAndSwap(false, true) {
		a.pressureEvents.Add(1)
		select {
		case a.pressure <- struct{}{}:
		default:
		}
	}
}

func (a *Allocator) rearmPressure() {
	if !a.lowHit.Load() { // set only by notePressure: never without a watermark
		return
	}
	// >= matches the reclaimer's stopping condition: it balances until
	// free frames reach the high watermark, and stopping exactly there
	// must re-arm the latch or the next low-watermark crossing would
	// publish no token.
	if a.FreeFrames() >= int64(a.cfg.HighWater) {
		a.lowHit.Store(false)
	}
}

// Pressure returns the low-watermark wake-up channel: one token is
// published each time free frames sink below the low watermark (after
// having recovered above the high one). The background reclaimer
// blocks on it.
func (a *Allocator) Pressure() <-chan struct{} { return a.pressure }

// counts sums the per-magazine allocation counters. Frees are read
// first: every free counted follows its frame's alloc, which the allocs
// pass then cannot miss, so a reading never shows more frees than
// allocs. A frame freed and reallocated during the allocs pass would be
// counted allocated twice, so, as a seqcount reader does, counts reads
// the frees again and retries until they did not move: no free ran
// during the allocs pass, and allocs − frees is a count the pool held.
// At quiesce both sums are exact.
func (a *Allocator) counts() (allocs, frees uint64) {
	frees = a.frees()
	for {
		countsPass.Yield()
		allocs = 0
		for i := range a.mags {
			allocs += a.mags[i].allocs.Load()
		}
		again := a.frees()
		if again == frees {
			return allocs, frees
		}
		frees = again
	}
}

func (a *Allocator) frees() uint64 {
	n := a.remoteFrees.Load()
	for i := range a.mags {
		n += a.mags[i].frees.Load()
	}
	return n
}

// CPUCounts returns the allocation counters of cpu's magazine alone
// (for the shared-write audit).
func (a *Allocator) CPUCounts(cpu int) (allocs, frees uint64) {
	m := &a.mags[cpu%len(a.mags)]
	return m.allocs.Load(), m.frees.Load()
}

// FreeFrames returns the number of unallocated frames, counting frames
// cached in per-CPU magazines (DrainMagazines can always recover those).
func (a *Allocator) FreeFrames() int64 { return int64(a.cfg.Frames) - a.InUse() }

// FreeRuns returns the number of free order-`order` blocks currently on
// that buddy list (not counting larger blocks that could split): how
// many huge faults or collapses could get a run without splitting one.
func (a *Allocator) FreeRuns(order int) int {
	if order < 0 || order > MaxOrder {
		return 0
	}
	a.mu.Lock()
	n := len(a.freeLists[order])
	a.mu.Unlock()
	return n
}

// NumFrames returns the configured pool size in frames.
func (a *Allocator) NumFrames() uint64 { return a.cfg.Frames }

// NumCPUs returns the number of per-CPU magazines (the cpu arguments' range).
func (a *Allocator) NumCPUs() int { return len(a.mags) }

// LowWater returns the configured low watermark in frames (0 = none).
func (a *Allocator) LowWater() uint64 { return a.cfg.LowWater }

// HighWater returns the configured high watermark in frames.
func (a *Allocator) HighWater() uint64 { return a.cfg.HighWater }

// Backed reports whether frames carry real data buffers.
func (a *Allocator) Backed() bool { return a.backing != nil }

// Data returns the backing buffer of an allocated frame. It panics if
// Backing was not enabled.
func (a *Allocator) Data(f Frame) *[PageSize]byte {
	if a.backing == nil {
		panic("physmem: Data without Config.Backing")
	}
	return a.backing[f].Load()
}

// InUse returns the number of currently allocated frames: allocations
// minus final frees, summed over the magazines' cells.
func (a *Allocator) InUse() int64 {
	allocs, frees := a.counts()
	return int64(allocs - frees)
}

// Stats is a snapshot of allocator counters.
type Stats struct {
	Allocs         uint64
	Frees          uint64
	Refills        uint64 // buddy-list refills of a magazine (the contended path)
	Drains         uint64 // DrainMagazines calls that recovered frames
	Drained        uint64 // frames recovered from magazines
	RunAllocs      uint64 // contiguous runs handed out by AllocRun (order > 0)
	RunFailures    uint64 // AllocRuns refused for lack of a contiguous block
	BuddySplits    uint64 // blocks split to satisfy a smaller order
	BuddyCoalesces uint64 // buddy merges performed on free
	// TailsShaped counts tail words pointed at their head when a block
	// took a run's shape; TailsMaterialized, tail words made independent
	// again (SplitRun, or the buddy lists splitting or
	// merging a shaped free block). Neither moves on a fault, an order-0
	// path, or a run reused at the order it was freed at.
	TailsShaped       uint64
	TailsMaterialized uint64
	AllocFailures     uint64 // Allocs that returned ErrOutOfMemory
	LimitFailures     uint64 // Allocs refused at an account limit (ErrOverLimit)
	PressureEvents    uint64 // low-watermark crossings signaled
	InUse             int64
	Free              int64 // unallocated frames (buddy lists + magazines)
}

// Stats returns a snapshot of the allocator's counters.
func (a *Allocator) Stats() Stats {
	allocs, frees := a.counts()
	inUse := int64(allocs - frees)
	a.mu.Lock()
	splits, coalesces := a.splits, a.coalesces
	shaped, materialized := a.tailsShaped, a.tailsMaterialized
	a.mu.Unlock()
	return Stats{
		Allocs:            allocs,
		Frees:             frees,
		Refills:           a.refills.Load(),
		Drains:            a.drains.Load(),
		Drained:           a.drained.Load(),
		RunAllocs:         a.runAllocs.Load(),
		RunFailures:       a.runFailures.Load(),
		BuddySplits:       splits,
		BuddyCoalesces:    coalesces,
		TailsShaped:       shaped,
		TailsMaterialized: materialized,
		AllocFailures:     a.allocFailures.Load(),
		LimitFailures:     a.limitFailures.Load(),
		PressureEvents:    a.pressureEvents.Load(),
		InUse:             inUse,
		Free:              int64(a.cfg.Frames) - inUse,
	}
}
