package vm

import (
	"runtime"
	"sync"
	"sync/atomic"

	"bonsai/internal/core"
	"bonsai/internal/ranges"
	"bonsai/internal/tlb"
	"bonsai/internal/vma"
)

// opCtx is what one mapping operation needs besides the VMAs and tree
// nodes it publishes, so that it allocates nothing else: its range-lock
// guard, its TLB gather, its scratch lists, and a slot. Contexts are
// pooled per processor (opPool): an operation takes one for its whole
// run — mapOp does that for the four mapping calls; fork, Close and
// stack growth, which enter the mapping side elsewhere, borrow one the
// same way — and returns it with everything released.
//
// The slot is the operation's stand-in for a CPU id, which a mapping
// operation (callable from any goroutine) does not have: it picks the
// cells of the per-slot counters and histogram the operation writes
// (statsCounters, tlb.Domain) and the RCU shard its deferred frees queue
// on. Two operations in flight hold two contexts and so two slots; a
// processor keeps getting its own context back, so concurrent operations
// on disjoint ranges write lines of their own and retire on shards of
// their own. Slots are small integers handed out round-robin as the pool
// grows and used modulo the cell or shard count, so when contexts come
// and go (the pool empties at a garbage collection) two live slots can
// collide — slower, never wrong: every cell is atomic.
type opCtx struct {
	slot   int
	guard  ranges.Guard
	gather tlb.Gather

	overlaps []*vma.VMA          // the VMAs an operation's range intersects
	collect  func(*vma.VMA) bool // appends to overlaps; built once, as the index's visitor escapes
	edits    []regionEdit        // the region-tree transaction it is building
}

// regionEdit is one step of a region-tree transaction: insert (or
// replace) the VMA Val at Key, its start, or delete the VMA keyed Key.
type regionEdit = core.Edit[*vma.VMA]

var (
	opSlots atomic.Uint32
	opPool  = sync.Pool{New: func() any {
		op := &opCtx{slot: int(opSlots.Add(1)-1) % maxOpSlots}
		op.collect = func(v *vma.VMA) bool {
			op.overlaps = append(op.overlaps, v)
			return true
		}
		return op
	}}
)

// maxOpSlots bounds slot numbers (they travel in 16-bit trace fields);
// mapSlotCells is how many cells each per-slot counter has: one per
// processor, capped so a machine of many address spaces on a large host
// does not spend megabytes on histograms.
const maxOpSlots = 1 << 12

func mapSlotCells() int { return min(runtime.GOMAXPROCS(0), 16) }

// beginOp takes a context for one operation on as, its gather bound to
// the machine's shootdown domain and the context's slot.
func (as *AddressSpace) beginOp() *opCtx {
	op := opPool.Get().(*opCtx)
	as.fam.ms.tlb.Init(&op.gather, op.slot)
	return op
}

// end returns the context. The operation has released its guard,
// flushed its gather and committed its edits; the overlap list drops
// its VMAs so the pool pins nothing.
func (op *opCtx) end() {
	clear(op.overlaps)
	op.overlaps = op.overlaps[:0]
	opPool.Put(op)
}

// collectOverlaps fills op.overlaps with the VMAs intersecting [lo, hi),
// in address order: possibly one straddling lo, plus all that start
// inside.
func (as *AddressSpace) collectOverlaps(op *opCtx, lo, hi uint64) []*vma.VMA {
	op.overlaps = op.overlaps[:0]
	if v := as.idx.floor(lo); v != nil && v.Start() < lo && v.Overlaps(lo, hi) {
		op.overlaps = append(op.overlaps, v)
	}
	as.idx.ascendRange(lo, hi, op.collect)
	return op.overlaps
}

// commit ends the region changes of an operation: it applies the
// transaction op has built to the region tree — one hold of the index's
// writer lock for the whole operation — and empties it, and drops the
// mmap cache, which may hold a VMA the operation deleted or trimmed
// (the RCU designs run without the cache, so they never write that
// shared line).
func (as *AddressSpace) commit(op *opCtx) {
	if len(op.edits) > 0 {
		as.idx.edit(op.slot, op.edits)
		clear(op.edits)
		op.edits = op.edits[:0]
	}
	if as.mmapCacheOn {
		as.mmapCache.Store(nil)
	}
}
