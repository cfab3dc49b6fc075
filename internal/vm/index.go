package vm

import (
	"cmp"
	"slices"

	"bonsai/internal/core"
	"bonsai/internal/locks"
	"bonsai/internal/ranges"
	"bonsai/internal/rbtree"
	"bonsai/internal/vma"
)

// regionIndex is the region tree of Figure 1, keyed by VMA start
// address. The synchronization policy builds it (syncPolicy.init) and
// decides what protects it: a tree with no lock of its own is only
// ever touched under a semaphore that excludes its writers; the others
// let faults, scanners and disjoint mapping operations read while one
// operation writes.
type regionIndex interface {
	// edit applies one mapping operation's changes in order: each edit
	// inserts its VMA at its start (replacing the VMA keyed there, if
	// any) or deletes the VMA keyed by its start. edit may reorder
	// edits of different keys within the slice.
	edit(edits []regionEdit)
	// lookup returns the VMA whose bounds contain addr, deleted or not,
	// or nil.
	lookup(addr uint64) *vma.VMA
	// ceiling returns the VMA with the smallest start >= addr.
	ceiling(addr uint64) *vma.VMA
	// ascendRange visits VMAs with start in [lo, hi) in order; fn must
	// not write the index.
	ascendRange(lo, hi uint64, fn func(*vma.VMA) bool)
	count() int
}

// bounds reports whether addr lies in v's current bounds, whether or
// not v is deleted.
func bounds(v *vma.VMA, addr uint64) bool { return v.Start() <= addr && addr < v.End() }

// rbIndex wraps the mutable red-black tree. With sem (Hybrid's tree
// lock, §5.2) every mutation takes it in write mode and every read in
// read mode, faults and mapping operations alike: under range locking a
// disjoint operation may be writing. Without sem (RWLock, FaultLock) the
// caller's semaphore is the only protection.
type rbIndex struct {
	t   *rbtree.Tree[*vma.VMA]
	sem *locks.RWSem
}

func (i *rbIndex) edit(edits []regionEdit) {
	if i.sem != nil {
		i.sem.Lock()
		defer i.sem.Unlock()
	}
	for _, e := range edits {
		if e.Delete {
			i.t.Delete(e.Key)
		} else {
			i.t.Insert(e.Key, e.Val)
		}
	}
}

func (i *rbIndex) lookup(addr uint64) *vma.VMA {
	if i.sem != nil {
		i.sem.RLock()
		defer i.sem.RUnlock()
	}
	if _, v, ok := i.t.Floor(addr); ok && bounds(v, addr) {
		return v
	}
	return nil
}

func (i *rbIndex) ceiling(addr uint64) *vma.VMA {
	if i.sem != nil {
		i.sem.RLock()
		defer i.sem.RUnlock()
	}
	_, v, _ := i.t.Ceiling(addr)
	return v
}

func (i *rbIndex) ascendRange(lo, hi uint64, fn func(*vma.VMA) bool) {
	if i.sem != nil {
		i.sem.RLock()
		defer i.sem.RUnlock()
	}
	i.t.AscendRange(lo, hi, func(_ uint64, v *vma.VMA) bool { return fn(v) })
}

func (i *rbIndex) count() int {
	if i.sem != nil {
		i.sem.RLock()
		defer i.sem.RUnlock()
	}
	return i.t.Len()
}

// The spans of the address space, as the range manager cuts them: span
// n is [n<<spanShift, (n+1)<<spanShift), and its VMAs' tree is
// trees[n%stripes].
const (
	spanShift = ranges.StripeShift
	stripes   = ranges.StripeCount
)

// span returns the index of the span holding addr.
func span(addr uint64) uint64 { return addr >> spanShift }

// crosses reports whether v's extent crosses a span boundary.
func crosses(v *vma.VMA) bool { return span(v.Start()) != span(v.End()-1) }

// bonsaiIndex is PureRCU's region index: one BONSAI tree per range-lock
// stripe, so mapping operations on disjoint stripes write disjoint trees
// — no writer lock, root or node in common. trees[s] holds every VMA
// whose start lies in a span of stripe s (ranges.Stripe). A VMA whose
// extent crosses a span boundary is also reachable from the spans above
// its start, so it is kept in one more tree, crossing, keyed by start as
// well: every live VMA that crosses a boundary is in it, and no deleted
// one is. A VMA that has only shrunk since it crossed may stay, which is
// harmless: lookup checks bounds.
//
// Every read is lock-free, following RCU-published roots. A fault's
// lookup is one descent of its stripe's tree, falling back to crossing
// only on a miss. An operation's edits are one write transaction per
// tree it touches (ordered as the operation made them), so atomicity to
// readers is per tree: a lookup may see one tree's half of an operation
// without the other's. Every such state is one the fault side already
// tolerates — a miss, or a VMA deleted or trimmed under it — and it
// retries with the page pinned (§5.2, Figure 10).
type bonsaiIndex struct {
	trees    [stripes]*core.Tree[*vma.VMA]
	crossing *core.Tree[*vma.VMA]
}

func newBonsaiIndex() *bonsaiIndex {
	i := &bonsaiIndex{crossing: core.New[*vma.VMA]()}
	for s := range i.trees {
		i.trees[s] = core.New[*vma.VMA]()
	}
	return i
}

func (i *bonsaiIndex) tree(addr uint64) *core.Tree[*vma.VMA] { return i.trees[ranges.Stripe(addr)] }

// edit applies edits as one transaction per touched tree: the stripes'
// trees in the order the operation first touched them, then crossing,
// whose own edits follow the invariant. An insert puts a VMA that
// crosses a boundary into crossing and otherwise removes whatever
// crossing holds at its key; a delete removes its key from crossing.
// crossing is only read — lock-free — unless it has to change, so an
// address space with no crossing VMA never writes it.
func (i *bonsaiIndex) edit(edits []regionEdit) {
	var buf [4]regionEdit
	cross := buf[:0]
	for _, e := range edits {
		if !e.Delete && crosses(e.Val) {
			cross = append(cross, e)
		} else if i.crossing.Contains(e.Key) || slices.ContainsFunc(cross, func(c regionEdit) bool { return c.Key == e.Key }) {
			cross = append(cross, regionEdit{Key: e.Key, Delete: true})
		}
	}
	first := ranges.Stripe(edits[0].Key)
	if slices.ContainsFunc(edits, func(e regionEdit) bool { return ranges.Stripe(e.Key) != first }) {
		// Group by tree, keeping each tree's edits in order.
		var rank [stripes]int
		n := 0
		for _, e := range edits {
			if s := ranges.Stripe(e.Key); rank[s] == 0 {
				n++
				rank[s] = n
			}
		}
		slices.SortStableFunc(edits, func(a, b regionEdit) int {
			return cmp.Compare(rank[ranges.Stripe(a.Key)], rank[ranges.Stripe(b.Key)])
		})
	}
	for len(edits) > 0 {
		s := ranges.Stripe(edits[0].Key)
		n := 1
		for n < len(edits) && ranges.Stripe(edits[n].Key) == s {
			n++
		}
		i.trees[s].Update(edits[:n])
		edits = edits[n:]
	}
	if len(cross) > 0 {
		i.crossing.Update(cross)
	}
}

func (i *bonsaiIndex) lookup(addr uint64) *vma.VMA {
	if _, v, ok := i.tree(addr).Floor(addr); ok && bounds(v, addr) {
		return v
	}
	if _, v, ok := i.crossing.Floor(addr); ok && bounds(v, addr) {
		return v
	}
	return nil
}

// ceiling walks the spans upward from addr's, one per tree: the first
// span holding a start at or above addr holds the answer. A tree whose
// span held none still answered with its next start further up, in a
// later span of the same stripe; after all sixteen the least of those
// is the answer.
func (i *bonsaiIndex) ceiling(addr uint64) *vma.VMA {
	var best *vma.VMA
	for n := span(addr); n < span(addr)+stripes && n < span(MaxAddress); n++ {
		k, v, ok := i.trees[n%stripes].Ceiling(max(addr, n<<spanShift))
		switch {
		case !ok:
		case span(k) == n:
			return v
		case best == nil || k < best.Start():
			best = v
		}
	}
	return best
}

// ascendRange walks [lo, hi) span by span, each span one range of its
// stripe's tree. Over more than sixteen spans it skips the empty ones:
// the next span visited is the one holding the least of the trees'
// next starts.
func (i *bonsaiIndex) ascendRange(lo, hi uint64, fn func(*vma.VMA) bool) {
	more := true
	visit := func(_ uint64, v *vma.VMA) bool {
		more = fn(v)
		return more
	}
	for lo < hi && more {
		if span(hi-1)-span(lo) >= stripes {
			next, ok := i.nextStart(lo)
			if !ok || next >= hi {
				return
			}
			lo = next
		}
		end := min(hi, (span(lo)+1)<<spanShift)
		i.tree(lo).AscendRange(lo, end, visit)
		lo = end
	}
}

// nextStart returns the least start at or above addr over all trees.
func (i *bonsaiIndex) nextStart(addr uint64) (uint64, bool) {
	var next uint64
	found := false
	for _, t := range i.trees {
		if k, _, ok := t.Ceiling(addr); ok && (!found || k < next) {
			next, found = k, true
		}
	}
	return next, found
}

func (i *bonsaiIndex) count() int {
	n := 0
	for _, t := range i.trees {
		n += t.Len()
	}
	return n
}
