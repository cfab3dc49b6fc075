package vm

import (
	"cmp"
	"slices"

	"bonsai/internal/core"
	"bonsai/internal/locks"
	"bonsai/internal/ranges"
	"bonsai/internal/vma"
)

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

// regionIndex is the region tree of Figure 1, keyed by VMA start
// address, and the same in every design: one BONSAI tree per range-lock
// stripe, so mapping operations on disjoint stripes write disjoint
// trees — no writer lock, root or node in common. trees[s] holds every
// VMA whose start lies in a span of stripe s (ranges.Stripe). A VMA
// whose extent crosses a span boundary is also reachable from the spans
// above its start, so it is kept in one more tree, crossing, keyed by
// start as well: every live VMA that crosses a boundary is in it, and no
// deleted one is. A VMA that has only shrunk since it crossed may stay,
// which is harmless: lookup checks bounds.
//
// Every read follows RCU-published roots and needs no lock of the
// tree's. A fault's lookup is one descent of its stripe's tree, falling
// back to crossing only on a miss. An operation's edits are one write
// transaction per tree it touches (ordered as the operation made them),
// so atomicity to readers is per tree: a lookup may see one tree's half
// of an operation without the other's. Every such state is one the
// fault side already tolerates — a miss, or a VMA deleted or trimmed
// under it — and it retries with the page pinned (§5.2, Figure 10).
//
// The synchronization policy builds the index (syncPolicy.init) and
// decides what else protects it. sem is Hybrid's tree lock (§5.2),
// taken by the index itself: read mode once per lookup, ceiling,
// ascendRange and count, faults and mapping operations alike, and write
// mode once per edit. It is nil under the other designs: the trees need
// no lock to be read beside a writer (§5.3), and RWLock's and
// FaultLock's semaphores keep their writers from readers anyway.
type regionIndex struct {
	trees    [stripes]*core.Tree[*vma.VMA]
	crossing *core.Tree[*vma.VMA]
	sem      *locks.RWSem
}

func newRegionIndex(sem *locks.RWSem) *regionIndex {
	i := &regionIndex{crossing: core.New[*vma.VMA](), sem: sem}
	for s := range i.trees {
		i.trees[s] = core.New[*vma.VMA]()
	}
	return i
}

// rlock and runlock bracket one read: Hybrid's tree lock in read mode,
// nothing under the other designs.
func (i *regionIndex) rlock() {
	if i.sem != nil {
		i.sem.RLock()
	}
}

func (i *regionIndex) runlock() {
	if i.sem != nil {
		i.sem.RUnlock()
	}
}

func (i *regionIndex) tree(addr uint64) *core.Tree[*vma.VMA] { return i.trees[ranges.Stripe(addr)] }

// edit applies one mapping operation's changes: each edit inserts its
// VMA at its start (replacing the VMA keyed there, if any) or deletes
// the VMA keyed by its start. It applies them as one transaction per
// touched tree, reordering edits of different trees: the stripes'
// trees in the order the operation first touched them, then crossing,
// whose own edits follow the invariant. An insert puts a VMA that
// crosses a boundary into crossing and otherwise removes whatever
// crossing holds at its key; a delete removes its key from crossing.
// crossing is only read — lock-free — unless it has to change, so an
// address space with no crossing VMA never writes it. Under Hybrid the
// whole edit holds the tree lock in write mode.
func (i *regionIndex) edit(edits []regionEdit) {
	if i.sem != nil {
		i.sem.Lock()
		defer i.sem.Unlock()
	}
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

// lookup returns the VMA whose bounds contain addr, deleted or not, or
// nil.
func (i *regionIndex) lookup(addr uint64) *vma.VMA {
	i.rlock()
	v := holding(i.tree(addr), addr)
	if v == nil {
		v = holding(i.crossing, addr)
	}
	i.runlock()
	return v
}

// holding returns t's VMA whose current bounds contain addr, deleted or
// not, or nil.
func holding(t *core.Tree[*vma.VMA], addr uint64) *vma.VMA {
	if _, v, ok := t.Floor(addr); ok && v.Start() <= addr && addr < v.End() {
		return v
	}
	return nil
}

// ceiling returns the VMA with the smallest start >= addr. It walks the
// spans upward from addr's, one per tree: the first span holding a
// start at or above addr holds the answer. A tree whose span held none
// still answered with its next start further up, in a later span of the
// same stripe; after all sixteen the least of those is the answer.
func (i *regionIndex) ceiling(addr uint64) *vma.VMA {
	var best *vma.VMA
	i.rlock()
	for n := span(addr); n < span(addr)+stripes && n < span(MaxAddress); n++ {
		k, v, ok := i.trees[n%stripes].Ceiling(max(addr, n<<spanShift))
		if ok && span(k) == n {
			best = v
			break
		}
		if ok && (best == nil || k < best.Start()) {
			best = v
		}
	}
	i.runlock()
	return best
}

// ascendRange visits the VMAs with start in [lo, hi) in order; fn must
// not write the index. It walks the interval span by span, each span
// one range of its stripe's tree. Over more than sixteen spans it skips
// the empty ones: the next span visited is the one holding the least of
// the trees' next starts.
func (i *regionIndex) ascendRange(lo, hi uint64, fn func(*vma.VMA) bool) {
	more := true
	visit := func(_ uint64, v *vma.VMA) bool {
		more = fn(v)
		return more
	}
	i.rlock()
	for lo < hi && more {
		if span(hi-1)-span(lo) >= stripes {
			next, ok := i.nextStart(lo)
			if !ok || next >= hi {
				break
			}
			lo = next
		}
		end := min(hi, (span(lo)+1)<<spanShift)
		i.tree(lo).AscendRange(lo, end, visit)
		lo = end
	}
	i.runlock()
}

// nextStart returns the least start at or above addr over all trees.
func (i *regionIndex) nextStart(addr uint64) (uint64, bool) {
	var next uint64
	found := false
	for _, t := range i.trees {
		if k, _, ok := t.Ceiling(addr); ok && (!found || k < next) {
			next, found = k, true
		}
	}
	return next, found
}

func (i *regionIndex) count() int {
	n := 0
	i.rlock()
	for _, t := range i.trees {
		n += t.Len()
	}
	i.runlock()
	return n
}
