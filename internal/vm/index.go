package vm

import (
	"bonsai/internal/core"
	"bonsai/internal/locks"
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
	// edit applies one mapping operation's changes, in order, under one
	// hold of the index's writer lock: each edit inserts its VMA at its
	// start (replacing the VMA keyed there, if any) or deletes the VMA
	// keyed by its start.
	edit(edits []regionEdit)
	// floor returns the VMA with the greatest start <= addr.
	floor(addr uint64) *vma.VMA
	// ceiling returns the VMA with the smallest start >= addr.
	ceiling(addr uint64) *vma.VMA
	// ascendRange visits VMAs with start in [lo, hi) in order; fn must
	// not write the index.
	ascendRange(lo, hi uint64, fn func(*vma.VMA) bool)
	count() int
}

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

func (i *rbIndex) floor(addr uint64) *vma.VMA {
	if i.sem != nil {
		i.sem.RLock()
		defer i.sem.RUnlock()
	}
	_, v, _ := i.t.Floor(addr)
	return v
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

// bonsaiIndex wraps the BONSAI tree: every read is lock-free, following
// the RCU-published root (count reads its writer-maintained size); an
// operation's edits are one write transaction — one hold of the tree's
// writer mutex, which serializes structural changes from concurrent
// disjoint mapping operations, and one root publish, so a fault sees
// the operation's whole effect on the tree or none of it.
type bonsaiIndex struct {
	t *core.Tree[*vma.VMA]
}

func (i *bonsaiIndex) edit(edits []regionEdit) { i.t.Update(edits) }

func (i *bonsaiIndex) floor(addr uint64) *vma.VMA {
	_, v, _ := i.t.Floor(addr)
	return v
}

func (i *bonsaiIndex) ceiling(addr uint64) *vma.VMA {
	_, v, _ := i.t.Ceiling(addr)
	return v
}

func (i *bonsaiIndex) ascendRange(lo, hi uint64, fn func(*vma.VMA) bool) {
	i.t.AscendRange(lo, hi, func(_ uint64, v *vma.VMA) bool { return fn(v) })
}

func (i *bonsaiIndex) count() int { return i.t.Len() }
