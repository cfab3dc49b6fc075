package core

import "fmt"

// Stats is a snapshot of the tree's writer-side counters. The paper
// reports that with weight 4 and the §3.3 optimization, insertion costs
// about 2 allocations, 1 free, and 0.35 rotations on average regardless
// of tree size; these counters let tests and benchmarks verify that.
type Stats struct {
	Txns            uint64 // write transactions: holds of the writer lock
	Allocs          uint64 // nodes allocated
	Frees           uint64 // nodes retired: displaced, left to the collector
	SingleRotations uint64
	DoubleRotations uint64
	InPlaceCommits  uint64 // subtree commits that avoided path copying
}

// Rotations returns the total rotation count.
func (s Stats) Rotations() uint64 { return s.SingleRotations + s.DoubleRotations }

// Stats returns a snapshot of the tree's counters. The writer keeps
// them as plain words under its lock, so Stats takes the lock too.
func (t *Tree[V]) Stats() Stats {
	t.mu.Lock()
	st := t.stats
	t.mu.Unlock()
	return st
}

// ResetStats zeroes the tree's counters.
func (t *Tree[V]) ResetStats() {
	t.mu.Lock()
	t.stats = Stats{}
	t.mu.Unlock()
}

// Validate checks the tree's structural invariants: binary-search-tree
// key order, correct writer-maintained size fields, and the bounded-
// balance weight invariant. It returns a descriptive error on the first
// violation. Validate must not race with a mutator.
func (t *Tree[V]) Validate() error {
	_, err := t.validate(t.root.Load(), 0, ^uint64(0), true, true)
	return err
}

func (t *Tree[V]) validate(n *node[V], lo, hi uint64, loOpen, hiOpen bool, // bounds
) (size uint64, err error) {
	if n == nil {
		return 0, nil
	}
	if !loOpen && n.key <= lo {
		return 0, fmt.Errorf("core: BST violation: key %d <= lower bound %d", n.key, lo)
	}
	if !hiOpen && n.key >= hi {
		return 0, fmt.Errorf("core: BST violation: key %d >= upper bound %d", n.key, hi)
	}
	l, r := n.left.Load(), n.right.Load()
	ln, err := t.validate(l, lo, n.key, loOpen, false)
	if err != nil {
		return 0, err
	}
	rn, err := t.validate(r, n.key, hi, false, hiOpen)
	if err != nil {
		return 0, err
	}
	if n.size != 1+ln+rn {
		return 0, fmt.Errorf("core: size field %d != 1+%d+%d at key %d", n.size, ln, rn, n.key)
	}
	w := uint64(t.opt.Weight)
	if ln+rn >= 2 {
		if rn > w*ln && rn > w*ln+w { // allow the transient slack Adams' scheme permits
			return 0, fmt.Errorf("core: weight violation at key %d: right %d > %d*left %d", n.key, rn, w, ln)
		}
		if ln > w*rn && ln > w*rn+w {
			return 0, fmt.Errorf("core: weight violation at key %d: left %d > %d*right %d", n.key, ln, w, rn)
		}
	}
	return 1 + ln + rn, nil
}
