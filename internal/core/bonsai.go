// Package core implements the BONSAI tree: an RCU-compatible balanced
// binary search tree derived from Adams' functional bounded-balance
// trees (§3 of the paper). Lookups are lock-free and never write to
// shared memory; mutations are serialized by the caller (or by the
// tree's internal writer lock) and publish their effects with single
// atomic pointer updates, so a concurrent lookup observes either the
// entire old tree or the entire new tree.
//
// The tree implements the paper's path-copying-elimination optimization
// (§3.3): when a rebuilt subtree is structurally identical to the
// original apart from one child pointer, the writer commits the change
// by updating that one pointer in place instead of copying the path to
// the root. With the paper's weight of 4 this reduces garbage from
// O(log n) to O(1) nodes per insert (≈2 allocations and ≈1 free, with
// ≈0.35 rotations on average). The optimization can be disabled through
// Options.UpdateInPlace for the ablation benchmarks.
//
// Mutations are write transactions (Update): one hold of the writer
// lock, any number of edits and one root publish. Insert and Delete are
// one-edit transactions.
//
// The paper delay-frees the nodes a writer displaces with rcu_free,
// because the kernel has no garbage collector. Here the collector is
// the grace period: a displaced node stays alive while any reader can
// still reach it, so the tree only counts what it retires and queues
// nothing with an RCU domain.
//
// Keys are uint64 (the VM system keys regions by start address); values
// are a type parameter.
package core

import (
	"fmt"
	"sync/atomic"

	"bonsai/internal/locks"
)

// DefaultWeight is the bounded-balance weight parameter used by the
// paper (§3.1): neither subtree may contain more than Weight times the
// nodes of its sibling (once both are non-trivial).
const DefaultWeight = 4

// Options configures a Tree.
type Options struct {
	// Weight is the bounded-balance parameter. Zero means DefaultWeight.
	// Must be >= 2 to guarantee termination of rebalancing.
	Weight int

	// UpdateInPlace enables the §3.3 optimization. The zero value leaves
	// it off; New and the VM's region index set it.
	UpdateInPlace bool
}

// node is a tree node (Figure 4). Child pointers are atomic because the
// in-place optimization lets a writer update them while lock-free
// readers traverse. The size and txn fields are only ever read and
// written by the single writer, so they need no synchronization (§3.3).
// Key and value are immutable after the node is published.
type node[V any] struct {
	left  atomic.Pointer[node[V]]
	right atomic.Pointer[node[V]]
	size  uint64
	txn   uint64 // the write transaction that built the node
	key   uint64
	val   V
}

// Tree is a BONSAI tree mapping uint64 keys to values of type V.
//
// Read operations (Lookup, Floor, Len via Size snapshot, Ascend, ...)
// are safe to call concurrently with each other and with a single
// mutator. Mutating operations (Update, Insert, Delete) acquire the
// tree's writer lock.
type Tree[V any] struct {
	// root is all a reader loads from the tree itself, on every lookup:
	// it has a cache line to itself, so a writer taking mu or counting
	// does not invalidate the line in the readers' caches.
	_    [cacheLine]byte
	root atomic.Pointer[node[V]]
	_    [cacheLine - 8]byte

	mu  locks.SpinLock // writer lock; guards everything below
	opt Options

	// The transaction in progress: its number (nodes it built carry it,
	// and are its own to rewrite until the root publish) and whether it
	// may commit in place in published nodes.
	txn     uint64
	inPlace bool
	stats   Stats
}

// cacheLine is the assumed coherence granule.
const cacheLine = 64

// NewTree returns an empty tree configured by opt. A zero Options value
// gives weight 4 with the §3.3 in-place optimization off; New turns it
// on, and so does the VM.
func NewTree[V any](opt Options) *Tree[V] {
	if opt.Weight == 0 {
		opt.Weight = DefaultWeight
	}
	if opt.Weight < 2 {
		panic(fmt.Sprintf("core: weight %d < 2 cannot maintain balance", opt.Weight))
	}
	return &Tree[V]{opt: opt}
}

// New returns an empty tree with the paper's default configuration and
// the in-place optimization enabled.
func New[V any]() *Tree[V] {
	return NewTree[V](Options{UpdateInPlace: true})
}

func (t *Tree[V]) mkNode(left, right *node[V], key uint64, val V) *node[V] {
	n := &node[V]{size: 1 + nodeSize(left) + nodeSize(right), txn: t.txn, key: key, val: val}
	// An atomic store is a locked exchange; a leaf's children are
	// already the nil they should be.
	if left != nil {
		n.left.Store(left)
	}
	if right != nil {
		n.right.Store(right)
	}
	t.stats.Allocs++
	return n
}

// free retires a node that is no longer reachable from the new version
// of the tree (rcu_free in the paper). A reader that loaded it before
// the publish may still be on it; the garbage collector keeps it until
// none is, so retiring is only the count.
func (t *Tree[V]) free(*node[V]) { t.stats.Frees++ }

func nodeSize[V any](n *node[V]) uint64 {
	if n == nil {
		return 0
	}
	return n.size
}

// Lookup reports the value stored at key. It is lock-free: it reads the
// root pointer once and each child pointer at most once, and performs no
// writes to shared memory (Figure 9). Every node it can reach stays
// valid while it is on it, however many writers retire the node
// meanwhile: the garbage collector frees a node only once no reader
// holds it, so a lookup needs no read-side critical section.
func (t *Tree[V]) Lookup(key uint64) (V, bool) {
	n := t.root.Load()
	for n != nil && n.key != key {
		if n.key > key {
			n = n.left.Load()
		} else {
			n = n.right.Load()
		}
	}
	if n == nil {
		var zero V
		return zero, false
	}
	return n.val, true
}

// Contains reports whether key is present.
func (t *Tree[V]) Contains(key uint64) bool {
	_, ok := t.Lookup(key)
	return ok
}

// Floor returns the entry with the greatest key <= key. This is the
// lookup the page-fault handler performs to find the VMA containing a
// faulting address. Like Lookup it is lock-free.
func (t *Tree[V]) Floor(key uint64) (k uint64, v V, ok bool) {
	n := t.root.Load()
	var best *node[V]
	for n != nil {
		switch {
		case n.key == key:
			return n.key, n.val, true
		case n.key < key:
			best = n
			n = n.right.Load()
		default:
			n = n.left.Load()
		}
	}
	if best == nil {
		var zero V
		return 0, zero, false
	}
	return best.key, best.val, true
}

// Ceiling returns the entry with the smallest key >= key. Lock-free.
func (t *Tree[V]) Ceiling(key uint64) (k uint64, v V, ok bool) {
	n := t.root.Load()
	var best *node[V]
	for n != nil {
		switch {
		case n.key == key:
			return n.key, n.val, true
		case n.key > key:
			best = n
			n = n.left.Load()
		default:
			n = n.right.Load()
		}
	}
	if best == nil {
		var zero V
		return 0, zero, false
	}
	return best.key, best.val, true
}

// Min returns the smallest entry. Lock-free.
func (t *Tree[V]) Min() (k uint64, v V, ok bool) {
	n := t.root.Load()
	if n == nil {
		var zero V
		return 0, zero, false
	}
	for {
		l := n.left.Load()
		if l == nil {
			return n.key, n.val, true
		}
		n = l
	}
}

// Max returns the largest entry. Lock-free.
func (t *Tree[V]) Max() (k uint64, v V, ok bool) {
	n := t.root.Load()
	if n == nil {
		var zero V
		return 0, zero, false
	}
	for {
		r := n.right.Load()
		if r == nil {
			return n.key, n.val, true
		}
		n = r
	}
}

// Len returns the number of entries. It reads the root's writer-
// maintained size field; when racing with a writer the result reflects
// some recent state of the tree.
func (t *Tree[V]) Len() int {
	return int(nodeSize(t.root.Load()))
}

// Edit is one step of a write transaction: store Val at Key (replacing
// any value already there) or, with Delete set, remove Key.
type Edit[V any] struct {
	Key    uint64
	Val    V
	Delete bool
}

// Update applies edits, in order, as one write transaction: one hold of
// the writer lock and one root publish. It returns how many edits
// changed the key set (inserts of new keys, deletes of present ones).
//
// A transaction of several edits is atomic to readers: a lookup racing
// it finds the tree as it was before the first edit or as it is after
// the last, never in between. It gets that by never writing a published
// node — it copies each node on its paths once, rewrites its own copies
// freely, and publishes with the root store — so it leaves O(log n)
// garbage where the in-place commits of §3.3 leave O(1). A one-edit
// transaction has no in-between, and commits in place.
func (t *Tree[V]) Update(edits []Edit[V]) (changed int) {
	t.mu.Lock()
	t.stats.Txns++
	t.txn++
	t.inPlace = t.opt.UpdateInPlace && len(edits) == 1
	old := t.root.Load()
	root := old
	for i := range edits {
		e := &edits[i]
		var did bool
		if e.Delete {
			root, did = t.doDelete(root, e.Key)
		} else {
			root, did = t.doInsert(root, e.Key, e.Val)
		}
		if did {
			changed++
		}
	}
	if root != old {
		t.root.Store(root)
	}
	t.mu.Unlock()
	return changed
}

// Insert stores val at key, replacing any existing value. It reports
// whether a new key was inserted (false means an existing key's value
// was replaced).
func (t *Tree[V]) Insert(key uint64, val V) bool {
	e := [1]Edit[V]{{Key: key, Val: val}}
	return t.Update(e[:]) == 1
}

// doInsert recurses to the insertion point and rebuilds the tree bottom
// up (Figure 5), committing rotations early when the in-place
// optimization applies.
func (t *Tree[V]) doInsert(n *node[V], key uint64, val V) (*node[V], bool) {
	if n == nil {
		return t.mkNode(nil, nil, key, val), true
	}
	switch {
	case key < n.key:
		nl, added := t.doInsert(n.left.Load(), key, val)
		return t.mkBalanced(n, nl, n.right.Load(), true), added
	case key > n.key:
		nr, added := t.doInsert(n.right.Load(), key, val)
		return t.mkBalanced(n, n.left.Load(), nr, true), added
	default:
		// Replace the value. Nodes are immutable after publication, so
		// build a replacement node sharing both subtrees; the parent's
		// single pointer update (or the root store) commits it.
		out := t.mkNode(n.left.Load(), n.right.Load(), key, val)
		t.free(n)
		return out, false
	}
}

// Delete removes key. It reports whether the key was present.
func (t *Tree[V]) Delete(key uint64) bool {
	e := [1]Edit[V]{{Key: key, Delete: true}}
	return t.Update(e[:]) == 1
}

// doDelete implements the two delete cases from §3.2–3.3. Removing a
// leaf (or single-child node) just drops it; removing an interior node
// substitutes its successor. The successor is extracted with pure path
// copying (no in-place commits below the deleted node) so that the
// removal of the successor and its substitution become visible in one
// atomic pointer update at or above the deleted node (§3.3's caveat).
func (t *Tree[V]) doDelete(n *node[V], key uint64) (*node[V], bool) {
	if n == nil {
		return nil, false
	}
	switch {
	case key < n.key:
		nl, deleted := t.doDelete(n.left.Load(), key)
		if !deleted {
			return n, false
		}
		return t.mkBalanced(n, nl, n.right.Load(), true), true
	case key > n.key:
		nr, deleted := t.doDelete(n.right.Load(), key)
		if !deleted {
			return n, false
		}
		return t.mkBalanced(n, n.left.Load(), nr, true), true
	default:
		l, r := n.left.Load(), n.right.Load()
		switch {
		case l == nil:
			t.free(n)
			return r, true
		case r == nil:
			t.free(n)
			return l, true
		default:
			succ, nr := t.removeMin(r)
			out := t.mkNodeBalanced(succ.key, succ.val, l, nr)
			t.free(succ)
			t.free(n)
			return out, true
		}
	}
}

// removeMin detaches the minimum node of the subtree, rebuilding the
// path with pure path copying (in-place commits are forbidden below the
// node being deleted; see doDelete).
func (t *Tree[V]) removeMin(n *node[V]) (min *node[V], rest *node[V]) {
	l := n.left.Load()
	if l == nil {
		return n, n.right.Load()
	}
	min, nl := t.removeMin(l)
	return min, t.mkBalanced(n, nl, n.right.Load(), false)
}

// mkBalanced rebuilds the subtree previously rooted at cur with the
// given children, restoring the bounded-balance invariant (Figure 6).
// When no rotation is needed, cur is updated in place if the
// transaction built it (no reader can see it yet) or if inPlaceOK and
// the transaction commits in place, which publishes any rotation
// performed deeper in the tree with a single pointer store.
func (t *Tree[V]) mkBalanced(cur, left, right *node[V], inPlaceOK bool) *node[V] {
	ln := nodeSize(left)
	rn := nodeSize(right)
	w := uint64(t.opt.Weight)

	var out *node[V]
	switch {
	case ln+rn >= 2 && rn > w*ln:
		out = t.mkBalancedL(left, right, cur.key, cur.val)
	case ln+rn >= 2 && ln > w*rn:
		out = t.mkBalancedR(left, right, cur.key, cur.val)
	case cur.txn != t.txn && !(t.inPlace && inPlaceOK):
		out = t.mkNode(left, right, cur.key, cur.val)
	default:
		// In-place commit (§3.3): the rebuilt subtree is structurally
		// identical to the original apart from the child pointers, so
		// updating them directly publishes the deeper change without
		// copying the path. Each store is individually atomic, and the
		// contents of the tree are identical before and after, so a
		// concurrent lookup cannot be misdirected. The size field is
		// writer-private and needs no atomicity.
		if cur.left.Load() != left {
			cur.left.Store(left)
		}
		if cur.right.Load() != right {
			cur.right.Store(right)
		}
		cur.size = 1 + ln + rn
		t.stats.InPlaceCommits++
		return cur
	}
	t.free(cur)
	return out
}

// mkNodeBalanced joins two subtrees under a fresh key/value, rebalancing
// if the pair is outside the weight bound. It is used by delete when
// substituting the successor for an interior node.
func (t *Tree[V]) mkNodeBalanced(key uint64, val V, left, right *node[V]) *node[V] {
	ln, rn := nodeSize(left), nodeSize(right)
	w := uint64(t.opt.Weight)
	switch {
	case ln+rn >= 2 && rn > w*ln:
		return t.mkBalancedL(left, right, key, val)
	case ln+rn >= 2 && ln > w*rn:
		return t.mkBalancedR(left, right, key, val)
	default:
		return t.mkNode(left, right, key, val)
	}
}

// mkBalancedL performs a single or double left rotation (Figure 7),
// choosing between them by comparing the inner and outer grandchild
// sizes as Adams' trees do.
func (t *Tree[V]) mkBalancedL(left, right *node[V], key uint64, val V) *node[V] {
	if nodeSize(right.left.Load()) < nodeSize(right.right.Load()) {
		return t.singleL(left, right, key, val)
	}
	return t.doubleL(left, right, key, val)
}

func (t *Tree[V]) mkBalancedR(left, right *node[V], key uint64, val V) *node[V] {
	if nodeSize(left.right.Load()) < nodeSize(left.left.Load()) {
		return t.singleR(left, right, key, val)
	}
	return t.doubleR(left, right, key, val)
}

// singleL builds the rotated subtree of Figure 3/Figure 8 functionally:
// two new nodes, no in-place pointer updates, with the displaced node
// retired.
func (t *Tree[V]) singleL(left, right *node[V], key uint64, val V) *node[V] {
	t.stats.SingleRotations++
	out := t.mkNode(
		t.mkNode(left, right.left.Load(), key, val),
		right.right.Load(),
		right.key, right.val)
	t.free(right)
	return out
}

func (t *Tree[V]) singleR(left, right *node[V], key uint64, val V) *node[V] {
	t.stats.SingleRotations++
	out := t.mkNode(
		left.left.Load(),
		t.mkNode(left.right.Load(), right, key, val),
		left.key, left.val)
	t.free(left)
	return out
}

func (t *Tree[V]) doubleL(left, right *node[V], key uint64, val V) *node[V] {
	t.stats.DoubleRotations++
	rl := right.left.Load()
	out := t.mkNode(
		t.mkNode(left, rl.left.Load(), key, val),
		t.mkNode(rl.right.Load(), right.right.Load(), right.key, right.val),
		rl.key, rl.val)
	t.free(rl)
	t.free(right)
	return out
}

func (t *Tree[V]) doubleR(left, right *node[V], key uint64, val V) *node[V] {
	t.stats.DoubleRotations++
	lr := left.right.Load()
	out := t.mkNode(
		t.mkNode(left.left.Load(), lr.left.Load(), left.key, left.val),
		t.mkNode(lr.right.Load(), right, key, val),
		lr.key, lr.val)
	t.free(lr)
	t.free(left)
	return out
}
