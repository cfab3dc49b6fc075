package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestUpdateMatchesSingleEdits is the transaction's defining property:
// any edit list applied as one Update leaves the tree the same list
// applied edit by edit through Insert and Delete leaves — contents,
// Len, the change count — and a valid one.
func TestUpdateMatchesSingleEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, inPlace := range []bool{true, false} {
		batched := NewTree[int](Options{UpdateInPlace: inPlace})
		single := NewTree[int](Options{UpdateInPlace: inPlace})
		for round := 0; round < 400; round++ {
			edits := make([]Edit[int], rng.Intn(12)) // empty, one-edit and multi-edit lists
			for i := range edits {
				// A small key space, so lists delete and replace keys they
				// themselves inserted.
				edits[i] = Edit[int]{Key: uint64(rng.Intn(96)), Val: rng.Int(), Delete: rng.Intn(3) == 0}
			}
			want := 0
			for _, e := range edits {
				if e.Delete && single.Delete(e.Key) || !e.Delete && single.Insert(e.Key, e.Val) {
					want++
				}
			}
			if got := batched.Update(edits); got != want {
				t.Fatalf("inPlace=%v round %d: Update changed %d keys, single edits %d", inPlace, round, got, want)
			}
			if err := batched.Validate(); err != nil {
				t.Fatalf("inPlace=%v round %d: %v", inPlace, round, err)
			}
			if batched.Len() != single.Len() {
				t.Fatalf("inPlace=%v round %d: Len %d, single edits %d", inPlace, round, batched.Len(), single.Len())
			}
			type kv struct {
				k uint64
				v int
			}
			var a, b []kv
			batched.Ascend(func(k uint64, v int) bool { a = append(a, kv{k, v}); return true })
			single.Ascend(func(k uint64, v int) bool { b = append(b, kv{k, v}); return true })
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("inPlace=%v round %d: entry %d is %v, single edits %v", inPlace, round, i, a[i], b[i])
				}
			}
		}
		if st := batched.Stats(); int(st.Allocs-st.Frees) != batched.Len() {
			t.Errorf("inPlace=%v: allocs-frees = %d, live nodes = %d", inPlace, st.Allocs-st.Frees, batched.Len())
		}
	}
}

// TestUpdateIsAtomicToReaders: each multi-edit transaction swaps one
// generation of keys for the next, in a different part of a tree of
// stable keys, so the edits rebalance subtrees far apart. A lock-free
// reader — one traversal from one load of the root, as a lookup is —
// must find a whole generation, the old or the new, never a mix and
// never a partial one.
func TestUpdateIsAtomicToReaders(t *testing.T) {
	const (
		group  = 8    // keys per generation
		slots  = 256  // stable keys; generation g lives just above stable key g%slots
		stride = 1000 // distance between stable keys
		gens   = 4000
	)
	tr := New[int]()
	for i := 0; i < slots; i++ {
		tr.Insert(uint64(i)*stride, -1)
	}
	swap := func(g int) {
		edits := make([]Edit[int], 0, 2*group)
		for i := uint64(1); i <= group; i++ {
			if g > 0 {
				edits = append(edits, Edit[int]{Key: uint64((g-1)%slots)*stride + i, Delete: true})
			}
			edits = append(edits, Edit[int]{Key: uint64(g%slots)*stride + i, Val: g})
		}
		if got := tr.Update(edits); got != len(edits) {
			t.Errorf("generation %d: %d of %d edits changed the key set", g, got, len(edits))
		}
	}
	swap(0)

	var (
		wg     sync.WaitGroup
		stop   atomic.Bool
		passes atomic.Uint64
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				gen, n := -1, 0
				tr.Ascend(func(k uint64, v int) bool {
					if k%stride == 0 {
						return true // a stable key
					}
					if n > 0 && v != gen {
						t.Errorf("one traversal found keys of generations %d and %d", gen, v)
						return false
					}
					gen, n = v, n+1
					return true
				})
				if n != group {
					t.Errorf("one traversal found %d keys of generation %d, want %d", n, gen, group)
				}
				if t.Failed() {
					return
				}
				passes.Add(1)
			}
		}()
	}
	for g := 1; g < gens || passes.Load() == 0; g++ {
		swap(g)
		if t.Failed() {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
