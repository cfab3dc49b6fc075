package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLockFreeLookupDuringInserts checks the paper's central claim for
// the read side: a lookup running concurrently with inserts (including
// the rotations they trigger) never misses a key that was present
// before the lookup started and is never deleted (§3, Figure 3's race).
// The readers take no read section: retired nodes are left to the
// garbage collector, and a goroutine forces a collection every few
// milliseconds while they traverse, so nodes the writer displaced are
// really reclaimed behind them. The collector is the tree's only
// reclamation, so "gc" is the test's one case.
func TestLockFreeLookupDuringInserts(t *testing.T) {
	t.Run("gc", lockFreeLookupDuringInserts)
}

func lockFreeLookupDuringInserts(t *testing.T) {
	tr := New[int]()
	// Stable keys that are present for the whole test.
	const stable = 512
	for i := 0; i < stable; i++ {
		tr.Insert(uint64(i*1000), i)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var lookups, collections atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.GC()
				collections.Add(1)
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(stable) * 1000)
				_, ok := tr.Lookup(k)
				if !ok {
					t.Errorf("lookup lost stable key %d during concurrent inserts", k)
					return
				}
				lookups.Add(1)
			}
		}(int64(w))
	}

	// Writer: hammer inserts and deletes of keys interleaved between the
	// stable ones, forcing rotations all over the tree.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 30000; i++ {
		k := uint64(rng.Intn(stable*1000) | 1) // odd keys never collide with stable
		if rng.Intn(2) == 0 {
			tr.Insert(k, i)
		} else {
			tr.Delete(k)
		}
	}
	// On a fully loaded machine (packages test in parallel) the reader
	// goroutines may not have been scheduled at all during the writer's
	// burst; hold the window open until at least one lookup lands and
	// one collection has run, so the assertions below check the race,
	// not the scheduler.
	for deadline := time.Now().Add(10 * time.Second); (lookups.Load() == 0 || collections.Load() == 0) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if lookups.Load() == 0 || collections.Load() == 0 {
		t.Fatalf("%d concurrent lookups beside %d collections; want some of each", lookups.Load(), collections.Load())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLookupLinearizability checks that a concurrent lookup of the key
// being mutated sees either the old or the new state, never a torn one.
func TestLookupLinearizability(t *testing.T) {
	tr := New[uint64]()
	const key = 1 << 20
	// Surround the key with enough structure to cause rotations nearby.
	// The probed key itself is skipped: i = 128 would insert (key, 128),
	// and a reader that starts before the mutator's first Insert(key,
	// key) would then legitimately observe 128 and misreport it as torn.
	for i := uint64(0); i < 256; i++ {
		if i*8192 == key {
			continue
		}
		tr.Insert(i*8192, i)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := tr.Lookup(key); ok && v != key {
					t.Errorf("torn value %d at key %d", v, key)
					return
				}
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		tr.Insert(key, key)
		tr.Delete(key)
	}
	close(stop)
	wg.Wait()
}

// TestFloorDuringMutation models the page-fault handler's VMA lookup:
// Floor over a set of region starts while a writer splits and merges
// regions elsewhere in the tree must keep returning a correct region.
func TestFloorDuringMutation(t *testing.T) {
	tr := New[uint64]()
	// Stable regions at 1 MB boundaries.
	const regions = 128
	for i := uint64(0); i < regions; i++ {
		tr.Insert(i<<20, i)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := uint64(rng.Intn(regions))<<20 + uint64(rng.Intn(1<<19)) // lower half: never shadowed
				k, v, ok := tr.Floor(q)
				if !ok {
					t.Errorf("Floor(%#x) missed", q)
					return
				}
				if k != q&^((1<<20)-1) || v != k>>20 {
					t.Errorf("Floor(%#x) = %#x,%d", q, k, v)
					return
				}
			}
		}(int64(w))
	}

	// Writer inserts/removes "split" keys in the upper half of each
	// region (so Floor of lower-half queries is unaffected).
	rng := rand.New(rand.NewSource(1234))
	for i := 0; i < 20000; i++ {
		base := uint64(rng.Intn(regions)) << 20
		split := base + 1<<19 + uint64(rng.Intn(1<<19))
		if rng.Intn(2) == 0 {
			tr.Insert(split, split>>20)
		} else {
			tr.Delete(split)
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentReadersManyWriterBatches is a longer stress combining a
// writer doing batched rebuilds with readers verifying a stable subset,
// run under -race in CI.
func TestConcurrentReadersManyWriterBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	tr := New[int]()
	const stable = 100
	for i := 0; i < stable; i++ {
		tr.Insert(uint64(1_000_000+i), i)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(1_000_000 + i%stable)
				if v, ok := tr.Lookup(k); !ok || v != i%stable {
					t.Errorf("stable key %d: got %d,%v", k, v, ok)
					return
				}
				i++
			}
		}()
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		for i := 0; i < 500; i++ {
			tr.Insert(uint64(rng.Intn(1_000_000)), i)
		}
		for i := 0; i < 500; i++ {
			tr.Delete(uint64(rng.Intn(1_000_000)))
		}
	}
	close(stop)
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
