package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bonsai/internal/rcu"
)

// TestLockFreeLookupDuringInserts checks the paper's central claim for
// the read side: a lookup running concurrently with inserts (including
// the rotations they trigger) never misses a key that was present
// before the lookup started and is never deleted (§3, Figure 3's race).
// It runs on a tree whose retired nodes are left to the collector, and
// on one whose retired nodes go to an RCU domain with a running
// detector while the readers look up inside read sections, so the
// domain's grace periods reclaim nodes the readers may still be on.
func TestLockFreeLookupDuringInserts(t *testing.T) {
	t.Run("gc", func(t *testing.T) { lockFreeLookupDuringInserts(t, nil) })
	t.Run("domain", func(t *testing.T) {
		dom := rcu.NewDomain(rcu.Options{})
		defer dom.Close()
		lockFreeLookupDuringInserts(t, dom)
		dom.Synchronize()
		if ds := dom.Stats(); ds.GracePeriods == 0 || ds.Ran == 0 {
			t.Fatalf("the domain reclaimed nothing: %+v", ds)
		}
	})
}

func lockFreeLookupDuringInserts(t *testing.T, dom *rcu.Domain) {
	tr := NewTree[int](Options{UpdateInPlace: true, Domain: dom})
	// Stable keys that are present for the whole test.
	const stable = 512
	for i := 0; i < stable; i++ {
		tr.Insert(uint64(i*1000), i)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var lookups atomic.Uint64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			var rd *rcu.Reader
			if dom != nil {
				rd = dom.Register()
				defer dom.Unregister(rd)
			}
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(stable) * 1000)
				if rd != nil {
					rd.Lock()
				}
				_, ok := tr.Lookup(k)
				if rd != nil {
					rd.Unlock()
				}
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
	// burst; hold the window open until at least one lookup lands so
	// the assertion below checks the race, not the scheduler.
	for deadline := time.Now().Add(10 * time.Second); lookups.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if lookups.Load() == 0 {
		t.Fatal("no concurrent lookups ran")
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

// TestRCUDelayedFree verifies that when a Domain is attached, node
// retirement is deferred through it, one callback per transaction: every
// transaction that retired a node queued exactly one callback, none runs
// before a grace period, and once one has elapsed every retired node —
// Stats().Frees of them — has been handed over.
func TestRCUDelayedFree(t *testing.T) {
	dom := rcu.NewDomain(rcu.Options{BatchSize: -1})
	tr := NewTree[int](Options{UpdateInPlace: true, Domain: dom})
	retiring := uint64(0) // transactions that retired at least one node
	txn := func(edits ...Edit[int]) {
		before := tr.Stats().Frees
		tr.Update(edits)
		if tr.Stats().Frees > before {
			retiring++
		}
	}
	for i := 0; i < 1000; i++ {
		txn(Edit[int]{Key: uint64(i), Val: i})
	}
	for i := 0; i < 500; i += 4 {
		// Multi-edit transactions: several deletes and a replacement.
		txn(Edit[int]{Key: uint64(i * 2), Delete: true},
			Edit[int]{Key: uint64(i*2 + 2), Delete: true},
			Edit[int]{Key: uint64(i*2 + 1), Val: -i})
	}
	txn(Edit[int]{Key: 1 << 40, Delete: true}) // absent: retires nothing, queues nothing
	st := tr.Stats()
	if st.Frees == 0 || retiring == 0 {
		t.Fatalf("nothing retired: %+v", st)
	}
	if ds := dom.Stats(); ds.Defers != retiring || ds.Ran != 0 || st.Reclaimed != 0 {
		t.Fatalf("before a grace period: %d callbacks queued, %d ran, %d nodes reclaimed; want %d, 0, 0",
			ds.Defers, ds.Ran, st.Reclaimed, retiring)
	}
	dom.Synchronize()
	if ds := dom.Stats(); ds.Ran != retiring {
		t.Fatalf("after barrier ran %d callbacks, want %d", ds.Ran, retiring)
	}
	if got := tr.Stats().Reclaimed; got != st.Frees {
		t.Fatalf("after barrier %d nodes reclaimed, tree retired %d", got, st.Frees)
	}
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
