// Concurrent: lock-free readers racing a mutator on the BONSAI tree,
// with RCU-deferred reclamation — the concurrency pattern of §3.
//
// Reader goroutines run lookups with no locks while the writer inserts
// and deletes (triggering rotations all over the tree). A set of
// "stable" keys is never deleted; the example verifies no reader ever
// misses one, which is exactly the guarantee a rotation race would
// break (Figure 3).
//
//	go run ./examples/concurrent
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/core"
	"bonsai/internal/rcu"
)

func main() {
	dom := rcu.NewDomain(rcu.Options{})
	tree := core.NewTree[int](core.Options{UpdateInPlace: true, Domain: dom})

	// Stable keys, present for the whole run.
	const stable = 1000
	for i := 0; i < stable; i++ {
		tree.Insert(uint64(i)*1000, i)
	}

	var (
		lookups atomic.Uint64
		misses  atomic.Uint64
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)

	// Lock-free readers inside RCU read-side critical sections.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rd := dom.Register()
			defer dom.Unregister(rd)
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				rd.Lock()
				k := uint64(rng.Intn(stable)) * 1000
				if _, ok := tree.Lookup(k); !ok {
					misses.Add(1)
				}
				rd.Unlock()
				lookups.Add(1)
			}
		}(int64(r))
	}

	// The writer churns interleaved keys, forcing rotations.
	rng := rand.New(rand.NewSource(99))
	deadline := time.After(500 * time.Millisecond)
	writes := 0
loop:
	for {
		select {
		case <-deadline:
			break loop
		default:
		}
		k := uint64(rng.Intn(stable*1000)) | 1 // odd: never a stable key
		if rng.Intn(2) == 0 {
			tree.Insert(k, writes)
		} else {
			tree.Delete(k)
		}
		writes++
	}
	close(stop)
	wg.Wait()
	dom.Synchronize()

	if err := tree.Validate(); err != nil {
		log.Fatal(err)
	}
	ts, ds := tree.Stats(), dom.Stats()
	fmt.Printf("%d lock-free lookups raced %d writes: %d stable-key misses (want 0)\n",
		lookups.Load(), writes, misses.Load())
	fmt.Printf("tree: %d rotations, %d in-place commits, %d nodes retired\n",
		ts.Rotations(), ts.InPlaceCommits, ts.Frees)
	fmt.Printf("rcu: %d grace periods, %d deferred frees executed\n",
		ds.GracePeriods, ds.Ran)
	if misses.Load() > 0 {
		log.Fatal("a reader missed a stable key — the rotation race the BONSAI design prevents")
	}
}
