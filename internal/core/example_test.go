package core_test

import (
	"fmt"

	"bonsai/internal/core"
)

// The BONSAI tree as an ordered map with lock-free lookups.
func ExampleTree() {
	t := core.New[string]()
	t.Insert(30, "thirty")
	t.Insert(10, "ten")
	t.Insert(20, "twenty")
	t.Insert(30, "THIRTY") // replaces

	if v, ok := t.Lookup(20); ok {
		fmt.Println("lookup:", v)
	}
	k, v, _ := t.Floor(25)
	fmt.Printf("floor(25): %d=%s\n", k, v)

	t.Delete(10)
	t.Ascend(func(k uint64, v string) bool {
		fmt.Printf("%d=%s\n", k, v)
		return true
	})
	// Output:
	// lookup: twenty
	// floor(25): 20=twenty
	// 20=twenty
	// 30=THIRTY
}

// Snapshots require the pure-functional mode (the §3.3 optimization
// trades persistence for O(1) garbage).
func ExampleTree_snapshot() {
	t := core.NewTree[int](core.Options{UpdateInPlace: false})
	t.Insert(1, 100)
	t.Insert(2, 200)

	snap := t.Snapshot()
	t.Insert(3, 300) // not visible through the snapshot
	t.Delete(1)

	fmt.Println("snapshot:", snap.Keys())
	fmt.Println("live:    ", t.Keys())
	// Output:
	// snapshot: [1 2]
	// live:     [2 3]
}
