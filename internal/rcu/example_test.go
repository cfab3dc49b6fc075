package rcu_test

import (
	"fmt"
	"sync/atomic"

	"bonsai/internal/rcu"
)

// The classic RCU pattern: a reader traverses a published structure
// with no locks; the writer replaces it and defers reclamation until a
// grace period guarantees no reader can still hold the old version.
func ExampleDomain() {
	dom := rcu.NewDomain(rcu.Options{BatchSize: -1})
	reader := dom.Register()

	type config struct{ limit int }
	var current atomic.Pointer[config]
	current.Store(&config{limit: 10})

	// Read side: no locks, one pointer load.
	reader.Lock()
	c := current.Load()
	fmt.Println("reader sees limit", c.limit)
	reader.Unlock()

	// Write side: publish a replacement, delay-free the old one.
	old := current.Swap(&config{limit: 20})
	dom.Defer(func() { fmt.Println("reclaimed config with limit", old.limit) })

	dom.Synchronize() // wait one grace period and run callbacks
	// Output:
	// reader sees limit 10
	// reclaimed config with limit 10
}
