// Command spinratio prints how much longer two goroutines take to spin
// through a fixed count side by side than one takes alone: 1.0 on two
// free cores, 2.0 on one. scripts/abpairs.sh prints it before each pair,
// so a pair measured in a minute when the host was short of a core — the
// ceiling of every *_scale_x metric — shows in the table.
package main

import (
	"fmt"
	"sync"
	"time"
)

func spin() uint64 {
	x := uint64(1)
	for i := 0; i < 200_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// timed runs n spinners side by side and returns the wall time.
func timed(n int) time.Duration {
	var wg sync.WaitGroup
	sums := make([]uint64, n)
	start := time.Now()
	for i := range sums {
		wg.Add(1)
		go func() { defer wg.Done(); sums[i] = spin() }()
	}
	wg.Wait()
	if sums[0] == 0 { // keeps the loop's result live
		fmt.Println()
	}
	return time.Since(start)
}

func main() {
	timed(1) // warm up: the first run pays for the process's start
	one, two := timed(1), timed(2)
	fmt.Printf("two spinners / one spinner: %.2f (%v / %v)\n",
		float64(two)/float64(one), two.Round(time.Millisecond), one.Round(time.Millisecond))
}
