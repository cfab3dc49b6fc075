package stats

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCounterConcurrent: eight writers on their own cells (plus two
// sharing a cell, which must be merely slower) sum exactly, and a
// reader racing them never sees the total go backwards.
func TestCounterConcurrent(t *testing.T) {
	const writers, perWriter = 8, 20000
	c := NewCounter(writers)
	var wg sync.WaitGroup
	var stop atomic.Bool
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var last uint64
		for !stop.Load() {
			got := c.Load()
			if got < last {
				t.Errorf("Load went backwards: %d after %d", got, last)
				return
			}
			last = got
		}
	}()
	for w := 0; w < writers+2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Add(w%writers, 1) // writers 8 and 9 share cells 0 and 1
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	<-readerDone
	if got, want := c.Load(), uint64((writers+2)*perWriter); got != want {
		t.Fatalf("Load = %d, want %d", got, want)
	}
	if got := c.CPU(0); got != 2*perWriter {
		t.Fatalf("cell 0 = %d, want the two writers that shared it (%d)", got, 2*perWriter)
	}
	if got := c.CPU(2); got != perWriter {
		t.Fatalf("cell 2 = %d, want %d", got, perWriter)
	}
}

// TestCounterContiguousIDs: the mask indexing keeps any run of `cpus`
// consecutive ids on distinct cells, so callers may pass machine-wide
// ids (an allocator magazine index) without translating them.
func TestCounterContiguousIDs(t *testing.T) {
	for _, cpus := range []int{0, 1, 2, 3, 5, 8} {
		c := NewCounter(cpus)
		for base := 0; base < 40; base += 7 {
			before := make([]uint64, cpus)
			for i := range before {
				before[i] = c.CPU(base + i)
			}
			for i := 0; i < cpus; i++ {
				c.Add(base+i, 1)
			}
			for i := 0; i < cpus; i++ {
				if got := c.CPU(base+i) - before[i]; got != 1 {
					t.Fatalf("cpus=%d base=%d: id %d's cell grew by %d, want 1 (shared with a neighbor?)", cpus, base, base+i, got)
				}
			}
		}
	}
}

// TestCPUHistMerged: samples land in the recording CPU's histogram
// only, and Merged is the sum of all of them.
func TestCPUHistMerged(t *testing.T) {
	h := NewCPUHist(3)
	for i := 0; i < 100; i++ {
		h.Record(0, 100*time.Nanosecond)
	}
	for i := 0; i < 50; i++ {
		h.Record(2, 10*time.Microsecond)
	}
	if got := h.CPU(0).Count(); got != 100 {
		t.Fatalf("cpu 0 count = %d, want 100", got)
	}
	if got := h.CPU(1).Count(); got != 0 {
		t.Fatalf("cpu 1 count = %d, want 0", got)
	}
	m := h.Merged()
	if got := m.Count(); got != 150 {
		t.Fatalf("merged count = %d, want 150", got)
	}
	if p := m.Percentile(99); p < 9*time.Microsecond || p > 11*time.Microsecond {
		t.Fatalf("merged p99 = %v, want the 10µs mode", p)
	}
	m.Record(time.Second) // a copy: recording into it must not reach the CPUs
	if got := h.Merged().Count(); got != 150 {
		t.Fatalf("Merged returned shared state: count now %d", got)
	}
}
