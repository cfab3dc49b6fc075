package stats

import (
	"iter"
	"sync/atomic"
)

// cacheLine is the coherence granule the per-CPU cells are padded to.
const cacheLine = 64

// Counter is a per-CPU event counter: Add touches only the caller's
// own cell, Load sums the cells. It exists so a hot path that already
// knows which CPU it runs on (a vm.CPU, an allocator magazine index)
// can count without writing a cache line another CPU writes — the
// property the paper's fault path rests on (§5.3). Adds are atomic, so
// two goroutines sharing a CPU index are merely slower, never wrong.
// A Counter is built by NewCounter and may be copied (copies share the
// cells).
type Counter struct {
	cells PerCPU[atomic.Uint64]
}

// slots rounds a CPU count up to a power of two (at least 1), so a
// per-CPU slice is indexed with a mask and any run of cpus consecutive
// ids lands on distinct slots.
func slots(cpus int) int {
	n := 1
	for n < cpus {
		n <<= 1
	}
	return n
}

// NewCounter returns a counter with one cell per CPU (see slots): a
// caller may pass machine-wide CPU ids (an allocator magazine index) as
// long as its own CPUs are numbered contiguously.
func NewCounter(cpus int) Counter {
	return Counter{cells: NewPerCPU[atomic.Uint64](cpus)}
}

// Add adds n to cpu's cell.
func (c *Counter) Add(cpu int, n uint64) {
	c.cells.At(cpu).Add(n)
}

// Load returns the sum over all cells. Concurrent with Add it is a
// value the counter held at some point during the call for each cell —
// monotonic for a counter that only grows, exact once writers quiesce.
func (c *Counter) Load() uint64 {
	var sum uint64
	for v := range c.cells.All() {
		sum += v.Load()
	}
	return sum
}

// CPU returns the value of cpu's cell alone (the shared-write audit
// reads it to prove which CPU an event was counted on).
func (c *Counter) CPU(cpu int) uint64 {
	return c.cells.At(cpu).Load()
}

// PerCPU is one T per CPU, each on cache lines of its own: a hot path
// that knows its CPU writes only its own T through At, and the read
// side folds every CPU's T with All. It is the storage under the
// per-CPU counter sets and latency histograms; what a T holds, and how
// it is written and folded, is the caller's.
type PerCPU[T any] struct {
	rows []padded[T]
}

// padded keeps one CPU's T clear of its neighbors' lines.
type padded[T any] struct {
	_ [cacheLine]byte
	v T
	_ [cacheLine]byte
}

// NewPerCPU returns one T per CPU (count rounded up to a power of two,
// as for NewCounter, so contiguous ids land on distinct rows).
func NewPerCPU[T any](cpus int) PerCPU[T] {
	return PerCPU[T]{rows: make([]padded[T], slots(cpus))}
}

// At returns cpu's own T.
func (p *PerCPU[T]) At(cpu int) *T {
	return &p.rows[cpu&(len(p.rows)-1)].v
}

// All yields every CPU's T.
func (p *PerCPU[T]) All() iter.Seq[*T] {
	return func(yield func(*T) bool) {
		for i := range p.rows {
			if !yield(&p.rows[i].v) {
				return
			}
		}
	}
}
