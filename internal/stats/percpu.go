package stats

import (
	"sync/atomic"
	"time"
)

// cacheLine is the coherence granule the per-CPU cells are padded to.
const cacheLine = 64

// cell is one CPU's slot of a Counter. The leading pad plus the tail
// keep v alone on its cache line whatever the slice's base alignment
// (Go guarantees only 8 bytes), so two CPUs' adds never touch one line.
type cell struct {
	_ [cacheLine]byte
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Counter is a per-CPU event counter: Add touches only the caller's
// own cell, Load sums the cells. It exists so a hot path that already
// knows which CPU it runs on (a vm.CPU, an allocator magazine index)
// can count without writing a cache line another CPU writes — the
// property the paper's fault path rests on (§5.3). Adds are atomic, so
// two goroutines sharing a CPU index are merely slower, never wrong.
// A Counter is built by NewCounter and may be copied (copies share the
// cells).
type Counter struct {
	cells []cell
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
	return Counter{cells: make([]cell, slots(cpus))}
}

// Add adds n to cpu's cell.
func (c *Counter) Add(cpu int, n uint64) {
	c.cells[cpu&(len(c.cells)-1)].v.Add(n)
}

// Load returns the sum over all cells. Concurrent with Add it is a
// value the counter held at some point during the call for each cell —
// monotonic for a counter that only grows, exact once writers quiesce.
func (c *Counter) Load() uint64 {
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].v.Load()
	}
	return sum
}

// CPU returns the value of cpu's cell alone (the shared-write audit
// reads it to prove which CPU an event was counted on).
func (c *Counter) CPU(cpu int) uint64 {
	return c.cells[cpu&(len(c.cells)-1)].v.Load()
}

// paddedHist keeps one CPU's histogram clear of its neighbors' lines.
type paddedHist struct {
	_ [cacheLine]byte
	h LatencyHist
	_ [cacheLine]byte
}

// CPUHist is a per-CPU set of latency histograms: Record lands in the
// caller's own histogram, Merged folds them into one on the read side.
type CPUHist struct {
	hists []paddedHist
}

// NewCPUHist returns a set with one histogram per CPU (count rounded
// up to a power of two, as for NewCounter).
func NewCPUHist(cpus int) CPUHist {
	return CPUHist{hists: make([]paddedHist, slots(cpus))}
}

// Record adds one sample to cpu's histogram.
func (p *CPUHist) Record(cpu int, d time.Duration) {
	p.hists[cpu&(len(p.hists)-1)].h.Record(d)
}

// CPU returns cpu's own histogram.
func (p *CPUHist) CPU(cpu int) *LatencyHist {
	return &p.hists[cpu&(len(p.hists)-1)].h
}

// Count returns the number of samples recorded, over all CPUs.
func (p *CPUHist) Count() uint64 {
	var n uint64
	for i := range p.hists {
		n += p.hists[i].h.Count()
	}
	return n
}

// Merged returns a fresh histogram holding every CPU's samples.
func (p *CPUHist) Merged() *LatencyHist {
	m := new(LatencyHist)
	for i := range p.hists {
		m.Merge(&p.hists[i].h)
	}
	return m
}
