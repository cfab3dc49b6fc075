// Package sim is a deterministic discrete-event simulator of the
// paper's 80-core testbed. It substitutes for hardware this
// reproduction does not have: simulated cores execute the per-design
// fault and mapping-operation cost models over the cache-coherence
// model in internal/coherence, and drivers regenerate every figure and
// table of the paper's evaluation (Figures 13–18, Table 1).
//
// The engine is process-oriented: each simulated core runs as a
// goroutine that yields to the scheduler at every shared-memory event
// (atomic operation, lock, park). The scheduler always resumes the
// runnable core with the smallest virtual clock (ties broken by id), so
// runs are fully deterministic.
package sim

import (
	"fmt"

	"bonsai/internal/coherence"
)

// stopToken unwinds a proc goroutine when the simulation ends.
type stopToken struct{}

// Sim is one simulation run.
type Sim struct {
	M      *coherence.Machine
	Spread bool // core placement policy (§7.1)

	procs    []*Proc
	yielded  chan struct{}
	stopping bool
	now      uint64 // clock of the most recently scheduled proc
}

// New returns an empty simulation over the given machine model.
func New(m *coherence.Machine, spread bool) *Sim {
	return &Sim{M: m, Spread: spread, yielded: make(chan struct{})}
}

// Proc is one simulated core's thread of execution.
type Proc struct {
	sim    *Sim
	Core   int // core id for the coherence model
	Name   string
	clock  uint64
	parked bool
	done   bool
	resume chan struct{}

	// Accounting (Table 1's user/sys/idle split).
	userCycles  uint64 // application work
	sysCycles   uint64 // VM work: fault/mmap service incl. line stalls
	idleCycles  uint64 // parked on a semaphore
	sleeps      uint64 // times parked
	lastStall   uint64 // line-stall cycles in the most recent sys op
	stallAccum  uint64 // stalls within the current sys op
	parkedSince uint64
}

// Clock returns the proc's virtual time.
func (p *Proc) Clock() uint64 { return p.clock }

// Accounting returns the proc's cycle breakdown.
func (p *Proc) Accounting() (user, sys, idle, sleeps uint64) {
	return p.userCycles, p.sysCycles, p.idleCycles, p.sleeps
}

// Spawn adds a core running body. Core ids must be unique per Spawn.
func (s *Sim) Spawn(core int, name string, body func(*Ctx)) *Proc {
	p := &Proc{sim: s, Core: core, Name: name, resume: make(chan struct{})}
	s.procs = append(s.procs, p)
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopToken); !ok {
					panic(r)
				}
			}
			p.done = true
			s.yielded <- struct{}{}
		}()
		body(&Ctx{s: s, p: p})
	}()
	return p
}

// Run executes the simulation until every proc either finishes or
// reaches the until time (in cycles). It returns the final virtual
// time. Run also tears down all proc goroutines, so a Sim is single
// use.
func (s *Sim) Run(until uint64) uint64 {
	for {
		var best *Proc
		for _, p := range s.procs {
			if p.done || p.parked {
				continue
			}
			if best == nil || p.clock < best.clock {
				best = p
			}
		}
		if best == nil || best.clock >= until {
			break
		}
		s.now = best.clock
		best.resume <- struct{}{}
		<-s.yielded
	}
	// Tear down: resume every remaining proc with the stop flag set.
	s.stopping = true
	for _, p := range s.procs {
		if !p.done {
			p.parked = false
			p.resume <- struct{}{}
			<-s.yielded
		}
	}
	var max uint64
	for _, p := range s.procs {
		if p.clock > max {
			max = p.clock
		}
	}
	return max
}

// Wake unparks p no earlier than at (virtual cycles). The waker is
// responsible for any state handoff (e.g. lock grants) before calling.
func (s *Sim) Wake(p *Proc, at uint64) {
	if !p.parked {
		panic(fmt.Sprintf("sim: Wake of runnable proc %s", p.Name))
	}
	p.parked = false
	if p.clock < at {
		p.clock = at
	}
}

// Ctx is the API a proc body uses to consume virtual time.
type Ctx struct {
	s *Sim
	p *Proc
}

// Proc returns the executing proc.
func (c *Ctx) Proc() *Proc { return c.p }

// Now returns the proc's virtual time.
func (c *Ctx) Now() uint64 { return c.p.clock }

// yield hands control back to the scheduler.
func (c *Ctx) yield() {
	c.s.yielded <- struct{}{}
	<-c.p.resume
	if c.s.stopping {
		panic(stopToken{})
	}
}

// ComputeUser burns cycles of application work.
func (c *Ctx) ComputeUser(n uint64) {
	c.p.clock += n
	c.p.userCycles += n
	c.yield()
}

// ComputeSys burns cycles of kernel (VM) work.
func (c *Ctx) ComputeSys(n uint64) {
	c.p.clock += n
	c.p.sysCycles += n
	c.yield()
}

// Acquire performs a read-modify-write on a shared line (lock word,
// semaphore count, ...). Queueing behind other cores' transfers is
// accounted as sys time and tracked as stall cycles.
func (c *Ctx) Acquire(l *coherence.Line) {
	done := c.s.M.Acquire(l, c.p.Core, c.p.clock, c.s.Spread)
	d := done - c.p.clock
	c.p.sysCycles += d
	c.p.stallAccum += d
	c.p.clock = done
	c.yield()
}

// Park blocks the proc until another proc calls Sim.Wake. The blocked
// interval is accounted as idle time.
func (c *Ctx) Park() {
	c.p.parked = true
	c.p.parkedSince = c.p.clock
	c.p.sleeps++
	c.yield()
	c.p.idleCycles += c.p.clock - c.p.parkedSince
}

// BeginOp resets the per-operation stall accumulator; EndOp returns the
// stalls suffered since BeginOp (the §7.2 "manipulating the mmap_sem
// cache line" accounting).
func (c *Ctx) BeginOp() { c.p.stallAccum = 0 }

// EndOp records and returns the stall cycles of the finished operation.
func (c *Ctx) EndOp() uint64 {
	c.p.lastStall = c.p.stallAccum
	return c.p.lastStall
}

// LastStall returns the stall cycles of the most recent operation.
func (c *Ctx) LastStall() uint64 { return c.p.lastStall }
