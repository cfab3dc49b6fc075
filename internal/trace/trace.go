package trace

import (
	"sync/atomic"
	"time"
)

// Type identifies one event kind. The numeric values are part of the
// dump format; append, never reorder.
type Type uint16

const (
	EvNone Type = iota
	// EvFaultEnter: a=addr, b=access bits (1=write), c=design.
	EvFaultEnter
	// EvFaultExit: a=addr, b=path flag bits (Fault*), c=duration ns.
	EvFaultExit
	// EvMapEnter: a=addr, b=op (Op*), c=length bytes.
	EvMapEnter
	// EvMapExit: a=addr, b=op | OpErr on failure, c=duration ns.
	EvMapExit
	// EvRangeAcquire: a=guard id, b=lo page, c=hi page.
	EvRangeAcquire
	// EvRangeWait: a=guard id, b=lo page, c=wait ns.
	EvRangeWait
	// EvRangeRelease: a=guard id, b=lo page, c=held ns.
	EvRangeRelease
	// EvRCUDefer: a=epoch, b=shard, c=backlog after enqueue.
	EvRCUDefer
	// EvGPStart: a=gp id, b=epoch advanced to.
	EvGPStart
	// EvGPEnd: a=gp id, b=callbacks drained, c=duration ns.
	EvGPEnd
	// EvTLBFlush: a=pages zapped, b=span pages, c=spin ns (model cost
	// plus any injected tlb.flush-delay).
	EvTLBFlush
	// EvReclaimScanStart: a=scan id, b=target frames, c=scan kind
	// (Scan*).
	EvReclaimScanStart
	// EvReclaimScanEnd: a=scan id, b=frames reclaimed, c=duration ns.
	EvReclaimScanEnd
	// EvPageVerdict: a=file id, b=page index, c=verdict (Verdict*).
	EvPageVerdict
	// EvWriteback: a=file id, b=page index, c=0 ok / 1 error.
	EvWriteback
	// EvTenantCharge: a=account tag, b=charged after, c=limit.
	EvTenantCharge
	// EvTenantRefuse: a=account tag, b=charged, c=limit.
	EvTenantRefuse
	// EvOOMKill: a=ladder step (Oom*), b=tenant, c=detail (victim
	// member, frames freed, ...).
	EvOOMKill
	// EvViolation: a=violation kind tag, b,c=detail. Emitted by the
	// torture auditor so failure dumps are self-describing.
	EvViolation

	evMax // sentinel; not a real event
)

var typeNames = [...]string{
	EvNone:             "none",
	EvFaultEnter:       "fault_enter",
	EvFaultExit:        "fault_exit",
	EvMapEnter:         "map_enter",
	EvMapExit:          "map_exit",
	EvRangeAcquire:     "range_acquire",
	EvRangeWait:        "range_wait",
	EvRangeRelease:     "range_release",
	EvRCUDefer:         "rcu_defer",
	EvGPStart:          "gp_start",
	EvGPEnd:            "gp_end",
	EvTLBFlush:         "tlb_flush",
	EvReclaimScanStart: "reclaim_scan_start",
	EvReclaimScanEnd:   "reclaim_scan_end",
	EvPageVerdict:      "page_verdict",
	EvWriteback:        "writeback",
	EvTenantCharge:     "tenant_charge",
	EvTenantRefuse:     "tenant_refuse",
	EvOOMKill:          "oom_kill",
	EvViolation:        "violation",
}

// String returns the event type's stable snake_case name.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return "unknown"
}

// ParseType resolves a snake_case event name back to its Type.
func ParseType(name string) (Type, bool) {
	for i, n := range typeNames {
		if n == name && Type(i) != EvNone {
			return Type(i), true
		}
	}
	return EvNone, false
}

// Fault-exit path flags (EvFaultExit arg b). A slow fault can carry
// several: COW and file-fill both set Slow.
const (
	FaultFast          uint64 = 1 << 0 // lock-free/optimistic path won
	FaultSlow          uint64 = 1 << 1 // fell to the locked slow path
	FaultCOW           uint64 = 1 << 2 // copy-on-write break
	FaultFileFill      uint64 = 1 << 3 // page-cache fill
	FaultShortageRetry uint64 = 1 << 4 // retried through reclaim
	FaultError         uint64 = 1 << 5 // returned an error
	FaultHuge          uint64 = 1 << 6 // serviced by a 2 MB huge entry
)

// Mapping-op codes (EvMapEnter/EvMapExit arg b low bits).
const (
	OpMmap uint64 = iota + 1
	OpMunmap
	OpMprotect
	OpMadvise
	// OpErr is OR'd into EvMapExit's op when the call failed.
	OpErr uint64 = 1 << 8
)

// Reclaim scan kinds (EvReclaimScanStart arg c).
const (
	ScanGlobal uint64 = iota + 1
	ScanTenant
	ScanDirect
)

// Page verdicts (EvPageVerdict arg c).
const (
	VerdictSecondChance uint64 = iota + 1 // referenced; hand moved on
	VerdictEvicted                        // unmapped and freed
	VerdictAbort                          // eviction raced and aborted
	VerdictWriteback                      // dirty; written back in place
	VerdictSkipped                        // wrong account / pinned
)

// OOM ladder steps (EvOOMKill arg a).
const (
	OomDirectReclaim uint64 = iota + 1 // shortage retry ran reclaim
	OomKillVictim                      // victim space torn down
	OomGiveUp                          // ladder exhausted → ErrNoMemory
)

// AuxCPU routes an emission to the shared auxiliary ring — for
// background goroutines (RCU detector, kswapd, writeback) that have no
// magazine partition of their own.
const AuxCPU = -1

// slot is one record's storage. Every word is atomic so concurrent
// snapshot reads race-detector-cleanly observe in-flight writes; the
// seq word is the commit protocol: 0 empty, 2*pos+1 while the writer
// for generation pos is mid-write, 2*pos+2 once committed.
type slot struct {
	seq  atomic.Uint64
	ts   atomic.Uint64
	meta atomic.Uint64 // type<<48 | uint16(cpu)<<32
	a    atomic.Uint64
	b    atomic.Uint64
	c    atomic.Uint64
}

// ring is one writer partition: a power-of-two slot array and a
// monotonically claimed head.
type ring struct {
	head  atomic.Uint64
	slots []slot
}

// Tracer owns cpus+1 rings: one per machine-wide magazine partition
// plus a trailing auxiliary ring (AuxCPU) for unpinned emitters.
type Tracer struct {
	rings []ring
	mask  uint64
	start time.Time
	wall  int64 // wall-clock ns at arm, stamped into dumps
}

// DefaultRingSize is the per-ring record count when Arm is given 0.
const DefaultRingSize = 4096

// New builds a tracer with cpus per-CPU rings (plus the aux ring) of
// perRing records each (rounded up to a power of two; 0 means
// DefaultRingSize). It does not arm it — use Arm, or keep a private
// tracer for tests.
func New(cpus, perRing int) *Tracer {
	if cpus < 1 {
		cpus = 1
	}
	if perRing <= 0 {
		perRing = DefaultRingSize
	}
	size := 1
	for size < perRing {
		size <<= 1
	}
	t := &Tracer{
		rings: make([]ring, cpus+1),
		mask:  uint64(size - 1),
		start: time.Now(),
		wall:  time.Now().UnixNano(),
	}
	for i := range t.rings {
		t.rings[i].slots = make([]slot, size)
	}
	return t
}

// active is the armed tracer; nil means disarmed. Same discipline as
// fail.Point.state — the disarmed Emit cost is this one load.
var active atomic.Pointer[Tracer]

// Arm builds and publishes a tracer; every compiled-in Emit site
// starts recording into it. Returns the tracer for later dumping.
func Arm(cpus, perRing int) *Tracer {
	t := New(cpus, perRing)
	active.Store(t)
	return t
}

// Disarm unpublishes the armed tracer and returns it (nil if none) so
// the caller can still snapshot or dump the recorded window.
func Disarm() *Tracer { return active.Swap(nil) }

// Armed reports whether a tracer is currently armed.
func Armed() bool { return active.Load() != nil }

// Active returns the armed tracer, or nil.
func Active() *Tracer { return active.Load() }

// Emit records one event on cpu's ring (AuxCPU for the shared
// background ring). Disarmed cost: one atomic load and a nil check.
func Emit(cpu int, ev Type, a, b, c uint64) {
	if t := active.Load(); t != nil {
		t.Emit(cpu, ev, a, b, c)
	}
}

// Emit records one event on cpu's ring of this tracer. Lock-free:
// claim a generation with fetch-add, stamp the slot in-progress, store
// the payload, commit. A reader that catches the slot mid-write or
// after a wrap discards it by sequence mismatch.
func (t *Tracer) Emit(cpu int, ev Type, a, b, c uint64) {
	r := t.ringFor(cpu)
	pos := r.head.Add(1) - 1
	s := &r.slots[pos&t.mask]
	s.seq.Store(2*pos + 1)
	s.ts.Store(uint64(time.Since(t.start)))
	s.meta.Store(uint64(ev)<<48 | uint64(uint16(cpu))<<32)
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	s.seq.Store(2*pos + 2)
}

func (t *Tracer) ringFor(cpu int) *ring {
	n := len(t.rings) - 1
	if cpu < 0 {
		return &t.rings[n] // aux
	}
	return &t.rings[cpu%n]
}

// Rings returns the number of rings, counting the auxiliary one.
func (t *Tracer) Rings() int { return len(t.rings) }

// RingSize returns the per-ring record capacity.
func (t *Tracer) RingSize() int { return int(t.mask + 1) }

// Event is one decoded record.
type Event struct {
	TS   uint64 `json:"ts_ns"` // ns since the tracer was armed
	Type Type   `json:"type"`
	CPU  int    `json:"cpu"` // emitting partition; -1 = aux ring
	Ring int    `json:"ring"`
	Seq  uint64 `json:"seq"` // claim order within the ring
	A    uint64 `json:"a"`
	B    uint64 `json:"b"`
	C    uint64 `json:"c"`
}

// snapshotRing copies ring i's committed, still-unoverwritten records
// in generation order. Concurrent writers are fine: each slot's
// sequence stamp is checked before and after the payload copy and torn
// records are dropped, so every returned event is one a writer fully
// committed.
func (t *Tracer) snapshotRing(i int) []Event {
	r := &t.rings[i]
	head := r.head.Load()
	n := t.mask + 1
	lo := uint64(0)
	if head > n {
		lo = head - n
	}
	cpu := i
	if i == len(t.rings)-1 {
		cpu = AuxCPU
	}
	out := make([]Event, 0, head-lo)
	for pos := lo; pos < head; pos++ {
		s := &r.slots[pos&t.mask]
		want := 2*pos + 2
		if s.seq.Load() != want {
			continue // in-progress or already overwritten
		}
		ev := Event{
			TS:   s.ts.Load(),
			Ring: i,
			CPU:  cpu,
			Seq:  pos,
			A:    s.a.Load(),
			B:    s.b.Load(),
			C:    s.c.Load(),
		}
		meta := s.meta.Load()
		ev.Type = Type(meta >> 48)
		if s.seq.Load() != want {
			continue // overwritten while copying
		}
		out = append(out, ev)
	}
	return out
}

// Snapshot copies every ring's committed records. Rings are returned
// in ring order, events within a ring oldest-first.
func (t *Tracer) Snapshot() *Dump {
	d := &Dump{StartUnixNano: t.wall, Rings: make([]RingDump, 0, len(t.rings))}
	for i := range t.rings {
		evs := t.snapshotRing(i)
		if len(evs) == 0 {
			continue
		}
		d.Rings = append(d.Rings, RingDump{ID: i, Events: evs})
	}
	return d
}
