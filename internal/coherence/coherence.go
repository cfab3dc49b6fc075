// Package coherence is a cost model for cache-line ownership transfer
// on a multi-socket machine — the substitute for the paper's 80-core
// 8-socket Intel E7-8870 testbed (§7.1), which this reproduction does
// not have. The model captures the one hardware effect the paper's
// scalability results hinge on: an exclusive (read-modify-write) access
// to a cache line owned by another core must fetch the line, these
// fetches serialize at the line's home, and a contended line "can take
// hundreds of cycles to fetch from a remote core" (§2).
//
// The discrete-event simulator (internal/sim) charges every simulated
// atomic operation through this model; local operations cost a handful
// of cycles, remote transfers cost hundreds, and back-to-back transfers
// of one line queue behind each other, which is what makes lock
// acquisition cost grow linearly with core count in Figures 16–18.
package coherence

// Topology describes the simulated machine's socket layout.
type Topology struct {
	Sockets        int
	CoresPerSocket int
}

// Cores returns the total core count.
func (t Topology) Cores() int { return t.Sockets * t.CoresPerSocket }

// Socket returns the socket of a core under the paper's two placement
// policies (§7.1): packed places consecutive cores on as few sockets as
// possible (used for microbenchmarks); spread round-robins cores across
// sockets (used for application benchmarks).
func (t Topology) Socket(core int, spread bool) int {
	if spread {
		return core % t.Sockets
	}
	return core / t.CoresPerSocket
}

// Latencies are the model's cycle costs. They are calibrated, not
// measured: the paper's own anchor points (≈7,400 cycles per fault at
// 10 cores in all designs; ≈8,869 for pure RCU at 80 cores; lock-based
// designs "more than an order of magnitude" worse at 80 cores: Figure
// 17 and §7.3) pin the constants.
type Latencies struct {
	// LocalHit is an atomic op on a line this core already owns.
	LocalHit uint64
	// SameSocket is an exclusive transfer from a core on the same socket.
	SameSocket uint64
	// CrossSocket is an exclusive transfer across the interconnect.
	// It is an *effective* cost: raw transfer plus the directory,
	// queuing and CAS-retry overheads a saturated rwsem word suffers.
	CrossSocket uint64
	// SharedRead is a read-only fetch of a remotely owned line.
	SharedRead uint64
}

// E78870 approximates the paper's 8-socket, 80-core machine.
var E78870 = Machine{
	Topology: Topology{Sockets: 8, CoresPerSocket: 10},
	Lat: Latencies{
		LocalHit:    8,
		SameSocket:  180,
		CrossSocket: 950,
		SharedRead:  120,
	},
	ClockHz: 2.4e9,
}

// Machine bundles a topology with its latencies and clock.
type Machine struct {
	Topology Topology
	Lat      Latencies
	ClockHz  float64
}

// Line is one shared cache line: who owns it exclusively, whether other
// cores hold shared copies, and until when the line is busy completing
// a previous transfer. All times are virtual cycles managed by the
// caller (the simulator runs one event at a time, so no atomicity is
// needed here).
type Line struct {
	owner     int // core holding the line exclusively (-1: none yet)
	shared    bool
	busyUntil uint64

	transfers uint64 // ownership changes (contention diagnostic)
}

// NewLine returns an unowned line.
func NewLine() *Line { return &Line{owner: -1} }

// Transfers returns how many ownership transfers the line has seen.
func (l *Line) Transfers() uint64 { return l.transfers }

// Acquire performs a read-modify-write of the line by core at virtual
// time now, returning the completion time. Transfers serialize: if the
// line is still busy with an earlier transfer, this one queues behind
// it. spread selects the core-placement policy for socket distance.
func (m *Machine) Acquire(l *Line, core int, now uint64, spread bool) uint64 {
	start := now
	if l.busyUntil > start {
		start = l.busyUntil // queue behind the in-flight transfer
	}
	var cost uint64
	switch {
	case l.owner == core && !l.shared:
		cost = m.Lat.LocalHit
	case l.owner == core: // owned here but shared copies exist: invalidate
		cost = m.Lat.SameSocket
	case l.owner < 0:
		cost = m.Lat.LocalHit
	case m.Topology.Socket(l.owner, spread) == m.Topology.Socket(core, spread):
		cost = m.Lat.SameSocket
	default:
		cost = m.Lat.CrossSocket
	}
	if l.owner >= 0 && l.owner != core {
		l.transfers++ // first touch is not a transfer
	}
	l.owner = core
	l.shared = false
	l.busyUntil = start + cost
	return start + cost
}

// Read performs a read-only access at virtual time now, returning the
// completion time. A core reading its own line pays a local hit; others
// pay a shared fetch. Read sharing does not serialize through
// busyUntil (multiple readers can hold copies), but it marks the line
// shared so the owner's next write pays an invalidation.
func (m *Machine) Read(l *Line, core int, now uint64, spread bool) uint64 {
	if l.owner == core || l.owner < 0 {
		return now + m.Lat.LocalHit
	}
	l.shared = true
	return now + m.Lat.SharedRead
}
