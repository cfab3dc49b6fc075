// Package introspect is the live half of the observability story: an
// embeddable HTTP server exposing the machine while it runs — /metrics
// in Prometheus text exposition format, procfs-style plain-text views
// (/proc/meminfo, /proc/<tenant>/smaps, /proc/locks, /proc/rcu), and
// the lock-contention attribution profiler at /debug/contention — plus
// the snapshot-delta engine cmd/soak's vmstat line and cmd/vmtop share.
//
// Every inspection path takes only read-side or already-existing
// locks: RCU read sections and lock-free PTE walks for smaps, the
// whole-space range lock (or the mmap_sem read side) for the region
// list, each manager's own mutex for the lock table, and the machine's
// tenant mutex and each family's member mutex for the rollup. Nothing
// here introduces a lock level above the reclaim scan lock, so an
// operator scraping a wedged machine cannot deadlock against the paths
// being diagnosed. With no server attached the whole plane is
// disarmed: the only residue on hot paths is the contention profiler's
// one atomic load, and that sits on already-contended slow paths only.
package introspect

import (
	"sync"

	"bonsai/internal/machine"
	"bonsai/internal/physmem"
	"bonsai/internal/rcu"
	"bonsai/internal/vm"
)

// TenantSpaces is one tenant's name, limit, and live member spaces —
// the per-tenant detail the procfs views walk (the snapshot alone
// carries counters, not address spaces).
type TenantSpaces struct {
	Name   string
	Limit  int64
	Spaces []*vm.AddressSpace
}

// Source is the world an introspection server reports on. Machine
// adapts machine.Machine; SpaceSet adapts drivers that build address
// spaces directly with vm.New (vmstress, torture).
type Source interface {
	// Label names the source on the index page and in the instance
	// metric.
	Label() string
	// Snapshot returns the machine-wide rollup.
	Snapshot() machine.Snapshot
	// Tenants returns the live tenants and their member spaces.
	Tenants() []TenantSpaces
	// Allocator exposes the frame pool for the meminfo watermarks; may
	// return nil when the source is currently empty.
	Allocator() *physmem.Allocator
	// Domain exposes the RCU domain for /proc/rcu; may return nil when
	// the source is currently empty.
	Domain() *rcu.Domain
}

// Machine adapts a machine.Machine as a Source.
func Machine(m *machine.Machine, label string) Source {
	return machineSource{m: m, label: label}
}

type machineSource struct {
	m     *machine.Machine
	label string
}

func (s machineSource) Label() string              { return s.label }
func (s machineSource) Snapshot() machine.Snapshot { return s.m.Snapshot() }
func (s machineSource) Allocator() *physmem.Allocator {
	return s.m.Host().Allocator()
}
func (s machineSource) Domain() *rcu.Domain { return s.m.Host().Domain() }

func (s machineSource) Tenants() []TenantSpaces {
	ts := s.m.Tenants()
	out := make([]TenantSpaces, 0, len(ts))
	for _, t := range ts {
		out = append(out, TenantSpaces{Name: t.Name(), Limit: t.Limit(), Spaces: t.Spaces()})
	}
	return out
}

// SpaceSet is a mutable Source over named vm.AddressSpaces, for
// drivers without a machine.Machine: each registered space reports as
// one unlimited tenant — its family's vm.Rollup, fork children and
// siblings included — and the machine-wide sections come from the
// registered spaces' shared state. Add and the returned remove func
// are safe for concurrent use with a serving server.
type SpaceSet struct {
	label string

	mu     sync.Mutex
	seq    int
	names  []string // registration order
	spaces map[string]*vm.AddressSpace
}

// NewSpaceSet returns an empty SpaceSet.
func NewSpaceSet(label string) *SpaceSet {
	return &SpaceSet{label: label, spaces: make(map[string]*vm.AddressSpace)}
}

// Add registers a space under name (deduplicated with a sequence
// number) and returns its remove func. Call remove before closing the
// space so no in-flight scrape walks a tearing-down world.
func (s *SpaceSet) Add(name string, as *vm.AddressSpace) (remove func()) {
	s.mu.Lock()
	s.seq++
	key := name
	if _, dup := s.spaces[key]; dup || key == "" {
		key = name + "#" + itoa(s.seq)
	}
	s.spaces[key] = as
	s.names = append(s.names, key)
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.spaces, key)
		for i, n := range s.names {
			if n == key {
				s.names = append(s.names[:i], s.names[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func (s *SpaceSet) Label() string { return s.label }

// live returns the registered (name, space) pairs in arrival order.
func (s *SpaceSet) live() []TenantSpaces {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantSpaces, 0, len(s.names))
	for _, n := range s.names {
		if as, ok := s.spaces[n]; ok {
			out = append(out, TenantSpaces{Name: n, Spaces: []*vm.AddressSpace{as}})
		}
	}
	return out
}

func (s *SpaceSet) Tenants() []TenantSpaces { return s.live() }

func (s *SpaceSet) Allocator() *physmem.Allocator {
	for _, t := range s.live() {
		return t.Spaces[0].Allocator()
	}
	return nil
}

func (s *SpaceSet) Domain() *rcu.Domain {
	for _, t := range s.live() {
		return t.Spaces[0].Domain()
	}
	return nil
}

// Snapshot synthesizes a machine.Snapshot-shaped rollup from the
// registered spaces. Counts can regress across scrapes when spaces
// are removed (an epoch teardown forgets its samples) — unlike the
// machine source, whose counters are monotonic; the delta engine and
// the exposition checker treat SpaceSet-backed counters accordingly.
func (s *SpaceSet) Snapshot() machine.Snapshot {
	live := s.live()
	var sn machine.Snapshot
	var all vm.Rollup
	for _, t := range live {
		as := t.Spaces[0]
		r := as.Rollup()
		ts := machine.TenantSnapshot{Name: t.Name, Space: as.Stats(), Faults: r.Faults, Fault: r.Fault.Stats()}
		all.Add(r)
		sn.OOMKills += ts.Space.OOMKills
		sn.Tenants = append(sn.Tenants, ts)
	}
	sn.Faults = all.Faults
	sn.Latency.Fault = all.Fault.Stats()
	sn.Latency.MapOp = all.MapOp.Stats()
	sn.Latency.RangeWait = all.RangeWait.Stats()
	if len(live) > 0 {
		as := live[0].Spaces[0]
		alloc := as.Allocator()
		sn.FramesTotal = alloc.NumFrames()
		sn.FramesInUse = alloc.InUse()
		sn.Reclaim = as.ReclaimStats()
		sn.Latency.GP = as.Domain().GPHist().Stats()
		sn.Latency.ReclaimScan = sn.Reclaim.Scan
	}
	return sn
}
