// Package introspect is the live half of the observability story: an
// embeddable HTTP server exposing the machine while it runs — /metrics
// in Prometheus text exposition format, procfs-style plain-text views
// (/proc/meminfo, /proc/<tenant>/smaps, /proc/locks, /proc/rcu), and
// the lock-contention attribution profiler at /debug/contention — plus
// the snapshot-delta engine cmd/torture's vmstat line and cmd/vmtop
// share.
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

// Source is the machine an introspection server reports on, and the
// label it reports under.
type Source struct {
	m     *machine.Machine
	label string
}

// Machine names m as a Source.
func Machine(m *machine.Machine, label string) Source {
	return Source{m: m, label: label}
}

// Label names the source on the index page and in the instance metric.
func (s Source) Label() string { return s.label }

// Snapshot returns the machine-wide rollup.
func (s Source) Snapshot() machine.Snapshot { return s.m.Snapshot() }

// Allocator exposes the frame pool for the meminfo watermarks.
func (s Source) Allocator() *physmem.Allocator { return s.m.Host().Allocator() }

// Domain exposes the RCU domain for /proc/rcu.
func (s Source) Domain() *rcu.Domain { return s.m.Host().Domain() }

// Tenants returns the live tenants and their member spaces.
func (s Source) Tenants() []TenantSpaces {
	ts := s.m.Tenants()
	out := make([]TenantSpaces, 0, len(ts))
	for _, t := range ts {
		out = append(out, TenantSpaces{Name: t.Name(), Limit: t.Limit(), Spaces: t.Spaces()})
	}
	return out
}
