package introspect

import (
	"fmt"
	"io"
	"time"

	"bonsai/internal/contention"
	"bonsai/internal/machine"
	"bonsai/internal/vm"
)

// hugePages converts live huge entries (vm.Counts.AnonHugePages) to the
// base-page figure the meminfo line reports, matching Linux's
// AnonHugePages-in-kB convention.
const hugePages = int64(vm.HugeSpan / vm.PageSize)

// procfs-style plain-text renderers. Shapes follow the Linux files
// they imitate loosely — aligned "Key:  value" lines for meminfo,
// one-record-per-line for locks — so they stay greppable from a shell
// while a run is live.

// TenantRSS picks the best resident-set figure a snapshot offers: the
// account's charged frames when the tenant is limited, else the pages
// its members map (PagesUnmapped counts evictions too).
func TenantRSS(ts machine.TenantSnapshot) int64 {
	if ts.Account != nil {
		return ts.Account.Charged
	}
	return int64(ts.PagesMapped) - int64(ts.PagesUnmapped)
}

// WriteMeminfo renders /proc/meminfo: the machine-wide frame pool with
// reclaim watermarks, then one block per tenant.
func WriteMeminfo(w io.Writer, m *machine.Machine) error {
	sn := m.Snapshot()
	alloc := m.Host().Allocator()
	pw := &errWriter{w: w}
	pw.printf("MemTotal:       %8d frames\n", sn.FramesTotal)
	pw.printf("MemInUse:       %8d frames\n", sn.FramesInUse)
	pw.printf("MemFree:        %8d frames\n", int64(sn.FramesTotal)-sn.FramesInUse)
	pw.printf("WatermarkLow:   %8d frames\n", alloc.LowWater())
	pw.printf("WatermarkHigh:  %8d frames\n", alloc.HighWater())
	pw.printf("OOMKills:       %8d\n", sn.OOMKills)
	pw.printf("ReclaimEvicted: %8d pages\n", ReclaimEvictions(sn))
	pw.printf("Writebacks:     %8d pages\n", sn.Reclaim.Writebacks)
	pw.printf("AnonHugePages:  %8d pages\n", sn.AnonHugePages*hugePages)
	for _, ts := range sn.Tenants {
		pw.printf("\nTenant: %s\n", ts.Name)
		limit := ts.Limit
		if ts.Account != nil {
			limit = ts.Account.Limit
		}
		if limit > 0 {
			pw.printf("  Limit:        %8d frames\n", limit)
		} else {
			pw.printf("  Limit:        unlimited\n")
		}
		pw.printf("  RSS:          %8d frames\n", TenantRSS(ts))
		if ts.Account != nil {
			pw.printf("  MaxRSS:       %8d frames\n", ts.Account.MaxCharged)
			pw.printf("  LimitHits:    %8d\n", ts.Account.LimitHits)
			pw.printf("  Evictions:    %8d pages\n", ts.Account.Evictions)
		}
		pw.printf("  AnonHuge:     %8d pages\n", ts.AnonHugePages*hugePages)
		pw.printf("  Faults:       %8d\n", ts.Faults)
		pw.printf("  FaultP99:     %8v (%d samples)\n", time.Duration(ts.Fault.P99Ns), ts.Fault.Count)
	}
	return pw.err
}

// WriteLocks renders /proc/locks: every live range-lock guard — held
// and queued — across every tenant's member spaces, plus designs on
// the global mmap_sem, which report no table. Reading takes only each
// manager's own mutex, far below everything interesting.
func WriteLocks(w io.Writer, m *machine.Machine) error {
	pw := &errWriter{w: w}
	pw.printf("# tenant space guard  range              state    age\n")
	records := 0
	for _, t := range m.Tenants() {
		for wi, as := range t.Spaces() {
			guards, ok := as.RangeGuards()
			if !ok {
				pw.printf("%s %d - (global mmap_sem design: no range table)\n", t.Name(), wi)
				continue
			}
			for _, g := range guards {
				state := "HELD"
				if g.Waiting {
					state = "WAITING"
				}
				pw.printf("%s %d %6d [%#x, %#x) %-7s %v\n",
					t.Name(), wi, g.ID, g.Lo, g.Hi, state, time.Duration(g.AgeNs).Round(time.Microsecond))
				records++
			}
		}
	}
	pw.printf("# %d guards live\n", records)
	return pw.err
}

// WriteRCU renders /proc/rcu: domain counters, grace-period latency,
// and the per-shard callback backlog.
func WriteRCU(w io.Writer, m *machine.Machine) error {
	pw := &errWriter{w: w}
	st := m.Host().Domain().Stats()
	gp := "idle"
	if st.GPInFlight {
		gp = "IN FLIGHT"
	}
	pw.printf("GracePeriods:     %8d (%s)\n", st.GracePeriods, gp)
	pw.printf("Readers:          %8d\n", st.Readers)
	pw.printf("CallbacksQueued:  %8d\n", st.Defers)
	pw.printf("CallbacksRan:     %8d\n", st.Ran)
	pw.printf("Pending:          %8d (high water %d)\n", st.Pending, st.PendingHighWater)
	pw.printf("OverBudget:       %8d\n", st.OverBudget)
	pw.printf("GPLatency:        avg %v  max %v  p99 %v\n",
		st.GPLatencyAvg.Round(time.Microsecond), st.GPLatencyMax.Round(time.Microsecond),
		time.Duration(st.GP.P99Ns).Round(time.Microsecond))
	for i, n := range st.ShardPending {
		pw.printf("shard %2d: pending %6d", i, n)
		if i < len(st.ShardQueued) {
			pw.printf("  queued %8d", st.ShardQueued[i])
		}
		if i < len(st.ShardDrains) {
			pw.printf("  drains %8d", st.ShardDrains[i])
		}
		pw.printf("\n")
	}
	return pw.err
}

// WriteSmaps renders /proc/<tenant>/smaps: one block per VMA per
// member space, walked under RCU read sections only.
func WriteSmaps(w io.Writer, t *machine.Tenant) error {
	pw := &errWriter{w: w}
	spaces := t.Spaces()
	for wi, as := range spaces {
		if len(spaces) > 1 {
			pw.printf("# space %d\n", wi)
		}
		for _, r := range as.Smaps() {
			name := r.File
			if name == "" {
				name = "[anon]"
			}
			pw.printf("%016x-%016x %s %s %s\n", r.Start, r.End, r.Prot, r.Flags, name)
			pw.printf("Size:     %8d pages\n", r.Pages)
			pw.printf("Rss:      %8d pages\n", r.RSS)
			pw.printf("Shared:   %8d pages\n", r.Shared)
			pw.printf("Private:  %8d pages\n", r.Private)
			pw.printf("Cow:      %8d pages\n", r.Cow)
			pw.printf("Dirty:    %8d pages\n", r.Dirty)
		}
	}
	return pw.err
}

// WriteContention renders /debug/contention: the profiler's top sites
// by cumulative wait.
func WriteContention(w io.Writer, sites []contention.SiteStats) error {
	pw := &errWriter{w: w}
	if sites == nil {
		pw.printf("contention profiler disarmed (no server serving?)\n")
		return pw.err
	}
	pw.printf("# site               range                    waits   total-wait     max-wait\n")
	for _, s := range sites {
		rng := "-"
		if s.Lo != 0 || s.Hi != 0 {
			rng = fmt.Sprintf("[%#x, %#x)", s.Lo, s.Hi)
		}
		pw.printf("%-20s %-22s %8d %12v %12v\n",
			s.Site, rng, s.Waits,
			time.Duration(s.TotalWaitNs).Round(time.Microsecond),
			time.Duration(s.MaxWaitNs).Round(time.Microsecond))
	}
	return pw.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, err := fmt.Fprintf(e.w, format, args...)
	if err != nil {
		e.err = err
	}
}
