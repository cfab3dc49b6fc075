package sim

import (
	"math"

	"bonsai/internal/coherence"
	"bonsai/internal/stats"
	"bonsai/internal/vm"
)

// This file reproduces §7.2's application-workaround comparisons:
//
//   - Metis with 2 MB superpages on stock locking versus unmodified
//     Metis on pure RCU. The paper: "unmodified Metis using the pure
//     RCU design outperforms the optimized Metis using read/write
//     locking; the former achieves 76× speed-up at 80 cores while the
//     latter only 63×."
//   - Psearchy in a multi-process configuration (private address
//     spaces) versus multi-threaded. The paper: multi-process achieves
//     "49× speed-up at 80 cores, versus 25× for multi-threaded
//     Psearchy", limited by glibc contention rather than the kernel.

// SuperpageFaultCycles is the service cost of one 2 MB superpage fault.
// It bundles the 2 MB of zeroing that 512 small faults would have
// amortized plus the cost that dominates high-order allocations in
// practice: order-9 pages bypass the per-CPU free lists, take the zone
// lock, and often pay for compaction. Calibrated against §7.2's Metis
// comparison so the stock-with-superpages configuration lands near the paper's
// observation that it achieves only 63× speedup while unmodified Metis
// on pure RCU achieves 76×.
const SuperpageFaultCycles = 5_000_000

// MetisSuperpages is the Metis model with 2 MB pages: 512× fewer faults
// (§2: "this reduces the number of page faults by a factor of 512").
func metisSuperpages() AppModel {
	m := Metis
	m.Name = "Metis (2MB superpages)"
	m.FaultsPerJob = math.Round(Metis.FaultsPerJob / 512)
	m.Scale = 1 // few faults; simulate the whole job
	return m
}

// RunAppSuperpages simulates the superpage variant: the fault path is
// the same design machinery, but each fault covers 2 MB and costs
// SuperpageFaultCycles of zeroing work.
func RunAppSuperpages(m *coherence.Machine, d vm.Design, p Params, n int) AppResult {
	p.BaseFault = SuperpageFaultCycles
	p.AllocSlope = p.AllocSlope * 16 // larger allocations contend a bit more
	return RunApp(m, d, p, metisSuperpages(), n)
}

// The glibc arena-lock bottleneck that limits multi-process Psearchy in
// the paper ("ultimately limited ... by lock contention within glibc
// itself"): every glibcEvery faults, a process enters a serialized
// glibc section of glibcSerialCycles. The implied Amdahl serial
// fraction (~0.8%) is calibrated to the paper's 49× speedup at 80
// cores.
const (
	glibcEvery        = 8
	glibcSerialCycles = 6_200
)

// RunPsearchyMultiprocess simulates Psearchy with one private address
// space per core: no shared mmap_sem at all (every process has its own
// locks), at the cost of the glibc serial fraction.
func RunPsearchyMultiprocess(m *coherence.Machine, p Params, n int) AppResult {
	s := New(m, true)
	app := Psearchy
	p.MmapPlan, p.MmapWork, p.TreeWork = app.MmapPlan, app.MmapWork, app.TreeWork

	totalFaults := app.FaultsPerJob + app.FaultsPerCore*float64(n)
	userPerFault := app.UserSeconds * m.ClockHz / totalFaults

	faultQuota := int(math.Round((app.FaultsPerJob/float64(n) + app.FaultsPerCore) / app.Scale))
	mmapQuota := int(math.Round(app.MmapsPerJob / float64(n) / app.Scale))
	mmapEvery := 1
	if mmapQuota > 0 {
		mmapEvery = faultQuota / mmapQuota
		if mmapEvery == 0 {
			mmapEvery = 1
		}
	}

	// The glibc bottleneck: a lock all processes share (malloc arena).
	glibc := NewVSem(s, p.WakeCycles, false)

	procs := make([]*Proc, n)
	for i := 0; i < n; i++ {
		i := i
		// Each process has a PRIVATE environment: private mmap_sem.
		env := NewEnv(s, vm.RWLock, p, 1)
		procs[i] = s.Spawn(i, "psearchy-mp", func(c *Ctx) {
			done := 0
			for j := 0; j < faultQuota; j++ {
				c.ComputeUser(uint64(userPerFault))
				if j%glibcEvery == 0 {
					glibc.Lock(c)
					c.ComputeUser(glibcSerialCycles)
					glibc.Unlock(c)
				}
				env.Fault(c)
				if j%mmapEvery == mmapEvery-1 && done < mmapQuota {
					env.Mmap(c)
					done++
				}
			}
		})
	}
	final := s.Run(math.MaxUint64)

	res := AppResult{App: "Psearchy (multi-process)", Design: vm.RWLock, Cores: n}
	jobCycles := float64(final) * app.Scale
	res.JobsPerHour = 3600 / (jobCycles / m.ClockHz)
	var user, sys, idle uint64
	for _, p := range procs {
		u, sy, id, _ := p.Accounting()
		user, sys, idle = user+u, sys+sy, idle+id
	}
	res.UserSeconds = float64(user) * app.Scale / m.ClockHz
	res.SysSeconds = float64(sys) * app.Scale / m.ClockHz
	res.IdleSeconds = float64(idle) * app.Scale / m.ClockHz
	return res
}

// Workarounds regenerates the §7.2 workaround comparison table.
func Workarounds(m *coherence.Machine, p Params) *stats.Table {
	t := &stats.Table{
		Title:   "§7.2 workarounds: kernel fix vs. application workarounds (80 cores)",
		Columns: []string{"Configuration", "jobs/hour", "speedup vs 1 core", "paper"},
	}

	row := func(name string, r80, r1 AppResult, paper string) {
		t.AddRow(name,
			stats.FormatFloat(r80.JobsPerHour),
			stats.FormatFloat(math.Round(r80.JobsPerHour/r1.JobsPerHour))+"x",
			paper)
	}

	row("Metis 4K pages, pure RCU (kernel fix)",
		RunApp(m, vm.PureRCU, p, Metis, 80),
		RunApp(m, vm.PureRCU, p, Metis, 1),
		"76x")
	row("Metis 2MB superpages, stock locking",
		RunAppSuperpages(m, vm.RWLock, p, 80),
		RunAppSuperpages(m, vm.RWLock, p, 1),
		"63x")
	row("Psearchy multi-threaded, pure RCU",
		RunApp(m, vm.PureRCU, p, Psearchy, 80),
		RunApp(m, vm.PureRCU, p, Psearchy, 1),
		"25x")
	row("Psearchy multi-process, stock locking",
		RunPsearchyMultiprocess(m, p, 80),
		RunPsearchyMultiprocess(m, p, 1),
		"49x")
	return t
}
