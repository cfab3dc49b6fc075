package sim

import (
	"math"

	"bonsai/internal/coherence"
	"bonsai/internal/stats"
	"bonsai/internal/vm"
)

// AppModel parameterizes one of the paper's three application
// benchmarks (§7.1–7.2) as a VM-operation workload: how much user work
// a job contains and how many faults and mapping operations its threads
// issue. The parameters are calibrated from the paper's own Table 1
// (user and system seconds per job at 80 cores) and the §7.2
// narrative, as the comment on Metis, Psearchy and Dedup below derives.
type AppModel struct {
	Name string

	// UserSeconds is the job's total user-mode CPU seconds absent
	// contention (the pure-RCU user column of Table 1).
	UserSeconds float64
	// FaultsPerJob is the job's fixed soft-fault count (data scales
	// with the input, not the thread count).
	FaultsPerJob float64
	// FaultsPerCore adds per-thread faults (Psearchy's per-thread
	// 128 MB hash tables).
	FaultsPerCore float64
	// MmapsPerJob is the job's total mapping-operation count (mmap +
	// munmap), issued by the worker threads themselves.
	MmapsPerJob float64

	// MmapPlan/MmapWork/TreeWork override the mapping-operation cost
	// for this app's typical region size.
	MmapPlan, MmapWork, TreeWork uint64

	// CacheCoeff inflates user work by this fraction of the previous
	// fault's coherence stalls, modeling the paper's observation that
	// kernel contention "indirectly causes a 44% increase in the user
	// time" through cache pressure and interconnect traffic (§7.2).
	CacheCoeff float64

	// Scale divides the fault and mmap counts so simulations finish
	// quickly; throughput results are scaled back. It does not change
	// per-operation costs.
	Scale float64
}

// The three applications, calibrated from §7.1–7.2 and Table 1:
//
//   - Metis maps ~12 GB of anonymous memory through 8 MB Streamflow
//     segments: ~3.1 M faults, ~3,000 large mapping operations.
//   - Psearchy allocates a 128 MB hash table per thread (32 K faults
//     per core) and performs ~30,000 small mmap/munmap pairs for stdio
//     buffers — "13× more memory mapping operations per second than
//     Metis".
//   - Dedup soft-faults ~13 GB through 4–8 MB allocator chunks: ~3.4 M
//     faults, ~4,300 mid-size mapping operations.
var (
	Metis = AppModel{
		Name:         "Metis",
		UserSeconds:  102,
		FaultsPerJob: 3.1e6,
		MmapsPerJob:  3000,
		MmapPlan:     30_000,
		MmapWork:     150_000, // 8 MB segment map/unmap incl. Figure 11 zap
		TreeWork:     9_000,
		CacheCoeff:   0.18,
		Scale:        40,
	}
	Psearchy = AppModel{
		Name:          "Psearchy",
		UserSeconds:   107,
		FaultsPerJob:  250_000, // stream buffers and index output
		FaultsPerCore: 32_768,  // 128 MB per-thread hash table
		MmapsPerJob:   60_000,  // 30,000 mmap/munmap pairs
		MmapPlan:      4_000,
		MmapWork:      26_000, // small stream-buffer regions
		TreeWork:      6_000,
		CacheCoeff:    0.05,
		Scale:         25,
	}
	Dedup = AppModel{
		Name:         "Dedup",
		UserSeconds:  430,
		FaultsPerJob: 3.4e6,
		MmapsPerJob:  4300,
		MmapPlan:     25_000,
		MmapWork:     900_000, // 4–8 MB chunk unmaps incl. page freeing and zap
		TreeWork:     9_000,
		CacheCoeff:   0.15,
		Scale:        20,
	}

	// Apps lists the three application models in the paper's order.
	Apps = []AppModel{Metis, Psearchy, Dedup}
)

// AppResult is one simulated application run.
type AppResult struct {
	App          string
	Design       vm.Design
	Cores        int
	JobsPerHour  float64
	UserSeconds  float64 // Table 1 columns (per job, summed over cores)
	SysSeconds   float64
	IdleSeconds  float64
	FaultsPerSec float64
}

// RunApp simulates one job of the application on n cores under the
// given design and returns its throughput and time breakdown.
// Application runs spread cores across sockets (§7.1: "we spread
// enabled cores across sockets").
func RunApp(m *coherence.Machine, d vm.Design, p Params, app AppModel, n int) AppResult {
	s := New(m, true /* spread */)
	p.MmapPlan, p.MmapWork, p.TreeWork = app.MmapPlan, app.MmapWork, app.TreeWork
	env := NewEnv(s, d, p, n)

	totalFaults := app.FaultsPerJob + app.FaultsPerCore*float64(n)
	userPerFault := app.UserSeconds * m.ClockHz / totalFaults

	faultQuota := int(math.Round((app.FaultsPerJob/float64(n) + app.FaultsPerCore) / app.Scale))
	if faultQuota < 1 {
		faultQuota = 1
	}
	mmapQuota := int(math.Round(app.MmapsPerJob / float64(n) / app.Scale))
	mmapEvery := 0
	if mmapQuota > 0 {
		mmapEvery = faultQuota / mmapQuota
		if mmapEvery == 0 {
			mmapEvery = 1
		}
	}

	procs := make([]*Proc, n)
	for i := 0; i < n; i++ {
		i := i
		// Stagger each thread's mapping operations so they spread over
		// the whole run instead of synchronizing, as real threads do.
		phase := 0
		if mmapEvery > 0 {
			phase = i * mmapEvery / n
		}
		procs[i] = s.Spawn(i, app.Name, func(c *Ctx) {
			mmapsDone := 0
			for j := 0; j < faultQuota; j++ {
				u := userPerFault + app.CacheCoeff*float64(c.LastStall())
				c.ComputeUser(uint64(u))
				env.Fault(c)
				if mmapEvery > 0 && j >= phase && (j-phase)%mmapEvery == 0 && mmapsDone < mmapQuota {
					env.Mmap(c)
					mmapsDone++
				}
			}
		})
	}
	final := s.Run(math.MaxUint64)

	res := AppResult{App: app.Name, Design: d, Cores: n}
	var user, sys, idle uint64
	for _, p := range procs {
		u, sy, id, _ := p.Accounting()
		user, sys, idle = user+u, sys+sy, idle+id
	}
	// Scale back up to a full job.
	jobCycles := float64(final) * app.Scale
	res.JobsPerHour = 3600 / (jobCycles / m.ClockHz)
	res.UserSeconds = float64(user) * app.Scale / m.ClockHz
	res.SysSeconds = float64(sys) * app.Scale / m.ClockHz
	res.IdleSeconds = float64(idle) * app.Scale / m.ClockHz
	res.FaultsPerSec = totalFaults / (jobCycles / m.ClockHz)
	return res
}

// AppCorePoints is the core-count sweep of Figures 13–15.
var AppCorePoints = []int{1, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80}

// FigApp regenerates one of Figures 13–15: application throughput
// versus cores for all four designs.
func FigApp(m *coherence.Machine, p Params, app AppModel, cores []int) *stats.Series {
	title := map[string]string{
		"Metis":    "Figure 13: Metis throughput for each page fault concurrency design",
		"Psearchy": "Figure 14: Psearchy throughput for each page fault concurrency design",
		"Dedup":    "Figure 15: Dedup throughput for each page fault concurrency design",
	}[app.Name]
	s := &stats.Series{Title: title, XLabel: "Cores", YLabel: "Throughput (jobs/hour)"}
	for _, n := range cores {
		s.X = append(s.X, float64(n))
	}
	for _, d := range vm.Designs {
		var y []float64
		for _, n := range cores {
			y = append(y, RunApp(m, d, p, app, n).JobsPerHour)
		}
		s.AddLine(d.String(), y)
	}
	return s
}

// Table1 regenerates Table 1: user, system, and idle time at 80 cores
// for a single job of each application under each design.
func Table1(m *coherence.Machine, p Params) *stats.Table {
	t := &stats.Table{
		Title:   "Table 1: user, system, and idle time at 80 cores for a single job",
		Columns: []string{"App", "Design", "user", "sys", "idle"},
	}
	for _, app := range Apps {
		for _, d := range vm.Designs {
			r := RunApp(m, d, p, app, 80)
			t.AddRow(app.Name, d.String(),
				formatSeconds(r.UserSeconds), formatSeconds(r.SysSeconds), formatSeconds(r.IdleSeconds))
		}
	}
	return t
}

func formatSeconds(s float64) string {
	return stats.FormatFloat(s) + " s"
}
