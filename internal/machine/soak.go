package machine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// SoakConfig parameterizes a multi-tenant soak run: Slots tenant
// seats churning arrival and departure for Duration, every tenant
// thrashing a file working set about twice its frame limit (so the
// tenant-local reclaim ladder runs continuously) on top of a private
// anonymous arena, a family-shared file mapping, and fork storms.
type SoakConfig struct {
	// Seed fixes the workload mix and tenant lifetimes.
	Seed uint64
	// Duration is the total run length.
	Duration time.Duration
	// Slots is the number of concurrent tenant seats (default 4);
	// each seat admits, works, and evicts tenants back to back.
	Slots int
	// LimitFrames is the per-tenant charge limit (default 100).
	LimitFrames int64
	// Workers is the fault goroutines per tenant (default 2).
	Workers int
	// Design picks the §5 concurrency design (default PureRCU).
	Design vm.Design
	// Frames sizes the machine pool. The default, 2× the sum of the
	// tenant limits (plus slack), keeps the shared pool comfortable:
	// the only reclaim a healthy run drives is tenant-local, so any
	// under-limit eviction the fairness metric counts is genuine
	// cross-tenant interference, not global pressure.
	Frames uint64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Sample, when non-nil, receives a machine snapshot every
	// SampleEvery (default 1s) while the run is in flight — the hook
	// behind cmd/soak's vmstat-style delta sampler.
	Sample      func(Snapshot)
	SampleEvery time.Duration
	// OnMachine, when non-nil, observes the soak's machine right after
	// construction; the returned func (may be nil) runs after the last
	// tenant departs and before the machine tears down. cmd/soak uses
	// it to attach and detach the -http introspection server.
	OnMachine func(*Machine) func()
}

// SoakTenantReport is one seat's aggregate across every tenant
// generation it hosted.
type SoakTenantReport struct {
	Seat        string `json:"seat"`
	Generations uint64 `json:"generations"`
	Faults      uint64 `json:"faults"`
	FaultP50NS  int64  `json:"fault_p50_ns"`
	FaultP99NS  int64  `json:"fault_p99_ns"`
	FaultP999NS int64  `json:"fault_p999_ns"`
	LimitHits   uint64 `json:"limit_hits"`
	Evictions   uint64 `json:"evictions"`
	// EvictionsUnderLimit is this seat's slice of the cross-tenant
	// fairness metric.
	EvictionsUnderLimit uint64 `json:"evictions_under_limit"`
	MaxCharged          int64  `json:"max_charged"`
}

// SoakReport is the outcome of a soak run, JSON-marshalable (cmd/soak
// prints it).
type SoakReport struct {
	Seed        uint64 `json:"seed"`
	DurationMS  int64  `json:"duration_ms"`
	Design      string `json:"design"`
	Slots       int    `json:"slots"`
	Admitted    uint64 `json:"tenants_admitted"`
	Evicted     uint64 `json:"tenants_evicted"`
	Ops         uint64 `json:"ops"`
	Faults      uint64 `json:"faults"`
	OOMErrors   uint64 `json:"oom_errors"`
	FaultP50NS  int64  `json:"fault_p50_ns"`
	FaultP99NS  int64  `json:"fault_p99_ns"`
	FaultP999NS int64  `json:"fault_p999_ns"`
	// CrossTenantEvictions is the reclaim-fairness gate: pages evicted
	// from under-limit tenants. ~0 in a healthy run.
	CrossTenantEvictions uint64             `json:"cross_tenant_evictions"`
	LeakedFrames         int64              `json:"leaked_frames"`
	Tenants              []SoakTenantReport `json:"tenants"`
	Violations           []string           `json:"violations,omitempty"`
}

// Failed reports whether the run violated a gate.
func (r *SoakReport) Failed() bool { return len(r.Violations) > 0 }

// Soak geometry (frames per tenant-visible object).
const (
	soakArenaPages = 16 // private anonymous arena, well under the limit
	soakForkPages  = 4  // pages a fork child COW-writes before closing
)

// Soak runs the multi-tenant soak and returns its report.
func Soak(cfg SoakConfig) *SoakReport {
	if cfg.Slots <= 0 {
		cfg.Slots = 4
	}
	if cfg.LimitFrames <= 0 {
		cfg.LimitFrames = 100
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Frames == 0 {
		cfg.Frames = 2*uint64(cfg.Slots)*uint64(cfg.LimitFrames) + 256
	}

	rep := &SoakReport{
		Seed:       cfg.Seed,
		DurationMS: cfg.Duration.Milliseconds(),
		Design:     cfg.Design.String(),
		Slots:      cfg.Slots,
	}
	s := &soak{cfg: cfg, rep: rep}
	s.m = New(Config{
		VM: vm.Config{
			Design: cfg.Design,
			CPUs:   cfg.Workers,
			Frames: cfg.Frames,
		},
		MaxTenants: cfg.Slots,
	})
	var onDone func()
	if cfg.OnMachine != nil {
		onDone = cfg.OnMachine(s.m)
	}

	var samplerStop chan struct{}
	var samplerDone sync.WaitGroup
	if cfg.Sample != nil {
		every := cfg.SampleEvery
		if every <= 0 {
			every = time.Second
		}
		samplerStop = make(chan struct{})
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-samplerStop:
					return
				case <-tick.C:
					cfg.Sample(s.m.Snapshot())
				}
			}
		}()
	}

	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	seats := make([]*seat, cfg.Slots)
	for i := range seats {
		seats[i] = &seat{s: s, id: i}
		wg.Add(1)
		go func(st *seat) {
			defer wg.Done()
			st.run(deadline)
		}(seats[i])
	}
	wg.Wait()
	if samplerStop != nil {
		close(samplerStop)
		samplerDone.Wait()
	}

	// Every seat evicted its last tenant; whatever is still allocated
	// now is a leak (no Host-held frame is legitimate with no tenant).
	rep.LeakedFrames = s.m.Host().Allocator().InUse()
	sn := s.m.Snapshot()
	rep.Admitted = sn.TenantsAdmitted
	rep.Evicted = sn.TenantsEvicted
	rep.CrossTenantEvictions = sn.CrossTenantEvictions
	// Detach the observer (the introspection server) before teardown so
	// no scrape races the machine's close.
	if onDone != nil {
		onDone()
	}
	if err := s.m.Close(); err != nil {
		s.violate("machine close: %v", err)
	}

	var all vm.Rollup
	for _, st := range seats {
		all.Add(&st.rollup)
		rep.Tenants = append(rep.Tenants, SoakTenantReport{
			Seat:                fmt.Sprintf("seat-%d", st.id),
			Generations:         st.generations,
			Faults:              st.rollup.Faults,
			FaultP50NS:          int64(st.rollup.Fault.Percentile(50)),
			FaultP99NS:          int64(st.rollup.Fault.Percentile(99)),
			FaultP999NS:         int64(st.rollup.Fault.Percentile(99.9)),
			LimitHits:           st.limitHits,
			Evictions:           st.evictions,
			EvictionsUnderLimit: st.evictionsUnder,
			MaxCharged:          st.maxCharged,
		})
	}
	rep.Faults = all.Faults
	rep.FaultP50NS = int64(all.Fault.Percentile(50))
	rep.FaultP99NS = int64(all.Fault.Percentile(99))
	rep.FaultP999NS = int64(all.Fault.Percentile(99.9))
	rep.Ops = s.ops.Load()
	rep.OOMErrors = s.oomErrors.Load()

	if rep.CrossTenantEvictions != 0 {
		s.violate("fairness: %d under-limit (cross-tenant) evictions, want 0", rep.CrossTenantEvictions)
	}
	if rep.LeakedFrames != 0 {
		s.violate("leak: %d frames still allocated after every tenant evicted", rep.LeakedFrames)
	}
	return rep
}

// soak is the run-wide shared state.
type soak struct {
	cfg SoakConfig
	rep *SoakReport
	m   *Machine

	ops       atomic.Uint64
	oomErrors atomic.Uint64

	vmu sync.Mutex // guards rep.Violations
}

func (s *soak) violate(format string, args ...any) {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	if len(s.rep.Violations) < 20 {
		s.rep.Violations = append(s.rep.Violations, fmt.Sprintf(format, args...))
	}
}

func (s *soak) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// seat is one tenant slot: it admits a tenant, churns it for a random
// lifetime, evicts it (auditing the teardown), and repeats until the
// deadline.
type seat struct {
	s  *soak
	id int

	// rollup folds in each evicted tenant generation's final vm.Rollup:
	// the VM's own fault count and sampled fault latency.
	rollup         vm.Rollup
	generations    uint64
	limitHits      uint64
	evictions      uint64
	evictionsUnder uint64
	maxCharged     int64
}

func (st *seat) run(deadline time.Time) {
	s := st.s
	rng := rand.New(rand.NewSource(int64(s.cfg.Seed) + int64(st.id)*7919))
	for gen := 0; time.Now().Before(deadline); gen++ {
		lifetime := 250*time.Millisecond + time.Duration(rng.Int63n(int64(350*time.Millisecond)))
		if rest := time.Until(deadline); lifetime > rest {
			lifetime = rest
		}
		if lifetime <= 0 {
			return
		}
		name := fmt.Sprintf("seat%d-gen%d", st.id, gen)
		t, err := s.m.Admit(name, s.cfg.LimitFrames)
		if err != nil {
			s.violate("%s: admit: %v", name, err)
			return
		}
		st.generations++
		st.churn(t, rng, lifetime)
		if ac := t.Account(); ac != nil {
			acs := ac.Stats()
			st.limitHits += acs.LimitHits
			st.evictions += acs.Evictions
			st.evictionsUnder += acs.EvictionsUnderLimit
			if acs.MaxCharged > st.maxCharged {
				st.maxCharged = acs.MaxCharged
			}
		}
		err = t.Evict()
		st.rollup.Add(t.Root().Rollup())
		if err != nil {
			s.violate("%s: evict: %v", name, err)
			return
		}
		s.logf("seat %d: generation %d done (%v lifetime)", st.id, gen, lifetime)
	}
}

// churn drives one tenant generation: the root and one sibling map
// the tenant's file (family-shared frames), every worker thrashes a
// file working set ~2× the tenant limit plus a private arena, and the
// occasional fork storm COW-writes a few pages. ErrNoMemory is
// counted, not fatal: a tenant at its limit that loses the reclaim
// race degrades gracefully by design.
func (st *seat) churn(t *Tenant, rng *rand.Rand, lifetime time.Duration) {
	s := st.s
	filePages := uint64(2 * s.cfg.LimitFrames)
	file := vma.NewFile(t.Name()+".dat", s.cfg.Seed^uint64(st.id)<<32)

	spaces := []*vm.AddressSpace{t.Root()}
	if sib, err := t.NewSibling(); err == nil {
		spaces = append(spaces, sib)
	} else if !errors.Is(err, vm.ErrNoMemory) {
		s.violate("%s: sibling: %v", t.Name(), err)
		return
	}

	bases := make([]uint64, len(spaces))
	arenas := make([]uint64, len(spaces))
	for i, sp := range spaces {
		base, err := sp.Mmap(0, filePages*vm.PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, 0)
		if err != nil {
			s.violate("%s: file mmap: %v", t.Name(), err)
			return
		}
		bases[i] = base
		arena, err := sp.Mmap(0, soakArenaPages*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
		if err != nil {
			s.violate("%s: arena mmap: %v", t.Name(), err)
			return
		}
		arenas[i] = arena
	}

	stop := time.Now().Add(lifetime)
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Workers; w++ {
		wg.Add(1)
		go func(w int, seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			si := w % len(spaces)
			sp := spaces[si]
			cpu := sp.NewCPU(w)
			for time.Now().Before(stop) {
				st.op(t, sp, cpu, wrng, bases[si], arenas[si], filePages, w)
			}
		}(w, int64(s.cfg.Seed)+int64(st.id)*1_000_003+int64(w)*29)
	}
	wg.Wait()
}

// op runs one randomized operation.
func (st *seat) op(t *Tenant, sp *vm.AddressSpace, cpu *vm.CPU, rng *rand.Rand, base, arena, filePages uint64, w int) {
	s := st.s
	s.ops.Add(1)
	switch r := rng.Intn(100); {
	case r < 60: // file fault: the thrashing working set
		page := base + uint64(rng.Int63n(int64(filePages)))*vm.PageSize
		st.fault(t, cpu, page, rng.Intn(4) == 0)
	case r < 85: // private arena fault
		page := arena + uint64(rng.Intn(soakArenaPages))*vm.PageSize
		st.fault(t, cpu, page, true)
	case r < 95: // madvise a quarter of the arena
		off := uint64(rng.Intn(soakArenaPages/4)) * vm.PageSize
		if err := sp.MadviseDontNeed(arena+off, (soakArenaPages/4)*vm.PageSize); err != nil && !errors.Is(err, vm.ErrNoMemory) {
			s.violate("%s: madvise: %v", t.Name(), err)
		}
	default: // fork storm: COW child writes a few pages and exits
		child, err := sp.Fork()
		if err != nil {
			if !errors.Is(err, vm.ErrNoMemory) {
				s.violate("%s: fork: %v", t.Name(), err)
			} else {
				s.oomErrors.Add(1)
			}
			return
		}
		ccpu := child.NewCPU(w)
		for p := 0; p < soakForkPages; p++ {
			st.fault(t, ccpu, arena+uint64(p)*vm.PageSize, true)
		}
		if err := child.Close(); err != nil {
			s.violate("%s: fork child close: %v", t.Name(), err)
		}
	}
}

// fault runs one fault; ErrNoMemory is graceful degradation under the
// tenant limit, anything else (other than Segv on a racing madvise) is
// a violation.
func (st *seat) fault(t *Tenant, cpu *vm.CPU, addr uint64, write bool) {
	err := cpu.Fault(addr, write)
	if err == nil || errors.Is(err, vm.ErrSegv) || errors.Is(err, vm.ErrAccess) {
		return
	}
	if errors.Is(err, vm.ErrNoMemory) {
		st.s.oomErrors.Add(1)
		return
	}
	st.s.violate("%s: fault: %v", t.Name(), err)
}
