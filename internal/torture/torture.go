// Package torture is the one randomized driver for the VM system, in
// the spirit of rcutorture: seeded workers draw operations from one
// table — anonymous and shared-file faults, reads and writes checked
// against a data oracle, MADV_DONTNEED, huge-page demotion and
// promotion, munmap/MAP_FIXED/mprotect churn and COW forks — against
// the tenants of one vm.Host per §5 design, optionally under a
// seeded fault-injection schedule (internal/fail), while auditing the
// invariants the designs claim to preserve:
//
//   - no physical frame leaks: a limited tenant's eviction audits its
//     account to zero; with a single unlimited seat the pool reads
//     empty after every eviction; every machine's Close runs the
//     allocator's leak check;
//   - frame-generation stability: a frame observed through a
//     present PTE inside an RCU read section stays allocated, same
//     generation, until the section exits;
//   - rmap ↔ PTE coherence, cache refcount accounting and the THP
//     identities, checked at each generation's quiesce audit;
//   - graceful degradation: memory exhaustion surfaces only as the
//     typed vm.ErrNoMemory (never a raw shortage, never a spin), I/O
//     injection only as pagecache.ErrIO, and the OOM killer of last
//     resort reaps ballast spaces instead of failing the world;
//   - data integrity: anonymous pages a worker wrote read back exactly
//     what the worker last successfully wrote, in the parent and in COW
//     fork children;
//   - tenant isolation: with every seat limited and a pool of twice the
//     limits, no page is evicted from a tenant under its limit.
//
// Each seat loops tenant generations: admit, map the fixtures, let the
// workers draw operations for a seeded lifetime, stop them, audit,
// evict. The fixtures are a shared file mapped by the root and a peer
// sibling, a private arena per worker, a 2 MB huge-page region sliced
// per worker, a 2048-page churn region every worker shares (munmap,
// MAP_FIXED remap and mprotect of 1–63-page chunks, faults that may find
// a hole, fork-then-fault), and two ballast siblings only the OOM killer
// may reap. The churn region straddles a 1 GiB span boundary of the
// region index, so churn edits VMAs that cross from one of the index's
// trees into the next. One error classifier accepts only ErrNoMemory,
// injected ErrIO, and ErrSegv/ErrAccess inside the churn region.
//
// The repository's two gates are two settings of one Config (cmd/torture
// flags). The torture gate (-seed 1 -duration 60s) runs one unlimited
// seat on a 1536-frame pool with every failpoint armed: the huge region
// faults, demotes and collapses while the pool is quiet, then the
// ballast, arenas and churn outgrow the pool, so reclaim, run shortage
// and the OOM killer all take turns. Report.Gaps fails it on any silent
// failpoint or any design with no OOM kill, huge fault, collapse, split,
// churn operation or fork. The soak gate (-designs purercu -faults=false
// -tenants 8 -limit 100 -workers 2) runs eight seats limited to 100
// frames on a pool of twice the sum of the limits; it fails on any
// cross-tenant eviction or leaked frame, and on a design whose tenants
// evicted nothing, since zero cross-tenant evictions proves nothing
// unless tenant-local reclaim ran. Its per-design fault count and
// p50/p99/p999 come from the departed tenants' vm.Rollup and equal the
// machine's (TestSoakSmoke).
//
// Every run is parameterized by one seed. The fault schedule's verdicts
// are deterministic in each site's hit index (see internal/fail), and a
// worker's operations are a function of its key — (seed, design, seat,
// generation, worker) — alone: each operation's kind and arguments are
// drawn before it runs, the same number of words whatever it does, so
// no outcome steers a later choice: two same-seed runs under fault
// injection record the same first 1,000 op kinds for every worker key
// both ran (TestOpsDependOnKeyAlone). Every run prints its replay
// command.
package torture

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/fail"
	"bonsai/internal/introspect"
	"bonsai/internal/pagecache"
	"bonsai/internal/physmem"
	"bonsai/internal/ranges"
	"bonsai/internal/stats"
	"bonsai/internal/trace"
	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// Config parameterizes one run.
type Config struct {
	// Seed fixes the fault schedule, the tenants' lifetimes and the
	// workers' operations.
	Seed uint64
	// Duration is the total run length, split evenly across Designs.
	Duration time.Duration
	// Designs lists the designs to run, one machine each. Nil means all
	// four.
	Designs []vm.Design
	// Faults arms the fault-injection schedule (see Report.Gaps for the
	// coverage a fault-injection run owes). Off, the run is a plain
	// stress test (and any ErrIO becomes a violation).
	Faults bool
	// Seats is the number of concurrent tenant seats. Zero means 1.
	Seats int
	// Limit is each seat's tenant frame limit; <= 0 admits unlimited
	// tenants, whose fixtures include the huge-page region and the
	// ballast the OOM killer reaps.
	Limit int64
	// Workers is the number of goroutines drawing operations per seat.
	// Zero means 4.
	Workers int
	// Frames sizes each machine's pool. Zero means 1536 per unlimited
	// seat — less than one seat's peak demand, so the reclaim →
	// retry-budget → OOM-kill ladder runs for real — and, for limited
	// seats, twice the sum of the limits plus 256: the only reclaim a
	// healthy run then drives is tenant-local, and any under-limit
	// eviction is cross-tenant interference.
	Frames uint64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// OnMachine, when non-nil, observes each design's machine right
	// after construction; the returned func (may be nil) runs after the
	// last tenant is evicted and before the machine closes. cmd/torture
	// attaches its introspection server and vmstat sampler here.
	OnMachine func(label string, h *vm.Host) func()
}

// Report is the outcome of a run.
type Report struct {
	Seed       uint64
	Designs    []DesignReport
	Violations []string
	Failpoints []fail.PointStats

	faults, limited bool
	// opLogs maps each worker key — design, seat, generation, worker —
	// to the kinds of the first logOps operations it drew.
	opLogs map[string][]opKind
}

// DesignReport is one design's machine, summed over its seats and
// their tenant generations.
type DesignReport struct {
	Design    vm.Design
	Tenants   uint64 // tenant generations admitted and evicted
	Ops       uint64 // worker operations completed
	Audits    uint64 // quiesce audits run
	OOMErrors uint64 // operations that surfaced vm.ErrNoMemory
	IOErrors  uint64 // operations that surfaced pagecache.ErrIO
	// Faults counts every fault the tenants took, fork children and
	// ballast included: the machine's own introspect.Read(h).Faults. Fault is
	// their sampled latency.
	Faults uint64
	Fault  stats.LatencyStats
	// CrossTenantEvictions counts pages evicted from tenants under
	// their limit.
	CrossTenantEvictions uint64
	// Limited seats' accounts, read before each eviction: charges
	// refused at the limit, page-cache pages evicted from the tenants
	// (their own reclaim's and any cross-tenant ones) and the largest
	// charge any tenant reached.
	LimitHits  uint64
	Evictions  uint64
	MaxCharged int64

	// Coverage: Report.Gaps names any of these the run's setting owes
	// and left at zero.
	OOMKills   uint64 // ballast spaces reaped by the killer of last resort
	HugeFaults uint64 // faults served by installing a 2 MB huge entry
	Collapses  uint64 // base-page chunks promoted to huge entries
	HugeSplits uint64 // huge entries demoted to base pages
	Mmaps      uint64 // MAP_FIXED remaps in the churn region
	Munmaps    uint64 // munmaps in the churn region
	Mprotects  uint64 // mprotects in the churn region
	Forks      uint64 // COW forks
}

// Failed reports whether the run found any violation.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Gaps lists what the run left unexercised that its setting owes. A
// fault-injection run owes every armed failpoint firing and, per
// design, churn mmaps, munmaps, mprotects and forks — plus, on
// unlimited seats, whose fixtures hold the huge region and the
// ballast, OOM kills, huge faults, collapses and splits. Limited seats
// owe page-cache evictions: without tenant-local reclaim running, zero
// cross-tenant evictions proves nothing. A run that never reached a
// path has not survived it, so cmd/torture fails a run with gaps the
// way it fails one with violations.
func (r *Report) Gaps() []string {
	var gaps []string
	for _, p := range r.Failpoints {
		if p.Armed && p.Fires == 0 {
			gaps = append(gaps, fmt.Sprintf("failpoint %s never fired (%d hits)", p.Name, p.Hits))
		}
	}
	for _, d := range r.Designs {
		owed := map[string]uint64{}
		if r.faults {
			owed = map[string]uint64{"mmaps": d.Mmaps, "munmaps": d.Munmaps, "mprotects": d.Mprotects, "forks": d.Forks}
			if !r.limited {
				owed["oom-kills"], owed["huge-faults"] = d.OOMKills, d.HugeFaults
				owed["collapses"], owed["splits"] = d.Collapses, d.HugeSplits
			}
		}
		if r.limited {
			owed["evictions"] = d.Evictions
		}
		for name, n := range owed {
			if n == 0 {
				gaps = append(gaps, fmt.Sprintf("%s: no %s", d.Design, name))
			}
		}
	}
	sort.Strings(gaps)
	return gaps
}

// maxViolations bounds the violation log; one broken invariant tends
// to cascade, and the first few reports are the diagnostic ones.
const maxViolations = 20

// schedule is the fault plan Run arms (with Config.Seed) before
// touching any machine. Rates are tuned so every point fires many
// times in a ~10s run without drowning forward progress.
var schedule = []struct {
	point string
	cfg   fail.Config
}{
	{"physmem.alloc", fail.Config{OneIn: 1000}},
	{"physmem.drain", fail.Config{OneIn: 32}},
	{"rcu.gp-delay", fail.Config{OneIn: 8, Delay: 200 * time.Microsecond}},
	{"tlb.flush-delay", fail.Config{OneIn: 32, Delay: 100 * time.Microsecond}},
	{"pagecache.fill", fail.Config{OneIn: 500}},
	{"pagecache.wb-retryable", fail.Config{OneIn: 4}},
	{"pagecache.wb-sticky", fail.Config{OneIn: 9}},
	{"reclaim.stall", fail.Config{OneIn: 5}},
	{"physmem.run-alloc", fail.Config{OneIn: 6}},
}

// geometry sizes a seat's fixtures, in pages.
type geometry struct {
	file    uint64 // shared file, mapped by the tenant's root and its peer
	arena   uint64 // private anonymous arena, one per worker
	churn   uint64 // anonymous region every worker faults, munmaps, remaps and mprotects
	thp     uint64 // huge-page region: one aligned 2 MB chunk sliced per worker, or none
	ballast uint64 // each of two ballast siblings: the OOM killer's sacrifice, or none
	churnLo uint64 // the churn region's address: half of it below churnMid
}

// geometryFor sizes an unlimited seat against its 1536-frame share of
// the pool: the huge region, the ballast, the arenas and the churn
// region together outgrow it, so reclaim, run shortage and the OOM
// killer all take turns. A limited seat keeps its anonymous fixtures to
// a fraction of the limit and thrashes a file twice the limit, so
// tenant-local reclaim runs all the time (Report.Gaps fails a limited
// run whose tenants evicted nothing) and the tenant rarely needs the
// OOM rung.
func geometryFor(limit int64) geometry {
	geo := geometry{file: 64, arena: 128, churn: 2048, thp: 512, ballast: 320}
	if limit > 0 {
		l := uint64(limit)
		geo = geometry{file: 2 * l, arena: max(l/16, 1), churn: max(l/4, 4)}
	}
	geo.churnLo = churnMid - geo.churn/2*vm.PageSize
	return geo
}

// Fixed fixture addresses, a gigabyte above the dynamic-mapping floor so
// the findGap-placed arenas and file mappings never collide with them.
// The huge region starts a span of the region index. The churn region
// straddles the span boundary churnMid, half on each side (4 MB when
// unlimited, so 2 MB-aligned), sixteen spans above the huge region's:
// each churn span shares an index tree with a lower fixture's span.
const (
	thpLo    = vm.UnmappedBase + (uint64(1) << 30)
	churnMid = thpLo + ranges.StripeCount<<ranges.StripeShift
)

// Fixture constants.
const (
	stampLen   = 16   // bytes written/verified at an oracle page's start
	forkChecks = 4    // arena pages a fork child verifies
	logOps     = 1000 // op kinds each worker files in the report
)

// Run executes the configuration and returns its report.
func Run(cfg Config) *Report {
	if cfg.Seats <= 0 {
		cfg.Seats = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Frames == 0 {
		if cfg.Limit <= 0 {
			cfg.Frames = 1536 * uint64(cfg.Seats)
		} else {
			cfg.Frames = 2*uint64(cfg.Seats)*uint64(cfg.Limit) + 256
		}
	}
	if len(cfg.Designs) == 0 {
		cfg.Designs = vm.Designs
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	t := &run{cfg: cfg, geo: geometryFor(cfg.Limit), report: &Report{
		Seed: cfg.Seed, faults: cfg.Faults, limited: cfg.Limit > 0, opLogs: map[string][]opKind{},
	}}
	if cfg.Faults {
		for _, s := range schedule {
			if err := fail.Enable(cfg.Seed, s.point, s.cfg); err != nil {
				panic(err) // unknown point: a wiring bug, not a run outcome
			}
		}
		defer fail.DisableAll()
	}
	perDesign := cfg.Duration / time.Duration(len(cfg.Designs))
	for _, d := range cfg.Designs {
		t.logf("torture: design %q for %v (seed %d, faults %v, %d seats, limit %d)",
			d, perDesign, cfg.Seed, cfg.Faults, cfg.Seats, cfg.Limit)
		t.design(d, time.Now().Add(perDesign))
		if t.full() {
			break
		}
	}
	t.report.Failpoints = fail.Snapshot()
	return t.report
}

// run is the state one Run's goroutines share.
type run struct {
	cfg Config
	geo geometry

	mu     sync.Mutex // guards report
	report *Report
}

func (t *run) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

func (t *run) violate(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.report.Violations) < maxViolations {
		t.report.Violations = append(t.report.Violations, fmt.Sprintf(format, args...))
		// Land a marker in the flight recorder so a post-mortem trace
		// dump shows what the machine was doing when the invariant broke.
		trace.Emit(trace.AuxCPU, trace.EvViolation, uint64(len(t.report.Violations)), 0, 0)
	}
}

func (t *run) full() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.report.Violations) >= maxViolations
}

// designRun is one design's machine and what its seats fold into.
type designRun struct {
	t *run
	h *vm.Host

	// ballast maps every live ballast space, across seats, to true; the
	// machine's OOM killer reaps only these.
	ballastMu sync.Mutex
	ballast   map[*vm.AddressSpace]bool

	mu  sync.Mutex // guards rep
	rep DesignReport
}

// design runs every seat on a fresh machine until the deadline, then
// checks the machine ends empty and fair and closes it.
func (t *run) design(d vm.Design, deadline time.Time) {
	cfg := t.cfg
	h := vm.NewHost(vm.Config{
		Design:  d,
		CPUs:    cfg.Workers,
		Frames:  cfg.Frames,
		Backing: true,
		// Root, peer, two ballast siblings and one fork child per
		// worker, with headroom for a straggling Close.
		MaxFamily: cfg.Workers + 6,
	}, cfg.Seats)
	dr := &designRun{t: t, h: h, ballast: make(map[*vm.AddressSpace]bool), rep: DesignReport{Design: d}}
	h.SetOOMKiller(dr.kill)
	onDone := func() {}
	if cfg.OnMachine != nil {
		if f := cfg.OnMachine(d.String(), h); f != nil {
			onDone = f
		}
	}

	var wg sync.WaitGroup
	for s := 0; s < cfg.Seats; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			dr.seat(s, deadline)
		}(s)
	}
	wg.Wait()

	// Every seat evicted its last tenant: whatever is still allocated is
	// a leak, since no frame outlives the tenant that charged it.
	sn := introspect.Read(h)
	dr.rep.Faults, dr.rep.Fault = sn.Faults, sn.Latency.Fault
	dr.rep.HugeFaults, dr.rep.Collapses, dr.rep.HugeSplits = sn.THPHugeFaults, sn.THPCollapses, sn.THPSplits
	dr.rep.CrossTenantEvictions = sn.CrossTenantEvictions
	dr.rep.OOMKills = sn.OOMKills
	if sn.FramesInUse != 0 {
		t.violate("%s: leak: %d frames still allocated after every tenant was evicted", d, sn.FramesInUse)
	}
	if cfg.Limit > 0 && cfg.Frames >= 2*uint64(cfg.Seats)*uint64(cfg.Limit) && sn.CrossTenantEvictions != 0 {
		t.violate("%s: fairness: %d under-limit (cross-tenant) evictions, want 0", d, sn.CrossTenantEvictions)
	}
	onDone()
	if err := h.Close(); err != nil {
		t.violate("%s: machine leaked at close: %v", d, err)
	}
	t.mu.Lock()
	t.report.Designs = append(t.report.Designs, dr.rep)
	t.mu.Unlock()
}

// kill is the machine's killer of last resort. Only ballast — the one
// population whose idleness the driver can vouch for (Close requires no
// operation in flight on the victim) — is reaped: the suggested victim
// when it is ballast, otherwise a ballast sibling in its tenant, since
// only a kill inside the offending tenant lowers a limited tenant's
// charge. With none left the kill is declined and the operation
// surfaces ErrNoMemory. The lock is held across the Close so a seat's
// eviction, which takes it to withdraw its ballast, never closes a
// space a kill is still closing.
func (dr *designRun) kill(victim *vm.AddressSpace) bool {
	dr.ballastMu.Lock()
	defer dr.ballastMu.Unlock()
	target := victim
	if !dr.ballast[target] {
		target = nil
		for _, m := range victim.Members() {
			if dr.ballast[m] {
				target = m
				break
			}
		}
	}
	if target == nil {
		return false
	}
	delete(dr.ballast, target)
	if err := target.Close(); err != nil {
		dr.t.violate("reaped ballast leaked: %v", err)
	}
	return true
}

// seat admits, churns and evicts tenant generations back to back until
// the deadline. Lifetimes come from the seat's own seeded stream.
func (dr *designRun) seat(s int, deadline time.Time) {
	t := dr.t
	next := splitmix(t.cfg.Seed ^ hash(fmt.Sprintf("%s/seat%d", dr.rep.Design, s)))
	for gen := 0; !t.full(); gen++ {
		lifetime := 100*time.Millisecond + time.Duration(next()%uint64(300*time.Millisecond))
		if rest := time.Until(deadline); lifetime > rest {
			lifetime = rest
		}
		if lifetime <= 0 {
			return
		}
		dr.generation(fmt.Sprintf("seat%d-gen%d", s, gen), lifetime)
	}
}

// generation is one tenant's life in a seat.
type generation struct {
	dr     *designRun
	key    string             // design/tenant: the prefix of its workers' keys
	root   *vm.AddressSpace   // the tenant's root, its handle
	spaces []*vm.AddressSpace // root, then its peer: both map the file
	file   *vma.File
	fileLo []uint64 // the file's base in each of spaces
	arenas []uint64 // one per worker, in the root
	// ballast lists the tenant's ballast siblings, reaped or not.
	ballast []*vm.AddressSpace
	// setup counts the fixtures' errors.
	setup counts
}

// generation admits a tenant, maps its fixtures, runs the workers for
// lifetime, audits the quiesced tenant and evicts it.
func (dr *designRun) generation(name string, lifetime time.Duration) {
	t := dr.t
	key := dr.rep.Design.String() + "/" + name
	// Failpoints can fail admission (the page-table root's allocation);
	// a fresh tenant has nothing to reclaim, so just retry — persistent
	// failure here means the budget logic is broken.
	var root *vm.AddressSpace
	var err error
	for i := 0; i < 50; i++ {
		if root, err = dr.h.Admit(name, t.cfg.Limit); err == nil {
			break
		}
	}
	if err != nil {
		t.violate("%s: admit failed 50 times: %v", key, err)
		return
	}
	g := &generation{dr: dr, key: key, root: root}
	var w []*worker
	if g.populate() {
		w = g.churn(lifetime)
		g.audit()
	}
	g.evict(w)
	t.logf("%s: done (%v lifetime)", key, lifetime)
}

// populate maps the generation's fixtures: the shared file in the root
// and in a peer sibling, the huge-page and churn regions at their fixed
// addresses, a private arena per worker, and the ballast siblings with
// their sacrificial resident pages.
func (g *generation) populate() bool {
	t, geo := g.dr.t, g.dr.t.geo
	rw := vma.ProtRead | vma.ProtWrite
	peer, err := g.root.NewSibling()
	if err != nil {
		t.classify(&g.setup, g.key, "peer sibling", err, false)
		return false
	}
	g.spaces = []*vm.AddressSpace{g.root, peer}
	g.file = vma.NewFile(g.root.TenantName(), t.cfg.Seed)
	for _, as := range g.spaces {
		lo, err := as.Mmap(0, geo.file*vm.PageSize, rw, vma.Shared, g.file, 0)
		if err != nil {
			t.classify(&g.setup, g.key, "map shared file", err, false)
			return false
		}
		g.fileLo = append(g.fileLo, lo)
	}
	if geo.thp > 0 {
		if _, err := g.root.Mmap(thpLo, geo.thp*vm.PageSize, rw, vma.Private|vma.Fixed, nil, 0); err != nil {
			t.classify(&g.setup, g.key, "map thp region", err, false)
			return false
		}
		g.hugeCycle()
	}
	if _, err := g.root.Mmap(geo.churnLo, geo.churn*vm.PageSize, rw, vma.Private|vma.Fixed, nil, 0); err != nil {
		t.classify(&g.setup, g.key, "map churn region", err, false)
		return false
	}
	for w := 0; w < t.cfg.Workers; w++ {
		base, err := g.root.Mmap(0, geo.arena*vm.PageSize, rw, vma.Private, nil, 0)
		if err != nil {
			t.classify(&g.setup, g.key, "map arena", err, false)
			return false
		}
		g.arenas = append(g.arenas, base)
	}
	for i := 0; i < 2 && geo.ballast > 0; i++ {
		b, err := g.root.NewSibling()
		if err != nil {
			t.classify(&g.setup, g.key, "ballast sibling", err, false)
			continue
		}
		base, err := b.Mmap(0, geo.ballast*vm.PageSize, rw, vma.Private, nil, 0)
		if err == nil {
			cpu := b.NewCPU(0)
			for p := uint64(0); p < geo.ballast && err == nil; p++ {
				err = cpu.Fault(base+p*vm.PageSize, true)
			}
		}
		t.classify(&g.setup, g.key, "ballast", err, false)
		g.ballast = append(g.ballast, b)
		g.dr.ballastMu.Lock()
		g.dr.ballast[b] = true
		g.dr.ballastMu.Unlock()
	}
	return true
}

// hugeCycle takes the huge region once through its whole life while
// nothing else has allocated (on a pool this small, once the workers
// run, their pages leave no second 2 MB run free for long): a first
// touch takes the 2 MB fault path, a one-page discard demotes the entry
// in place, and refilling the hole and asking for promotion collapses
// it back. Injected run shortages may refuse either promotion.
func (g *generation) hugeCycle() {
	cpu := g.root.NewCPU(0)
	err := cpu.Fault(thpLo, true)
	if err == nil {
		err = g.root.MadviseDontNeed(thpLo, vm.PageSize)
	}
	for p := uint64(0); p < g.dr.t.geo.thp && err == nil; p++ {
		if _, ok := g.root.Translate(thpLo + p*vm.PageSize); !ok {
			err = cpu.Fault(thpLo+p*vm.PageSize, true)
		}
	}
	if err == nil {
		g.root.CollapseRange(thpLo, thpLo+g.dr.t.geo.thp*vm.PageSize)
	}
	g.dr.t.classify(&g.setup, g.key, "huge cycle", err, false)
}

// churn runs the workers for lifetime and returns them stopped.
func (g *generation) churn(lifetime time.Duration) []*worker {
	cfg := g.dr.t.cfg
	var stop atomic.Bool
	var wg sync.WaitGroup
	ws := make([]*worker, cfg.Workers)
	slicePages := g.dr.t.geo.thp / uint64(cfg.Workers)
	for i := range ws {
		w := &worker{
			g:           g,
			id:          i,
			arena:       g.arenas[i],
			arenaStamps: make(map[uint64]byte),
			slice:       thpLo + uint64(i)*slicePages*vm.PageSize,
			slicePages:  slicePages,
			sliceStamps: make(map[uint64]byte),
		}
		for _, as := range g.spaces {
			w.cpus = append(w.cpus, as.NewCPU(i))
		}
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(&stop)
		}()
	}
	time.Sleep(lifetime)
	stop.Store(true)
	wg.Wait()
	return ws
}

// audit runs the consistency audits on the quiesced tenant — its
// workers stopped, the eviction scans held off and the RCU domain
// drained — and fsyncs its file through the writeback path's error
// reporting.
func (g *generation) audit() {
	t := g.dr.t
	g.root.QuiesceReclaim(func() {
		for _, as := range g.spaces {
			if err := as.AuditPageCaches(); err != nil {
				t.violate("%s: audit(page caches): %v", g.key, err)
			}
		}
		if err := g.root.AuditTHP(); err != nil {
			t.violate("%s: audit(thp): %v", g.key, err)
		}
	})
	if c := g.file.PageCache(); c != nil {
		// Errors here are the writeback taxonomy doing its job
		// (retryable now, or a latched sticky drop reported exactly
		// once) — expected under injection, a bug without it.
		_, err := c.Writeback(nil)
		if err != nil && !errors.Is(err, pagecache.ErrIO) {
			t.violate("%s: writeback: non-I/O error: %v", g.key, err)
		}
		if err != nil && !t.cfg.Faults {
			t.violate("%s: writeback error with fault injection off: %v", g.key, err)
		}
	}
	g.dr.mu.Lock()
	g.dr.rep.Audits++
	g.dr.mu.Unlock()
}

// evict withdraws the tenant's ballast from the killer, evicts it —
// every member closes and the leak audit runs, and the tenant's final
// rollup joins the machine's departed one — and folds the tenant's
// counts into the design's. The account is read first, so the
// teardown's own evictions stay out of the report.
func (g *generation) evict(ws []*worker) {
	dr, t := g.dr, g.dr.t
	dr.ballastMu.Lock()
	for _, b := range g.ballast {
		delete(dr.ballast, b)
	}
	dr.ballastMu.Unlock()
	var acct physmem.AccountStats
	if ac := g.root.Account(); ac != nil {
		acct = ac.Stats()
	}
	err := dr.h.Evict(g.root)
	if err != nil {
		t.violate("%s: evict: %v", g.key, err)
	}
	dr.fold(&g.setup)
	for _, w := range ws {
		dr.fold(&w.counts)
	}
	dr.mu.Lock()
	dr.rep.Tenants++
	dr.rep.LimitHits += acct.LimitHits
	dr.rep.Evictions += acct.Evictions
	dr.rep.MaxCharged = max(dr.rep.MaxCharged, acct.MaxCharged)
	dr.mu.Unlock()
	// With one unlimited seat the tenant was the machine's only user:
	// the pool must be empty again and, its magazines drained, coalesce
	// back into whole blocks — which also hands the next generation a
	// pool whose 2 MB runs are free.
	if t.cfg.Seats == 1 && t.cfg.Limit <= 0 {
		al := dr.h.Allocator()
		al.DrainMagazines()
		if n := al.InUse(); n != 0 {
			t.violate("%s: leak: %d frames in use after the only tenant's eviction", g.key, n)
		} else if err := al.AuditBuddy(); err != nil {
			t.violate("%s: buddy allocator after the only tenant's eviction: %v", g.key, err)
		}
	}
}

// fold adds a stopped worker's (or a generation's setup) counts to the
// design's.
func (dr *designRun) fold(c *counts) {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	dr.rep.Ops += c.ops
	dr.rep.OOMErrors += c.oomErrors
	dr.rep.IOErrors += c.ioErrors
	dr.rep.Mmaps += c.ok[opChurnRemap]
	dr.rep.Munmaps += c.ok[opChurnUnmap]
	dr.rep.Mprotects += c.ok[opChurnProtect]
	dr.rep.Forks += c.ok[opFork]
}
