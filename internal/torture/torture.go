// Package torture is the rcutorture-style stress driver for the VM
// system: it churns all four §5 address-space designs — faults, COW
// forks, shared-file I/O, MADV_DONTNEED, siblings — under a randomized
// fault-injection schedule (internal/fail) while continuously auditing
// the invariants the designs claim to preserve:
//
//   - no physical frame leaks: every epoch tears its machine down to
//     zero and the last Close's allocator leak check must pass;
//   - frame-generation stability (PR 5): a frame observed through a
//     present PTE inside an RCU read section stays allocated, same
//     generation, until the section exits;
//   - rmap ↔ PTE coherence and cache refcount accounting, both
//     directions, checked machine-wide at quiesce points;
//   - graceful degradation: memory exhaustion surfaces only as the
//     typed vm.ErrNoMemory (never a raw shortage, never a spin), I/O
//     injection only as pagecache.ErrIO, and the OOM killer of last
//     resort reaps ballast spaces instead of failing the world;
//   - data integrity: anonymous pages a worker wrote read back exactly
//     what the worker last successfully wrote, in the parent and in
//     COW fork children.
//
// Every run is parameterized by a single seed that fixes the fault
// schedule (per-site verdict sequences are deterministic in the hit
// index; see internal/fail), so a violation's banner seed replays the
// same injection decisions.
package torture

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/fail"
	"bonsai/internal/pagecache"
	"bonsai/internal/trace"
	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// Config parameterizes one torture run.
type Config struct {
	// Seed fixes the fault schedule and the workers' operation mix.
	Seed uint64
	// Duration is the total run length, split evenly across Designs.
	Duration time.Duration
	// Designs lists the designs to torture. Nil means all four.
	Designs []vm.Design
	// Faults enables the fault-injection schedule. Off, the run is a
	// plain stress test (and any ErrIO becomes a violation).
	Faults bool
	// Workers is the number of churn goroutines per machine. Zero
	// means 4.
	Workers int
	// Frames sizes each epoch's machine. Zero means 1536 — deliberately
	// smaller than the epoch's peak demand (worker arenas + the huge-page
	// region + ballast + file pages + a collapse's transient run), so the
	// reclaim → retry-budget → OOM-kill ladder runs for real: ballast
	// spaces get reaped, and operations that lose even then surface
	// ErrNoMemory and carry on.
	Frames uint64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// OnMachine, when non-nil, observes each epoch's primary space
	// right after construction; the returned func (may be nil) runs
	// before the epoch tears down. cmd/torture uses it to register the
	// epoch with the -http introspection server's space set.
	OnMachine func(label string, as *vm.AddressSpace) func()
}

// Report is the outcome of a run.
type Report struct {
	Seed       uint64
	Epochs     uint64 // machines built and torn down
	Ops        uint64 // worker operations completed
	OOMErrors  uint64 // operations that surfaced vm.ErrNoMemory
	IOErrors   uint64 // operations that surfaced pagecache.ErrIO
	OOMKills   uint64 // ballast spaces reaped by the killer of last resort
	Audits     uint64 // machine-wide quiesce audits run
	HugeFaults uint64 // faults served by installing a 2 MB huge entry
	Collapses  uint64 // base-page chunks promoted to huge entries
	HugeSplits uint64 // huge entries demoted to base pages
	Violations []string
	Failpoints []fail.PointStats
}

// Failed reports whether the run found any invariant violation.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

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

// Geometry of one epoch's machine.
const (
	arenaPages   = 128 // per-worker private anonymous arena
	filePages    = 64  // shared file mapping, all workers
	ballastPages = 160 // per ballast space: the OOM killer's sacrifice
	thpPages     = 512 // huge-page region: one aligned 2 MB chunk, sliced per worker
	stampLen     = 16  // bytes written/verified at each arena page start
)

// thpLo is the huge-page region's fixed base: 2 MB-aligned, placed a
// gigabyte above the dynamic-mapping floor so findGap-assigned arenas
// and file regions never collide with it.
const thpLo = vm.UnmappedBase + (uint64(1) << 30)

// Run executes the torture configuration and returns its report.
func Run(cfg Config) *Report {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Frames == 0 {
		cfg.Frames = 1536
	}
	if len(cfg.Designs) == 0 {
		cfg.Designs = vm.Designs
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	t := &run{cfg: cfg, report: &Report{Seed: cfg.Seed}}
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
		t.logf("torture: design %q for %v (seed %d, faults %v)", d, perDesign, cfg.Seed, cfg.Faults)
		deadline := time.Now().Add(perDesign)
		for epoch := 0; time.Now().Before(deadline); epoch++ {
			t.epoch(d, epoch, deadline)
			if t.full() {
				break
			}
		}
		if t.full() {
			break
		}
	}
	if t.report.Failpoints == nil {
		t.report.Failpoints = fail.Snapshot()
	}
	return t.report
}

// run is the mutable state shared by one Run's goroutines.
type run struct {
	cfg    Config
	report *Report

	mu sync.Mutex // guards report.Violations

	ops       atomic.Uint64
	oomErrors atomic.Uint64
	ioErrors  atomic.Uint64
	audits    atomic.Uint64
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

// classify buckets an operation error: out-of-memory and (under fault
// injection) I/O errors are expected torture weather; anything else —
// including a raw ErrFrameShortage escaping the retry machinery — is a
// violation.
func (t *run) classify(where string, err error) {
	switch {
	case err == nil:
	case errors.Is(err, vm.ErrNoMemory):
		t.oomErrors.Add(1)
	case errors.Is(err, pagecache.ErrIO):
		t.ioErrors.Add(1)
		if !t.cfg.Faults {
			t.violate("%s: I/O error with fault injection off: %v", where, err)
		}
	default:
		t.violate("%s: unexpected error: %v", where, err)
	}
}

// machine is one epoch's world: the primary tenant space plus ballast
// siblings the OOM killer may reap.
type machine struct {
	t      *run
	as     *vm.AddressSpace
	file   *vma.File
	fileLo uint64
	arenas []uint64 // per-worker arena base addresses
	world  sync.RWMutex

	ballastMu sync.Mutex
	ballast   map[*vm.AddressSpace]bool // reapable ballast; false once reaped
}

// epoch builds a machine, churns it with workers and periodic quiesce
// audits until the deadline (capped per epoch so teardown leak checks
// run many times), and tears it down to zero.
func (t *run) epoch(design vm.Design, epoch int, deadline time.Time) {
	where := fmt.Sprintf("%s/epoch%d", design, epoch)
	vmCfg := vm.Config{
		Design:  design,
		CPUs:    t.cfg.Workers,
		Frames:  t.cfg.Frames,
		Backing: true,
		// Primary + two ballast siblings + one fork child per worker,
		// with headroom for a straggling Close.
		MaxFamily: 3 + t.cfg.Workers + 2,
		// The wall-clock-driven collapse scanner would make runs
		// unreplayable (torture's whole premise is that a seed replays
		// the same schedule) and would mutate translations during the
		// quiesced THP audit. Workers drive promotion synchronously
		// through CollapseRange in the op mix instead.
		THPScanInterval: -1,
	}
	m := &machine{t: t, ballast: make(map[*vm.AddressSpace]bool)}
	// Failpoints can fail machine construction (the page-table root's
	// allocation); a fresh machine has nothing to reclaim, so just
	// retry — persistent failure here means the budget logic is broken.
	var err error
	for i := 0; i < 50; i++ {
		if m.as, err = vm.New(vmCfg); err == nil {
			break
		}
	}
	if err != nil {
		t.violate("%s: vm.New failed 50 times: %v", where, err)
		return
	}
	t.report.Epochs++
	onDone := func() {}
	if t.cfg.OnMachine != nil {
		if f := t.cfg.OnMachine(where, m.as); f != nil {
			onDone = f
		}
	}

	// The killer of last resort: reap a ballast space — the one
	// population whose idleness the harness can vouch for (Close
	// requires no operation in flight on the victim). The suggested
	// victim is honored when it is ballast; otherwise any remaining
	// ballast space is sacrificed, and with none left the kill is
	// declined and the caller's operation surfaces ErrNoMemory.
	m.as.SetOOMKiller(func(victim *vm.AddressSpace) bool {
		m.ballastMu.Lock()
		target := victim
		if live, ok := m.ballast[target]; !ok || !live {
			target = nil
			for b, live := range m.ballast {
				if live {
					target = b
					break
				}
			}
		}
		if target == nil {
			m.ballastMu.Unlock()
			return false
		}
		m.ballast[target] = false
		m.ballastMu.Unlock()
		if err := target.Close(); err != nil {
			t.violate("%s: reaped ballast leaked: %v", where, err)
		}
		return true
	})

	if !m.populate(where) {
		onDone()
		m.teardown(where)
		return
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < t.cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m.worker(where, w, stop)
		}(w)
	}

	epochEnd := time.Now().Add(1500 * time.Millisecond)
	if epochEnd.After(deadline) {
		epochEnd = deadline
	}
	tick := time.NewTicker(300 * time.Millisecond)
	for time.Now().Before(epochEnd) && !t.full() {
		<-tick.C
		m.quiesceAudit(where)
	}
	tick.Stop()
	close(stop)
	wg.Wait()
	onDone()
	m.teardown(where)
}

// populate maps the epoch's fixtures: one shared file region, one
// private anonymous arena per worker, and the ballast siblings with
// their sacrificial resident pages.
func (m *machine) populate(where string) bool {
	t := m.t
	m.file = vma.NewFile(where, m.t.cfg.Seed)
	lo, err := m.as.Mmap(0, filePages*vm.PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, m.file, 0)
	if err != nil {
		t.classify(where+": map shared file", err)
		return false
	}
	m.fileLo = lo
	// The huge-page region: one aligned chunk all workers share, each
	// owning a disjoint slice. Its first touch exercises the 2 MB fault
	// path; DONTNEED punches split it; repair-and-collapse promotes it
	// back.
	if _, err := m.as.Mmap(thpLo, thpPages*vm.PageSize, vma.ProtRead|vma.ProtWrite, vma.Private|vma.Fixed, nil, 0); err != nil {
		t.classify(where+": map thp region", err)
		return false
	}
	for w := 0; w < t.cfg.Workers; w++ {
		base, err := m.as.Mmap(0, arenaPages*vm.PageSize, vma.ProtRead|vma.ProtWrite, vma.Private, nil, 0)
		if err != nil {
			t.classify(where+": map arena", err)
			return false
		}
		m.arenas = append(m.arenas, base)
	}
	for i := 0; i < 2; i++ {
		b, err := m.as.NewSibling()
		if err != nil {
			t.classify(where+": ballast sibling", err)
			continue
		}
		base, err := b.Mmap(0, ballastPages*vm.PageSize, vma.ProtRead|vma.ProtWrite, vma.Private, nil, 0)
		if err == nil {
			cpu := b.NewCPU(0)
			for p := uint64(0); p < ballastPages; p++ {
				if ferr := cpu.Fault(base+p*vm.PageSize, true); ferr != nil {
					t.classify(where+": ballast fault", ferr)
					break
				}
			}
		} else {
			t.classify(where+": ballast mmap", err)
		}
		m.ballastMu.Lock()
		m.ballast[b] = true
		m.ballastMu.Unlock()
	}
	return true
}

// worker is one churn goroutine: a private arena it writes and
// verifies, the shared file region it faults and dirties, periodic
// translation audits, and COW forks whose children must snapshot the
// arena exactly.
func (m *machine) worker(where string, w int, stop chan struct{}) {
	t := m.t
	cpu := m.as.NewCPU(w)
	arena := m.arenas[w]
	rng := splitmix(t.cfg.Seed ^ uint64(w)<<32 ^ hash(where))
	// expected[i] is the stamp byte page i of the arena must read back;
	// absent means unknown (never written, or discarded by DONTNEED).
	expected := make(map[uint64]byte)
	// This worker's slice of the shared huge-page chunk, with its own
	// oracle: writes stay in-slice, so collapses and splits driven by
	// any worker must preserve every slice's contents.
	slicePages := uint64(thpPages / t.cfg.Workers)
	sliceBase := thpLo + uint64(w)*slicePages*vm.PageSize
	thpExpected := make(map[uint64]byte)
	buf := make([]byte, stampLen)

	for iter := 0; ; iter++ {
		select {
		case <-stop:
			return
		default:
		}
		// Hold the world read-side for one iteration: the quiesce
		// auditor's write lock marks a full stop between iterations.
		m.world.RLock()
		switch op := rng() % 20; {
		case op < 5: // arena write
			page := rng() % arenaPages
			b := byte(rng())
			for i := range buf {
				buf[i] = b
			}
			err := cpu.WriteBytes(arena+page*vm.PageSize, buf)
			if err == nil {
				expected[page] = b
			}
			t.classify(where+": arena write", err)
		case op < 9: // arena verify
			page := rng() % arenaPages
			want, known := expected[page]
			err := cpu.ReadBytes(arena+page*vm.PageSize, buf)
			t.classify(where+": arena read", err)
			if err == nil && known {
				for i, got := range buf {
					if got != want {
						t.violate("%s: arena page %d byte %d: got %#x, want %#x", where, page, i, got, want)
						break
					}
				}
			}
		case op < 10: // arena discard
			page := rng() % arenaPages
			if err := m.as.MadviseDontNeed(arena+page*vm.PageSize, vm.PageSize); err == nil {
				delete(expected, page)
			} else {
				t.classify(where+": arena dontneed", err)
			}
		case op < 13: // shared-file fault/store/load (no content oracle:
			// sticky writeback injection may legitimately drop file data)
			page := rng() % filePages
			addr := m.fileLo + page*vm.PageSize
			switch rng() % 3 {
			case 0:
				t.classify(where+": file fault", cpu.Fault(addr, false))
			case 1:
				t.classify(where+": file write", cpu.WriteBytes(addr, buf[:4]))
			default:
				t.classify(where+": file read", cpu.ReadBytes(addr, buf[:4]))
			}
		case op < 14: // shared-file discard
			page := rng() % filePages
			t.classify(where+": file dontneed", m.as.MadviseDontNeed(m.fileLo+page*vm.PageSize, vm.PageSize))
		case op < 15: // translation-stability audit on a hot address
			addr := arena + (rng()%arenaPages)*vm.PageSize
			switch rng() % 3 {
			case 0:
				addr = m.fileLo + (rng()%filePages)*vm.PageSize
			case 1:
				// Huge-region addresses audit the same invariant through
				// a 2 MB entry's synthesized translation.
				addr = thpLo + (rng()%thpPages)*vm.PageSize
			}
			if err := cpu.AuditTranslation(addr); err != nil {
				t.violate("%s: %v", where, err)
			}
		case op < 16 && slicePages > 0: // THP slice write
			page := rng() % slicePages
			b := byte(rng())
			for i := range buf {
				buf[i] = b
			}
			err := cpu.WriteBytes(sliceBase+page*vm.PageSize, buf)
			if err == nil {
				thpExpected[page] = b
			}
			t.classify(where+": thp write", err)
		case op < 17 && slicePages > 0: // THP slice verify
			page := rng() % slicePages
			want, known := thpExpected[page]
			err := cpu.ReadBytes(sliceBase+page*vm.PageSize, buf)
			t.classify(where+": thp read", err)
			if err == nil && known {
				for i, got := range buf {
					if got != want {
						t.violate("%s: thp page %d byte %d: got %#x, want %#x", where, page, i, got, want)
						break
					}
				}
			}
		case op < 18 && slicePages > 0: // THP slice discard: a one-page
			// DONTNEED inside a huge chunk demotes the entry in place.
			page := rng() % slicePages
			if err := m.as.MadviseDontNeed(sliceBase+page*vm.PageSize, vm.PageSize); err == nil {
				delete(thpExpected, page)
			} else {
				t.classify(where+": thp dontneed", err)
			}
		case op < 19 && slicePages > 0: // THP repair-and-collapse: refill
			// this worker's slice, then ask for promotion — which only
			// succeeds when every slice happens to be whole, the
			// MADV_COLLAPSE race the survey's double-check absorbs.
			for page := uint64(0); page < slicePages; page++ {
				addr := sliceBase + page*vm.PageSize
				if _, ok := m.as.Translate(addr); ok {
					continue
				}
				b := byte(rng())
				for i := range buf {
					buf[i] = b
				}
				err := cpu.WriteBytes(addr, buf)
				if err == nil {
					thpExpected[page] = b
				}
				t.classify(where+": thp repair", err)
				if err != nil {
					break
				}
			}
			m.as.CollapseRange(thpLo, thpLo+thpPages*vm.PageSize)
		default: // COW fork: child must see the arena snapshot
			m.fork(where, w, cpu, arena, expected)
		}
		t.ops.Add(1)
		m.world.RUnlock()
	}
}

// fork forks the primary space and verifies, from inside the child,
// that the worker's arena reads back its expected stamps — the COW
// snapshot guarantee — then closes the child (its Close must not leak).
func (m *machine) fork(where string, w int, _ *vm.CPU, arena uint64, expected map[uint64]byte) {
	t := m.t
	child, err := m.as.Fork()
	if err != nil {
		t.classify(where+": fork", err)
		return
	}
	ccpu := child.NewCPU(w)
	buf := make([]byte, stampLen)
	checked := 0
	for page, want := range expected {
		err := ccpu.ReadBytes(arena+page*vm.PageSize, buf)
		t.classify(where+": fork child read", err)
		if err == nil {
			for i, got := range buf {
				if got != want {
					t.violate("%s: fork child arena page %d byte %d: got %#x, want %#x", where, page, i, got, want)
					break
				}
			}
		}
		if checked++; checked >= 4 {
			break
		}
	}
	if err := child.Close(); err != nil {
		t.violate("%s: fork child leaked: %v", where, err)
	}
}

// quiesceAudit stops the world (workers park between iterations on the
// write lock) and runs the machine-wide consistency audits with the
// eviction scan held off and the RCU domain drained. It also exercises
// the writeback path's fsync-like error reporting.
func (m *machine) quiesceAudit(where string) {
	t := m.t
	m.world.Lock()
	defer m.world.Unlock()
	m.as.QuiesceReclaim(func() {
		if err := m.as.AuditPageCaches(); err != nil {
			t.violate("%s: audit(primary): %v", where, err)
		}
		if err := m.as.AuditTHP(); err != nil {
			t.violate("%s: audit(thp): %v", where, err)
		}
		m.ballastMu.Lock()
		for b, live := range m.ballast {
			if !live {
				continue
			}
			if err := b.AuditPageCaches(); err != nil {
				t.violate("%s: audit(ballast): %v", where, err)
			}
		}
		m.ballastMu.Unlock()
	})
	if c := m.file.PageCache(); c != nil {
		// Fsync the shared file: errors here are the writeback
		// taxonomy doing its job (retryable now, or a latched sticky
		// drop reported exactly once) — expected under injection.
		_, err := c.Writeback(nil)
		if err != nil && !errors.Is(err, pagecache.ErrIO) {
			t.violate("%s: writeback: non-I/O error: %v", where, err)
		}
		if err != nil && !t.cfg.Faults {
			t.violate("%s: writeback error with fault injection off: %v", where, err)
		}
	}
	t.audits.Add(1)
}

// teardown closes every space still alive; any Close error is a frame
// leak the allocator's accounting caught.
func (m *machine) teardown(where string) {
	t := m.t
	m.ballastMu.Lock()
	for b, live := range m.ballast {
		if live {
			if err := b.Close(); err != nil {
				t.violate("%s: ballast leaked at teardown: %v", where, err)
			}
		}
	}
	m.ballast = nil
	m.ballastMu.Unlock()
	// Read the counters while the epoch's machine is still alive.
	st := m.as.Stats()
	t.report.OOMKills += st.OOMKills
	t.report.Failpoints = fail.Snapshot()
	t.report.HugeFaults += st.THPHugeFaults
	t.report.Collapses += st.THPCollapses
	t.report.HugeSplits += st.THPSplits
	if err := m.as.Close(); err != nil {
		t.violate("%s: machine leaked at teardown: %v", where, err)
	}
	t.report.Ops = t.ops.Load()
	t.report.OOMErrors = t.oomErrors.Load()
	t.report.IOErrors = t.ioErrors.Load()
	t.report.Audits = t.audits.Load()
}

// splitmix returns a deterministic PRNG for one worker — splitmix64,
// the same mixer the failpoint verdicts use, seeded independently.
func splitmix(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// hash is FNV-1a over a label, for worker seed separation.
func hash(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
