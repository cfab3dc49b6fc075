package vm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"bonsai/internal/stats"
	"bonsai/internal/vma"
)

// TestHostAdmitRetireChurn drives concurrent tenant admission and
// retirement through a small slot table so slots recycle constantly.
// Regression for a retire/admit race: retireTenant used to recycle the
// tenant slot before unbinding the departing account from the slot's
// CPU range, so a concurrent Admit could bind a fresh account to those
// CPUs and have the retiring goroutine wipe the bindings — the new
// tenant's faults would charge nothing. Every tenant here asserts its
// own faults were charged.
func TestHostAdmitRetireChurn(t *testing.T) {
	h := NewHost(Config{Design: PureRCU, CPUs: 2, Frames: 8192}, 2)
	const workers = 4
	const rounds = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				as, err := h.Admit("", 128)
				if err != nil {
					// Both slots busy: the table is intentionally
					// smaller than the worker count.
					continue
				}
				arena, err := as.Mmap(0, 16*PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
				if err != nil {
					errs <- err
					as.Close()
					continue
				}
				cpu := as.NewCPU(0)
				for p := uint64(0); p < 16; p++ {
					if err := cpu.Fault(arena+p*PageSize, true); err != nil {
						errs <- err
						break
					}
				}
				if as.Account().Charged() == 0 {
					t.Error("faults charged nothing: account binding lost to a racing retire")
				}
				if err := as.Close(); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("churn: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestTenantWaitsOutTheRCUBacklog: a limited tenant that unmaps a
// region and maps another must not run out of memory it has already
// freed. Munmap's frames, and their charge, wait behind a grace period;
// the tenant-local reclaim that answers the limit evicts nothing here
// (the charge is all anonymous), so the retry sees the headroom only if
// the scan waited the grace period out. Skipping that wait failed every
// run at about the 13th fault of the second region, its charge back
// under the limit milliseconds later.
func TestTenantWaitsOutTheRCUBacklog(t *testing.T) {
	const limit, pages = 64, 48
	for _, d := range Designs {
		t.Run(d.String(), func(t *testing.T) {
			h := NewHost(Config{Design: d, CPUs: 1, Frames: 1024}, 1)
			as, err := h.Admit("", limit)
			if err != nil {
				t.Fatal(err)
			}
			cpu := as.NewCPU(0)
			fill := func() uint64 {
				base, err := as.Mmap(0, pages*PageSize, vma.ProtRead|vma.ProtWrite, vma.Private, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				for p := uint64(0); p < pages; p++ {
					if err := cpu.Fault(base+p*PageSize, true); err != nil {
						t.Fatalf("fault %d of %d (charge %d of %d): %v", p+1, pages, as.Account().Charged(), limit, err)
					}
				}
				return base
			}
			if err := as.Munmap(fill(), pages*PageSize); err != nil {
				t.Fatal(err)
			}
			fill()
			if err := as.Close(); err != nil {
				t.Errorf("teardown: %v", err)
			}
			if err := h.Close(); err != nil {
				t.Errorf("host close: %v", err)
			}
		})
	}
}

// TestDrainAccountLeavesNoClockHands: draining a departed tenant's
// residual page-cache charge must not leave per-account clock hands in
// the surviving caches. Regression: drainAccount's scans run after
// UnregisterAccount already swept the hands, and each scan re-created
// one — a map entry per departed tenant, forever, under churn.
func TestDrainAccountLeavesNoClockHands(t *testing.T) {
	h := NewHost(Config{Design: PureRCU, CPUs: 1, Frames: 4096}, 2)
	defer h.Close()

	// Tenant B maps the file first, so the cache belongs to B's family
	// and survives A's retirement.
	b, err := h.Admit("", 512)
	if err != nil {
		t.Fatal(err)
	}
	file := vma.NewFile("shared.dat", 64)
	baseB, err := b.Mmap(0, 16*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpuB := b.NewCPU(0)
	for p := uint64(0); p < 16; p++ {
		if err := cpuB.Fault(baseB+p*PageSize, false); err != nil {
			t.Fatal(err)
		}
	}

	// Tenant A fills a disjoint window of the same file; those cache
	// pages are charged to A and outlive A's members.
	a, err := h.Admit("", 256)
	if err != nil {
		t.Fatal(err)
	}
	baseA, err := a.Mmap(0, 16*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	cpuA := a.NewCPU(0)
	for p := uint64(0); p < 16; p++ {
		if err := cpuA.Fault(baseA+p*PageSize, false); err != nil {
			t.Fatal(err)
		}
	}
	acct := a.Account()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if res := h.drainAccount(acct); res != 0 {
		t.Fatalf("drain residue = %d, want 0", res)
	}
	if n := file.PageCache().AccountHands(); n != 0 {
		t.Fatalf("surviving cache retains %d account clock hands after drain, want 0", n)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHostCloseRetireRace races Host.Close against the last tenant's
// retirement. Regression for a double-teardown: Close used to decrement
// the hold count and check the live-tenant set in separate steps, so it
// and retireTenant could both observe "no tenants, no holds" and each
// close the reclaimer and RCU domain (panic on a closed channel).
// Exactly one teardown must run, and a Close that loses to a live
// tenant must leave the machine reusable for a retried Close.
func TestHostCloseRetireRace(t *testing.T) {
	for i := 0; i < 50; i++ {
		h := NewHost(Config{Design: PureRCU, CPUs: 1, Frames: 512}, 1)
		as, err := h.Admit("", 64)
		if err != nil {
			t.Fatal(err)
		}
		arena, err := as.Mmap(0, 8*PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		cpu := as.NewCPU(0)
		for p := uint64(0); p < 8; p++ {
			if err := cpu.Fault(arena+p*PageSize, true); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := as.Close(); err != nil {
				t.Errorf("member close: %v", err)
			}
		}()
		// Retry until the tenant has retired; each losing attempt must
		// restore the hold so the next one is valid.
		for {
			if err := h.Close(); err == nil {
				break
			}
		}
		wg.Wait()
	}
}

// TestRetiredFamilyRefusesMembers: once a tenant's last member has
// closed, the family takes no new member — NewSibling and Fork on the
// closed space fail with ErrInvalid — and it retires exactly once, so
// its slot is on the free list once. Regression: both used to succeed
// on the recycled slot, and each one's Close retired the family again.
func TestRetiredFamilyRefusesMembers(t *testing.T) {
	h := NewHost(Config{Design: PureRCU, CPUs: 1, Frames: 1024}, 2)
	defer h.Close()
	as, err := h.Admit("a", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Close(); err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name string
		grow func() (*AddressSpace, error)
	}{{"NewSibling", as.NewSibling}, {"Fork", as.Fork}} {
		if sp, err := op.grow(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s on a retired family: err = %v, want ErrInvalid", op.name, err)
			if err == nil {
				sp.Close()
			}
		}
	}
	h.tenantsMu.Lock()
	free := slices.Clone(h.tenantFree)
	h.tenantsMu.Unlock()
	if !slices.Equal(free, []int{0}) {
		t.Fatalf("tenant slot free list = %v, want [0]: the family retired more than once", free)
	}
}

// faultPages maps n anonymous pages in as and write-faults each.
func faultPages(t *testing.T, as *AddressSpace, n uint64) {
	t.Helper()
	base, err := as.Mmap(0, n*PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := as.NewCPU(0)
	for p := uint64(0); p < n; p++ {
		if err := cpu.Fault(base+p*PageSize, true); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdmitEvictLifecycle: tenants admit, work, and evict cleanly;
// slots recycle; the machine closes with zero leaked frames.
func TestAdmitEvictLifecycle(t *testing.T) {
	h := NewHost(Config{Design: PureRCU, CPUs: 2, Frames: 2048}, 4)
	for round := 0; round < 3; round++ {
		var roots []*AddressSpace
		for i := 0; i < 4; i++ {
			as, err := h.Admit("", 200)
			if err != nil {
				t.Fatalf("round %d admit %d: %v", round, i, err)
			}
			roots = append(roots, as)
		}
		// A fifth tenant must be refused while four are live.
		if _, err := h.Admit("", 200); err == nil {
			t.Fatal("admit beyond MaxTenants succeeded")
		}
		for _, as := range roots {
			faultPages(t, as, 32)
			if as.Account().Charged() == 0 {
				t.Fatal("faults did not charge the tenant account")
			}
		}
		for _, as := range roots {
			if err := h.Evict(as); err != nil {
				t.Fatalf("round %d evict: %v", round, err)
			}
		}
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestEvictClosesSiblings: Evict tears down every registered member,
// not just the root, and audits to zero charge.
func TestEvictClosesSiblings(t *testing.T) {
	h := NewHost(Config{Design: Hybrid, CPUs: 2, Frames: 2048}, 4)
	defer h.Close()
	root, err := h.Admit("multi", 300)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := root.NewSibling()
	if err != nil {
		t.Fatal(err)
	}
	file := vma.NewFile("shared.dat", 1)
	for _, sp := range []*AddressSpace{root, sib} {
		base, err := sp.Mmap(0, 64*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, 0)
		if err != nil {
			t.Fatal(err)
		}
		cpu := sp.NewCPU(0)
		for p := uint64(0); p < 64; p++ {
			if err := cpu.Fault(base+p*PageSize, p%2 == 0); err != nil {
				t.Fatalf("fault: %v", err)
			}
		}
	}
	if len(root.Members()) != 2 {
		t.Fatalf("spaces = %d, want 2", len(root.Members()))
	}
	if err := h.Evict(root); err != nil {
		t.Fatalf("evict: %v", err)
	}
	if got := root.Account().Charged(); got != 0 {
		t.Fatalf("charged = %d after eviction, want 0", got)
	}
	// Double eviction is an error, not a crash.
	if err := h.Evict(root); err == nil {
		t.Fatal("second Evict succeeded")
	}
}

// TestTenantLimitDrivesLocalReclaim: a tenant thrashing a file window
// larger than its limit stays within the limit (tenant-local reclaim
// keeps it honest) and never receives a hard error.
func TestTenantLimitDrivesLocalReclaim(t *testing.T) {
	h := NewHost(Config{Design: PureRCU, CPUs: 2, Frames: 4096}, 4)
	defer h.Close()
	const limit = 96
	as, err := h.Admit("thrash", limit)
	if err != nil {
		t.Fatal(err)
	}
	cpu := as.NewCPU(0)
	filePages := uint64(3 * limit)
	file := vma.NewFile("big.dat", 2)
	base, err := as.Mmap(0, filePages*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 0; sweep < 2; sweep++ {
		for p := uint64(0); p < filePages; p++ {
			if err := cpu.Fault(base+p*PageSize, p%4 == 0); err != nil {
				if errors.Is(err, ErrNoMemory) {
					continue // graceful degradation at the limit is legal
				}
				t.Fatalf("fault: %v", err)
			}
		}
	}
	acs := as.Account().Stats()
	if acs.MaxCharged > limit {
		t.Fatalf("max charged %d exceeded limit %d", acs.MaxCharged, limit)
	}
	if acs.LimitHits == 0 {
		t.Fatal("thrash never hit the limit — working set not limit-bound")
	}
	rs := h.Reclaimer().Stats()
	if rs.AccountRuns == 0 || rs.AccountEvicted == 0 {
		t.Fatalf("tenant-local reclaim never ran: runs=%d evicted=%d", rs.AccountRuns, rs.AccountEvicted)
	}
	if err := h.Evict(as); err != nil {
		t.Fatalf("evict: %v", err)
	}
	// The machine pool never saw pressure, so nothing was evicted from
	// an under-limit account.
	if got := h.Tenants().DepartedCross; got != 0 {
		t.Fatalf("cross-tenant evictions = %d, want 0", got)
	}
}

// TestRetiredTenantTakesNoMembers: a tenant whose root closed directly
// has retired, and its slot may already belong to the next tenant; a
// NewSibling through the old handle must fail rather than open a space
// on that slot, charging the new tenant's account. Regression: it
// succeeded on b's slot, and its faults were charged to b.
func TestRetiredTenantTakesNoMembers(t *testing.T) {
	h := NewHost(Config{Design: PureRCU, CPUs: 1, Frames: 2048}, 2)
	defer h.Close()
	a, err := h.Admit("a", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := h.Admit("b", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Evict(b)
	before := b.Account().Charged()
	sib, err := a.NewSibling()
	if !errors.Is(err, ErrInvalid) {
		t.Errorf("NewSibling on retired tenant a: err = %v, want ErrInvalid", err)
	}
	if err == nil {
		faultPages(t, sib, 8)
		defer sib.Close()
	}
	if got := b.Account().Charged(); got != before {
		t.Fatalf("b's charge went %d -> %d: a retired tenant's member charged b", before, got)
	}
}

// Isolation-test geometry: tenant B's working set (arena + file +
// page tables) fits comfortably under its limit; tenant A's file
// window is twice A's limit, so A thrashes its own reclaim ladder for
// the whole run.
const (
	isoLimit      = 128
	isoBArena     = 32
	isoBFilePages = 48
	isoAFilePages = 2 * isoLimit
)

// runVictim drives tenant B's steady working-set loop for d, timing
// every fault. First pass populates; after that every touch should be
// a resident hit as long as nobody evicts B's pages.
func runVictim(t *testing.T, as *AddressSpace, seed int64, d time.Duration) *stats.LatencyHist {
	t.Helper()
	cpu := as.NewCPU(0)
	arena, err := as.Mmap(0, isoBArena*PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	file := vma.NewFile(as.TenantName()+".dat", uint64(seed))
	base, err := as.Mmap(0, isoBFilePages*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	hist := new(stats.LatencyHist)
	rng := rand.New(rand.NewSource(seed))
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		var addr uint64
		if rng.Intn(2) == 0 {
			addr = arena + uint64(rng.Intn(isoBArena))*PageSize
		} else {
			addr = base + uint64(rng.Intn(isoBFilePages))*PageSize
		}
		start := time.Now()
		err := cpu.Fault(addr, rng.Intn(4) == 0)
		hist.Record(time.Since(start))
		if err != nil {
			t.Fatalf("victim fault: %v", err)
		}
	}
	return hist
}

// TestTenantIsolation (run with -race in CI): tenant A thrashing a
// working set twice its limit must not evict a single page of tenant
// B, whose working set fits, and B's fault p99 must stay within
// tolerance of a solo run on an otherwise idle machine — across all
// four §5 designs.
func TestTenantIsolation(t *testing.T) {
	dur := 400 * time.Millisecond
	if testing.Short() {
		dur = 150 * time.Millisecond
	}
	for _, d := range Designs {
		t.Run(fmt.Sprintf("%v", d), func(t *testing.T) {
			cfg := Config{Design: d, CPUs: 2, Frames: 4096}

			// Solo baseline: B alone on the machine.
			solo := NewHost(cfg, 2)
			bSolo, err := solo.Admit("b", isoLimit)
			if err != nil {
				t.Fatal(err)
			}
			soloHist := runVictim(t, bSolo, 42, dur)
			if err := solo.Evict(bSolo); err != nil {
				t.Fatal(err)
			}
			if err := solo.Close(); err != nil {
				t.Fatal(err)
			}

			// Shared machine: A thrashes 2× its limit while B works.
			h := NewHost(cfg, 2)
			defer h.Close()
			a, err := h.Admit("a", isoLimit)
			if err != nil {
				t.Fatal(err)
			}
			b, err := h.Admit("b", isoLimit)
			if err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			thrashDone := make(chan error, 1)
			go func() {
				cpu := a.NewCPU(0)
				file := vma.NewFile("a.dat", 7)
				base, err := a.Mmap(0, isoAFilePages*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, 0)
				if err != nil {
					thrashDone <- err
					return
				}
				rng := rand.New(rand.NewSource(7))
				for {
					select {
					case <-stop:
						thrashDone <- nil
						return
					default:
					}
					addr := base + uint64(rng.Intn(isoAFilePages))*PageSize
					if err := cpu.Fault(addr, rng.Intn(3) == 0); err != nil && !errors.Is(err, ErrNoMemory) {
						thrashDone <- err
						return
					}
				}
			}()

			sharedHist := runVictim(t, b, 42, dur)
			close(stop)
			if err := <-thrashDone; err != nil {
				t.Fatalf("thrasher: %v", err)
			}

			aStats := a.Account().Stats()
			bStats := b.Account().Stats()
			if aStats.LimitHits == 0 || aStats.Evictions == 0 {
				t.Fatalf("thrasher never hit its limit (hits=%d evictions=%d) — test not exercising reclaim",
					aStats.LimitHits, aStats.Evictions)
			}
			// The isolation claim: zero pages of B evicted, by anyone.
			if bStats.Evictions != 0 {
				t.Fatalf("victim lost %d pages to reclaim while under limit (under-limit: %d)",
					bStats.Evictions, bStats.EvictionsUnderLimit)
			}
			if got := aStats.EvictionsUnderLimit + bStats.EvictionsUnderLimit; got != 0 {
				t.Fatalf("cross-tenant evictions = %d, want 0", got)
			}

			// Latency tolerance: B's p99 must not degrade past 10× the
			// solo run plus scheduler noise headroom. If A's thrash
			// reached B's pages, B would refault through the page cache
			// and the ratio would blow far past this.
			soloP99 := soloHist.Percentile(99)
			sharedP99 := sharedHist.Percentile(99)
			limit := 10*soloP99 + 200*time.Microsecond
			if sharedP99 > limit {
				t.Fatalf("victim p99 %v vs solo %v — beyond tolerance %v", sharedP99, soloP99, limit)
			}
			t.Logf("solo p99 %v, shared p99 %v, thrasher evictions %d", soloP99, sharedP99, aStats.Evictions)

			if err := h.Evict(a); err != nil {
				t.Fatal(err)
			}
			if err := h.Evict(b); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSharedFileOutlivesFirstTenant: a file's page cache belongs to the
// machine, not to the tenant that mapped the file first. Three tenants
// map one file Shared; the first one closes while the second still maps
// it, and the third maps it afterwards. Every tenant must see the
// cache's counters while it maps the file, a page first faulted after
// the first tenant left must hold the file's contents and be a
// registered cache page, and a shared store must reach a later mapper.
func TestSharedFileOutlivesFirstTenant(t *testing.T) {
	const pages = 8
	for _, d := range Designs {
		t.Run(d.String(), func(t *testing.T) {
			h := NewHost(Config{Design: d, CPUs: 1, Frames: 4096, Backing: true}, 4)
			f := vma.NewFile("shared", 7)
			admit := func(name string) (*AddressSpace, *CPU, uint64) {
				t.Helper()
				as, err := h.Admit(name, 0)
				if err != nil {
					t.Fatal(err)
				}
				base, err := as.Mmap(0, pages*PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, f, 0)
				if err != nil {
					t.Fatal(err)
				}
				return as, as.NewCPU(0), base
			}
			read := func(cpu *CPU, addr uint64) byte {
				t.Helper()
				got := make([]byte, 1)
				if err := cpu.ReadBytes(addr, got); err != nil {
					t.Fatal(err)
				}
				return got[0]
			}

			a, cpuA, baseA := admit("a")
			b, cpuB, baseB := admit("b")
			read(cpuA, baseA)
			read(cpuB, baseB)
			if st := b.PageCacheStats(); st.Resident == 0 || st.Hits+st.Misses == 0 {
				t.Errorf("second mapper's PageCacheStats = %+v while the first lives, want the shared cache's", st)
			}

			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := read(cpuB, baseB+5*PageSize), f.PageByte(5*PageSize); got != want {
				t.Errorf("page 5 after the first mapper closed reads %#x, want %#x", got, want)
			}
			if err := b.AuditPageCaches(); err != nil {
				t.Errorf("audit after the first mapper closed: %v", err)
			}
			if err := cpuB.WriteBytes(baseB+3*PageSize, []byte{0xab}); err != nil {
				t.Fatal(err)
			}

			c, cpuC, baseC := admit("c")
			if got := read(cpuC, baseC+3*PageSize); got != 0xab {
				t.Errorf("later mapper reads %#x at page 3, want the shared store 0xab", got)
			}
			for _, as := range []*AddressSpace{b, c} {
				if err := as.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.Close(); err != nil {
				t.Fatalf("host close: %v", err)
			}
		})
	}
}
