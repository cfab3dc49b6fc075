package machine

import (
	"errors"
	"testing"

	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

func testCfg(design vm.Design, frames uint64) Config {
	return Config{
		VM:         vm.Config{Design: design, CPUs: 2, Frames: frames},
		MaxTenants: 4,
	}
}

// TestAdmitEvictLifecycle: tenants admit, work, and evict cleanly;
// slots recycle; the machine closes with zero leaked frames.
func TestAdmitEvictLifecycle(t *testing.T) {
	m := New(testCfg(vm.PureRCU, 2048))
	for round := 0; round < 3; round++ {
		var tenants []*Tenant
		for i := 0; i < 4; i++ {
			tn, err := m.Admit("", 200)
			if err != nil {
				t.Fatalf("round %d admit %d: %v", round, i, err)
			}
			tenants = append(tenants, tn)
		}
		// A fifth tenant must be refused while four are live.
		if _, err := m.Admit("", 200); err == nil {
			t.Fatal("admit beyond MaxTenants succeeded")
		}
		for _, tn := range tenants {
			as := tn.Root()
			cpu := as.NewCPU(0)
			arena, err := as.Mmap(0, 32*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for p := uint64(0); p < 32; p++ {
				if err := cpu.Fault(arena+p*vm.PageSize, true); err != nil {
					t.Fatalf("fault: %v", err)
				}
			}
			if tn.Account().Charged() == 0 {
				t.Fatal("faults did not charge the tenant account")
			}
		}
		for _, tn := range tenants {
			if err := tn.Evict(); err != nil {
				t.Fatalf("round %d evict: %v", round, err)
			}
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestEvictClosesSiblings: Evict tears down every registered member,
// not just the root, and audits to zero charge.
func TestEvictClosesSiblings(t *testing.T) {
	m := New(testCfg(vm.Hybrid, 2048))
	defer m.Close()
	tn, err := m.Admit("multi", 300)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := tn.NewSibling()
	if err != nil {
		t.Fatal(err)
	}
	file := vma.NewFile("shared.dat", 1)
	for _, sp := range []*vm.AddressSpace{tn.Root(), sib} {
		base, err := sp.Mmap(0, 64*vm.PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, 0)
		if err != nil {
			t.Fatal(err)
		}
		cpu := sp.NewCPU(0)
		for p := uint64(0); p < 64; p++ {
			if err := cpu.Fault(base+p*vm.PageSize, p%2 == 0); err != nil {
				t.Fatalf("fault: %v", err)
			}
		}
	}
	if len(tn.Spaces()) != 2 {
		t.Fatalf("spaces = %d, want 2", len(tn.Spaces()))
	}
	if err := tn.Evict(); err != nil {
		t.Fatalf("evict: %v", err)
	}
	if got := tn.Account().Charged(); got != 0 {
		t.Fatalf("charged = %d after eviction, want 0", got)
	}
	// Double eviction is an error, not a crash.
	if err := tn.Evict(); err == nil {
		t.Fatal("second Evict succeeded")
	}
}

// TestTenantLimitDrivesLocalReclaim: a tenant thrashing a file window
// larger than its limit stays within the limit (tenant-local reclaim
// keeps it honest) and never receives a hard error.
func TestTenantLimitDrivesLocalReclaim(t *testing.T) {
	m := New(testCfg(vm.PureRCU, 4096))
	defer m.Close()
	const limit = 96
	tn, err := m.Admit("thrash", limit)
	if err != nil {
		t.Fatal(err)
	}
	as := tn.Root()
	cpu := as.NewCPU(0)
	filePages := uint64(3 * limit)
	file := vma.NewFile("big.dat", 2)
	base, err := as.Mmap(0, filePages*vm.PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 0; sweep < 2; sweep++ {
		for p := uint64(0); p < filePages; p++ {
			if err := cpu.Fault(base+p*vm.PageSize, p%4 == 0); err != nil {
				if errors.Is(err, vm.ErrNoMemory) {
					continue // graceful degradation at the limit is legal
				}
				t.Fatalf("fault: %v", err)
			}
		}
	}
	acs := tn.Account().Stats()
	if acs.MaxCharged > limit {
		t.Fatalf("max charged %d exceeded limit %d", acs.MaxCharged, limit)
	}
	if acs.LimitHits == 0 {
		t.Fatal("thrash never hit the limit — working set not limit-bound")
	}
	rs := m.Host().Reclaimer().Stats()
	if rs.AccountRuns == 0 || rs.AccountEvicted == 0 {
		t.Fatalf("tenant-local reclaim never ran: runs=%d evicted=%d", rs.AccountRuns, rs.AccountEvicted)
	}
	if err := tn.Evict(); err != nil {
		t.Fatalf("evict: %v", err)
	}
	// The machine pool never saw pressure, so nothing was evicted from
	// an under-limit account.
	if got := m.Snapshot().CrossTenantEvictions; got != 0 {
		t.Fatalf("cross-tenant evictions = %d, want 0", got)
	}
}

// TestSnapshotRollup: the machine snapshot carries per-tenant account
// entries and machine-wide reclaim counters, and a departed tenant
// leaves the tenant list but stays in the exact fault count.
func TestSnapshotRollup(t *testing.T) {
	m := New(testCfg(vm.RWLock, 2048))
	defer m.Close()
	a, err := m.Admit("a", 150)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Admit("b", 0) // unlimited
	if err != nil {
		t.Fatal(err)
	}
	cpu := a.Root().NewCPU(0)
	arena, err := a.Root().Mmap(0, 8*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 8; p++ {
		if err := cpu.Fault(arena+p*vm.PageSize, true); err != nil {
			t.Fatal(err)
		}
	}
	sn := m.Snapshot()
	if len(sn.Tenants) != 2 {
		t.Fatalf("tenants in snapshot = %d, want 2", len(sn.Tenants))
	}
	var sawA, sawB bool
	for _, ts := range sn.Tenants {
		switch ts.Name {
		case "a":
			sawA = true
			if ts.Account == nil || ts.Account.Charged == 0 {
				t.Fatal("tenant a: no charged account in snapshot")
			}
		case "b":
			sawB = true
			if ts.Account != nil {
				t.Fatal("unlimited tenant b reports an account")
			}
		}
	}
	if !sawA || !sawB {
		t.Fatalf("snapshot missed a tenant: a=%v b=%v", sawA, sawB)
	}
	if err := a.Evict(); err != nil {
		t.Fatal(err)
	}
	sn = m.Snapshot()
	if sn.TenantsEvicted != 1 || len(sn.Tenants) != 1 || sn.Tenants[0].Name != b.Name() {
		t.Fatalf("after evicting a: evicted = %d, tenants = %+v; want 1 and only b", sn.TenantsEvicted, sn.Tenants)
	}
	if sn.Faults != 8 {
		t.Fatalf("machine faults = %d after a's eviction, want a's 8", sn.Faults)
	}
}

// faultPages maps n anonymous pages in as and write-faults each.
func faultPages(t *testing.T, as *vm.AddressSpace, n uint64) {
	t.Helper()
	base, err := as.Mmap(0, n*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := as.NewCPU(0)
	for p := uint64(0); p < n; p++ {
		if err := cpu.Fault(base+p*vm.PageSize, true); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetiredTenantTakesNoMembers: a tenant whose root closed directly
// has retired, and its slot may already belong to the next tenant; a
// NewSibling through the old handle must fail rather than open a space
// on that slot, charging the new tenant's account. Regression: it
// succeeded on b's slot, and its faults were charged to b.
func TestRetiredTenantTakesNoMembers(t *testing.T) {
	m := New(Config{VM: vm.Config{Design: vm.PureRCU, CPUs: 1, Frames: 2048}, MaxTenants: 2})
	defer m.Close()
	a, err := m.Admit("a", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Root().Close(); err != nil {
		t.Fatal(err)
	}
	b, err := m.Admit("b", 64)
	if err != nil {
		t.Fatal(err)
	}
	before := b.Account().Charged()
	sib, err := a.NewSibling()
	if !errors.Is(err, vm.ErrInvalid) {
		t.Errorf("NewSibling on retired tenant a: err = %v, want vm.ErrInvalid", err)
	}
	if err == nil {
		faultPages(t, sib, 8)
		defer sib.Close()
	}
	if got := b.Account().Charged(); got != before {
		t.Fatalf("b's charge went %d -> %d: a retired tenant's member charged b", before, got)
	}
}

// TestRetiredTenantLeavesBothViews: a tenant whose members all close
// without Evict leaves Tenants() and Snapshot().Tenants in the same
// step, its faults stay in the machine's count, and its slot admits the
// next tenant, which is then the only one listed.
func TestRetiredTenantLeavesBothViews(t *testing.T) {
	m := New(Config{VM: vm.Config{Design: vm.PureRCU, CPUs: 1, Frames: 2048}, MaxTenants: 1})
	defer m.Close()
	a, err := m.Admit("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := a.NewSibling()
	if err != nil {
		t.Fatal(err)
	}
	faultPages(t, a.Root(), 8)
	faultPages(t, sib, 4)
	views := func() (listed, snapshot int, faults uint64) {
		sn := m.Snapshot()
		return len(m.Tenants()), len(sn.Tenants), sn.Faults
	}
	for i, sp := range []*vm.AddressSpace{sib, a.Root()} {
		if listed, snapshot, _ := views(); listed != 1 || snapshot != 1 {
			t.Fatalf("before close %d: Tenants() lists %d, Snapshot %d; want a in both", i, listed, snapshot)
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if listed, snapshot, faults := views(); listed != 0 || snapshot != 0 || faults != 12 {
		t.Fatalf("after a retired: Tenants() lists %d, Snapshot %d, faults %d; want 0, 0, 12", listed, snapshot, faults)
	}
	if _, err := m.Admit("b", 0); err != nil {
		t.Fatal(err)
	}
	sn := m.Snapshot()
	if len(sn.Tenants) != 1 || sn.Tenants[0].Name != "b" || len(m.Tenants()) != 1 || sn.Faults != 12 {
		t.Fatalf("after admitting b on a's slot: tenants %+v, faults %d; want only b, 12", sn.Tenants, sn.Faults)
	}
}
