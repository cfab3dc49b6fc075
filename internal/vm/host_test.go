package vm

import (
	"errors"
	"slices"
	"sync"
	"testing"

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

// TestDrainAccountLeavesNoClockHands: draining a departed tenant's
// residual page-cache charge must not leave per-account clock hands in
// the surviving caches. Regression: DrainAccount's scans run after
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
	if res := h.DrainAccount(acct); res != 0 {
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
	h.ms.tenantsMu.Lock()
	free := slices.Clone(h.ms.tenantFree)
	h.ms.tenantsMu.Unlock()
	if !slices.Equal(free, []int{0}) {
		t.Fatalf("tenant slot free list = %v, want [0]: the family retired more than once", free)
	}
}
