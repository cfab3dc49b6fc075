package introspect

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// TestSnapshotRollup: the machine snapshot carries per-tenant account
// entries and machine-wide reclaim counters, the machine's counts are
// its tenants' summed, and a departed tenant leaves the tenant list but
// stays in every count.
func TestSnapshotRollup(t *testing.T) {
	h := newHost(t, vm.Config{Design: vm.RWLock, CPUs: 2, Frames: 2048}, 4)
	a, err := h.Admit("a", 150)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Admit("b", 0) // unlimited
	if err != nil {
		t.Fatal(err)
	}
	faultPages(t, a, 8)
	sn := Read(h)
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
	var sum vm.Counts
	for _, ts := range sn.Tenants {
		sum.Add(&ts.Counts)
	}
	if sum != sn.Counts || sum != a.Rollup().Counts {
		t.Fatalf("machine counts %+v, tenants' sum %+v; want both a's", sn.Counts, sum)
	}
	if err := h.Evict(a); err != nil {
		t.Fatal(err)
	}
	sn = Read(h)
	if sn.TenantsEvicted != 1 || len(sn.Tenants) != 1 || sn.Tenants[0].Name != b.TenantName() {
		t.Fatalf("after evicting a: evicted = %d, tenants = %+v; want 1 and only b", sn.TenantsEvicted, sn.Tenants)
	}
	if sn.Faults != 8 || sn.PagesMapped != 8 || sn.PagesUnmapped != 8 || sn.Mmaps != 1 {
		t.Fatalf("machine faults %d, pages mapped %d and unmapped %d, mmaps %d after a's eviction; want a's 8, 8, 8, 1",
			sn.Faults, sn.PagesMapped, sn.PagesUnmapped, sn.Mmaps)
	}
}

// TestRetiredTenantLeavesBothViews: a tenant whose members all close
// without Evict leaves Tenants() and the snapshot's Tenants in the same
// step, its faults stay in the machine's count, and its slot admits the
// next tenant, which is then the only one listed.
func TestRetiredTenantLeavesBothViews(t *testing.T) {
	h := newHost(t, vm.Config{Design: vm.PureRCU, CPUs: 1, Frames: 2048}, 1)
	a, err := h.Admit("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := a.NewSibling()
	if err != nil {
		t.Fatal(err)
	}
	faultPages(t, a, 8)
	faultPages(t, sib, 4)
	views := func() (listed, snapshot int, faults uint64) {
		sn := Read(h)
		return len(h.Tenants().Live), len(sn.Tenants), sn.Faults
	}
	for i, sp := range []*vm.AddressSpace{sib, a} {
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
	if _, err := h.Admit("b", 0); err != nil {
		t.Fatal(err)
	}
	sn := Read(h)
	if len(sn.Tenants) != 1 || sn.Tenants[0].Name != "b" || len(h.Tenants().Live) != 1 || sn.Faults != 12 {
		t.Fatalf("after admitting b on a's slot: tenants %+v, faults %d; want only b, 12", sn.Tenants, sn.Faults)
	}
}

// TestSnapshotAdmitEvictRace hammers Read against concurrent
// Admit/work/Evict churn and checks the two monotonicity guarantees
// the Prometheus exporter depends on:
//
//   - the machine-wide fault count never decreases (a departing
//     tenant's rollup folds into the departed rollup in the same
//     critical section that retires it — no double count, no gap);
//   - no snapshot observes a half-retired tenant: every tenant entry
//     carries a consistent name, and the tenant list holds exactly the
//     tenants admitted and not yet evicted.
//
// Every round also forks a child that faults and closes on its own, so
// the exact count must carry members that leave before their tenant,
// and every other round retires its tenant by closing the root
// directly, so the table, not Evict, must do the departed fold.
//
// Run under -race this also shakes out data races between the snapshot
// walk and the admit/evict paths.
func TestSnapshotAdmitEvictRace(t *testing.T) {
	const childFaults = 8
	h := newHost(t, vm.Config{Design: vm.PureRCU, CPUs: 4, Frames: 8192}, 8)

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Churners: admit, fault, fork a child that faults and closes,
	// evict or close the root, repeat.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; !stop.Load(); round++ {
				as, err := h.Admit(fmt.Sprintf("churn-%d-%d", w, round), 128)
				if err != nil {
					continue // slots full; another churner holds them
				}
				base, err := as.Mmap(0, 32*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
				if err == nil {
					cpu := as.NewCPU(w % 4)
					for p := uint64(0); p < 32; p++ {
						_ = cpu.Fault(base+p*vm.PageSize, true)
					}
					if child, err := as.Fork(); err != nil {
						t.Errorf("fork: %v", err)
					} else {
						ccpu := child.NewCPU(w % 4)
						for p := uint64(0); p < childFaults; p++ {
							_ = ccpu.Fault(base+p*vm.PageSize, true)
						}
						if err := child.Close(); err != nil {
							t.Errorf("child close: %v", err)
						}
					}
				}
				// Odd rounds retire the tenant without Evict: closing its
				// last member alone must move it from the listing to the
				// departed totals.
				if round%2 == 1 {
					if err := as.Close(); err != nil {
						t.Errorf("root close: %v", err)
						return
					}
				} else if err := h.Evict(as); err != nil {
					t.Errorf("evict: %v", err)
					return
				}
			}
		}(w)
	}

	// Snapshotter: the assertions run here, concurrently with churn.
	const snapshots = 400
	var lastFaults, lastSamples, lastEvicted uint64
	for i := 0; i < snapshots; i++ {
		sn := Read(h)
		if sn.Faults < lastFaults {
			t.Fatalf("machine fault count regressed: %d -> %d (snapshot %d)",
				lastFaults, sn.Faults, i)
		}
		lastFaults = sn.Faults
		if sn.Latency.Fault.Count < lastSamples {
			t.Fatalf("machine fault sample count regressed: %d -> %d (snapshot %d)",
				lastSamples, sn.Latency.Fault.Count, i)
		}
		lastSamples = sn.Latency.Fault.Count
		if sn.TenantsEvicted < lastEvicted {
			t.Fatalf("evicted count regressed: %d -> %d (snapshot %d)", lastEvicted, sn.TenantsEvicted, i)
		}
		lastEvicted = sn.TenantsEvicted
		if live := sn.TenantsAdmitted - sn.TenantsEvicted; uint64(len(sn.Tenants)) != live {
			t.Fatalf("snapshot %d: %d tenants listed, %d admitted and not evicted", i, len(sn.Tenants), live)
		}
		seen := map[string]bool{}
		for _, ts := range sn.Tenants {
			if ts.Name == "" {
				t.Fatalf("snapshot %d: tenant with empty name: %+v", i, ts)
			}
			if seen[ts.Name] {
				t.Fatalf("snapshot %d: tenant %s listed twice", i, ts.Name)
			}
			seen[ts.Name] = true
		}
	}
	// On a fast machine the snapshot loop can finish before the churn
	// goroutines are even scheduled; wait until churn has done real
	// work so the quiescent cross-check below checks something.
	for i := 0; i < 5000; i++ {
		sn := Read(h)
		if sn.TenantsEvicted > 0 && sn.Faults > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	// Quiescent cross-check: with churn stopped, the rollup must equal
	// live + departed exactly and still be >= the last racing read.
	sn := Read(h)
	if sn.Faults < lastFaults || sn.Latency.Fault.Count < lastSamples {
		t.Fatalf("final fault count %d / samples %d below last observed %d / %d",
			sn.Faults, sn.Latency.Fault.Count, lastFaults, lastSamples)
	}
	if sn.TenantsEvicted == 0 || sn.Faults == 0 {
		t.Fatalf("churn did no work: evicted=%d faults=%d", sn.TenantsEvicted, sn.Faults)
	}
	// Every churn round faults exactly 32 pages in the root and
	// childFaults in the child, and every tenant has departed: the exact
	// counter carries all of them, the timed sample only a fraction.
	if want := (32 + childFaults) * sn.TenantsEvicted; sn.Faults != want {
		t.Fatalf("exact fault count %d, want %d per evicted tenant (%d)", sn.Faults, 32+childFaults, want)
	}
	if len(sn.Tenants) != 0 {
		t.Fatalf("%d tenants still listed after churn stopped", len(sn.Tenants))
	}
	if sn.Latency.Fault.Count > sn.Faults {
		t.Fatalf("more fault samples (%d) than faults (%d)", sn.Latency.Fault.Count, sn.Faults)
	}
}
