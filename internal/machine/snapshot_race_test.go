package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// TestSnapshotAdmitEvictRace hammers Snapshot against concurrent
// Admit/work/Evict churn and checks the two monotonicity guarantees
// the Prometheus exporter depends on:
//
//   - the machine-wide fault count never decreases (a departing
//     tenant's samples fold into the departed accumulators in the same
//     critical section that retires it — no double count, no gap);
//   - no snapshot observes a half-retired tenant: every tenant entry
//     carries a consistent name, and a tenant present in the tenant
//     list is never also counted in the departed rollup.
//
// Run under -race this also shakes out data races between the snapshot
// walk and the admit/evict paths.
func TestSnapshotAdmitEvictRace(t *testing.T) {
	m := New(Config{
		VM:         vm.Config{Design: vm.PureRCU, CPUs: 4, Frames: 8192},
		MaxTenants: 8,
	})
	defer m.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Churners: admit, fault, evict, repeat.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; !stop.Load(); round++ {
				tn, err := m.Admit(fmt.Sprintf("churn-%d-%d", w, round), 128)
				if err != nil {
					continue // slots full; another churner holds them
				}
				as := tn.Root()
				base, err := as.Mmap(0, 32*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
				if err == nil {
					cpu := as.NewCPU(w % 4)
					for p := uint64(0); p < 32; p++ {
						_ = cpu.Fault(base+p*vm.PageSize, true)
					}
				}
				if err := tn.Evict(); err != nil {
					t.Errorf("evict: %v", err)
					return
				}
			}
		}(w)
	}

	// Snapshotter: the assertions run here, concurrently with churn.
	const snapshots = 400
	var lastFaults, lastSamples uint64
	for i := 0; i < snapshots; i++ {
		sn := m.Snapshot()
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
		for _, dep := range sn.Departed {
			if seen[dep.Name] {
				t.Fatalf("snapshot %d: tenant %s both live and departed", i, dep.Name)
			}
		}
	}
	// On a fast machine the snapshot loop can finish before the churn
	// goroutines are even scheduled; wait until churn has done real
	// work so the quiescent cross-check below checks something.
	for i := 0; i < 5000; i++ {
		sn := m.Snapshot()
		if sn.TenantsEvicted > 0 && sn.Faults > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	// Quiescent cross-check: with churn stopped, the rollup must equal
	// live + departed exactly and still be >= the last racing read.
	sn := m.Snapshot()
	if sn.Faults < lastFaults || sn.Latency.Fault.Count < lastSamples {
		t.Fatalf("final fault count %d / samples %d below last observed %d / %d",
			sn.Faults, sn.Latency.Fault.Count, lastFaults, lastSamples)
	}
	if sn.TenantsEvicted == 0 || sn.Faults == 0 {
		t.Fatalf("churn did no work: evicted=%d faults=%d", sn.TenantsEvicted, sn.Faults)
	}
	// Every churn round faults exactly 32 pages and every tenant has
	// departed: the exact counter carries all of them, the timed sample
	// only a fraction.
	if sn.Faults != 32*sn.TenantsEvicted {
		t.Fatalf("exact fault count %d, want 32 per evicted tenant (%d)", sn.Faults, 32*sn.TenantsEvicted)
	}
	if sn.Latency.Fault.Count > sn.Faults {
		t.Fatalf("more fault samples (%d) than faults (%d)", sn.Latency.Fault.Count, sn.Faults)
	}
}
