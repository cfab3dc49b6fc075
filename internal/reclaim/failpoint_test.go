package reclaim

// Failure injection for the direct-reclaim path. Serial only: the
// failpoint registry is process-global.

import (
	"testing"

	"bonsai/internal/fail"
)

// TestInjectedStallFailsDirectReclaim: an armed reclaim.stall makes
// DirectReclaim return without scanning even though the pool has free
// frames, costing the VM layer's retry one attempt of its budget.
// Disarmed, the same call scans again.
func TestInjectedStallFailsDirectReclaim(t *testing.T) {
	defer fail.DisableAll()
	alloc, _, r, c := newTestMachine(t, 64, 0, 0)
	fill(t, r, c, 8)
	if alloc.FreeFrames() == 0 {
		t.Fatal("setup: pool unexpectedly empty")
	}
	if err := fail.Enable(6, "reclaim.stall", fail.Config{OneIn: 1}); err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	r.DirectReclaim()
	st := r.Stats()
	if st.InjectedStalls != 1 || st.ScanPasses != before.ScanPasses {
		t.Fatalf("stalled: InjectedStalls = %d (want 1), ScanPasses %d → %d (want unchanged)",
			st.InjectedStalls, before.ScanPasses, st.ScanPasses)
	}
	fail.DisableAll()
	r.DirectReclaim()
	if after := r.Stats(); after.InjectedStalls != 1 || after.ScanPasses == st.ScanPasses {
		t.Fatalf("disarmed: InjectedStalls = %d (want 1), ScanPasses %d → %d (want a pass)",
			after.InjectedStalls, st.ScanPasses, after.ScanPasses)
	}
}
