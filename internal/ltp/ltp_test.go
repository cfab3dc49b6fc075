package ltp

import (
	"testing"

	"bonsai/internal/vm"
)

// TestConformanceAllDesigns runs the full battery under every design —
// the reproduction of the paper's LTP validation (§6) — and again with
// every mapping operation on the global mmap_sem, which for the RCU
// designs is the configuration the paper describes.
func TestConformanceAllDesigns(t *testing.T) {
	for _, cfg := range []vm.Config{{}, {RangeLocks: vm.RangeLocksOff}} {
		for _, r := range RunAll(cfg) {
			if r.Err != nil {
				t.Errorf("%-45s %-22s RangeLocks=%d FAIL: %v", r.Case, r.Design, cfg.RangeLocks, r.Err)
			}
		}
	}
}

// TestCaseNamesUnique guards the battery's reporting.
func TestCaseNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Cases() {
		if seen[c.Name] {
			t.Errorf("duplicate case name %q", c.Name)
		}
		seen[c.Name] = true
	}
	if len(seen) < 10 {
		t.Fatalf("battery too small: %d cases", len(seen))
	}
}
