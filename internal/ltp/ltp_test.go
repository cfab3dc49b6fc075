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
		for _, d := range vm.Designs {
			cfg.Design = d
			for _, c := range Cases() {
				if err := c.Run(cfg); err != nil {
					t.Errorf("%-45s %-22s RangeLocks=%d FAIL: %v", c.Name, d, cfg.RangeLocks, err)
				}
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
