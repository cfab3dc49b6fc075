package vm

import (
	"reflect"
	"testing"
)

// TestNoShootdownDelayField guards the retirement of the flat
// Config.ShootdownDelay knob: shootdown cost is ShootdownBase +
// ShootdownPerCore × CPUs, and the deprecated alias must not quietly
// come back (CI additionally greps for the identifier, so a
// reintroduction fails twice).
func TestNoShootdownDelayField(t *testing.T) {
	cfgT := reflect.TypeOf(Config{})
	if f, ok := cfgT.FieldByName("ShootdownDelay"); ok {
		t.Fatalf("vm.Config has a %s field again — it was retired for ShootdownBase/ShootdownPerCore", f.Name)
	}
	for _, want := range []string{"ShootdownBase", "ShootdownPerCore"} {
		if _, ok := cfgT.FieldByName(want); !ok {
			t.Fatalf("vm.Config lost its %s field", want)
		}
	}
}

// TestConfigFieldSet pins vm.Config's exact field set. Every field
// multiplies the configurations tests and benchmarks must cover, so
// adding a knob (or dropping one) is a deliberate edit of this list.
func TestConfigFieldSet(t *testing.T) {
	want := []string{
		"Design", "CPUs", "Frames", "Backing", "MmapCache", "SinglePTELock",
		"RCUBatch", "MaxStackGrowth", "MaxFamily", "RangeLocks",
		"ShootdownBase", "ShootdownPerCore", "LowWater", "HighWater",
		"ReclaimBatch", "NoTHP", "THPScanInterval",
	}
	cfgT := reflect.TypeOf(Config{})
	var got []string
	for i := 0; i < cfgT.NumField(); i++ {
		got = append(got, cfgT.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("vm.Config fields are\n  %v\nwant\n  %v", got, want)
	}
}
