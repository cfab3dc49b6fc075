package vm

import (
	"reflect"
	"testing"
)

// TestConfigFieldSet pins vm.Config's exact field set. Every field
// multiplies the configurations tests and benchmarks must cover, so
// adding a knob (or dropping one) is a deliberate edit of this list.
// The exported fields are the ones a program sets; tune is the one
// unexported field, reachable only from this package's tests.
func TestConfigFieldSet(t *testing.T) {
	want := []string{
		"Design", "CPUs", "Frames", "Backing", "MaxFamily",
		"tune",
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
