package torture

import (
	"testing"
	"time"

	"bonsai/internal/introspect"
	"bonsai/internal/race"
	"bonsai/internal/vm"
)

// TestSmokeWithFaults is the in-tree slice of the CI torture gate: a
// short churn of two designs (one lock-based, one RCU) under the full
// fault schedule must end with zero violations and zero leaks, and
// every design must take the huge fault and split paths, which each
// generation's huge cycle runs before its workers start. Where the
// workers run at full speed, not under the race detector's hundredfold
// slowdown, every failpoint must fire and every coverage count the
// workers drive must be nonzero too.
func TestSmokeWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("torture smoke needs a few seconds")
	}
	rep := Run(Config{
		Seed:     42,
		Duration: 4 * time.Second,
		Designs:  []vm.Design{vm.RWLock, vm.PureRCU},
		Faults:   true,
	})
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	for _, r := range rep.Designs {
		if r.Tenants == 0 || r.Ops == 0 || r.Audits == 0 {
			t.Fatalf("%v: no work done: %+v", r.Design, r)
		}
		if r.HugeFaults == 0 || r.HugeSplits == 0 {
			t.Errorf("%v: huge-page paths not exercised: huge faults %d, splits %d", r.Design, r.HugeFaults, r.HugeSplits)
		}
		t.Logf("%+v", r)
	}
	if !race.Enabled {
		for _, g := range rep.Gaps() {
			t.Errorf("coverage gap: %s", g)
		}
	}
}

// TestSmokeNoFaults runs the same churn with injection off: any I/O
// error or violation is then a real bug, not torture weather.
func TestSmokeNoFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("torture smoke needs a few seconds")
	}
	rep := Run(Config{
		Seed:     7,
		Duration: 2 * time.Second,
		Designs:  []vm.Design{vm.Hybrid},
	})
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Designs[0].IOErrors != 0 {
		t.Errorf("injection off but %d I/O errors surfaced", rep.Designs[0].IOErrors)
	}
}

// TestSoakSmoke is the soak setting in small: three limited seats per
// design complete with zero violations — no cross-tenant evictions, no
// leaked frames — while their own reclaim evicts pages, and the report
// counts exactly the faults and huge-page events the machine rollup
// counts, fork children's and ballast's included.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke needs a second of wall clock per design")
	}
	machineCounts := map[string]vm.Counts{}
	rep := Run(Config{
		Seed:     1,
		Duration: 2400 * time.Millisecond,
		Designs:  []vm.Design{vm.RWLock, vm.PureRCU},
		Seats:    3,
		Limit:    100,
		Workers:  2,
		OnMachine: func(label string, h *vm.Host) func() {
			return func() { machineCounts[label] = introspect.Read(h).Counts }
		},
	})
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	for _, g := range rep.Gaps() {
		t.Errorf("coverage gap: %s", g)
	}
	for _, r := range rep.Designs {
		t.Logf("%+v", r)
		want := machineCounts[r.Design.String()]
		if r.Faults != want.Faults {
			t.Errorf("%v: report counts %d faults, machine rollup %d", r.Design, r.Faults, want.Faults)
		}
		if got := [3]uint64{r.HugeFaults, r.Collapses, r.HugeSplits}; got != [3]uint64{want.THPHugeFaults, want.THPCollapses, want.THPSplits} {
			t.Errorf("%v: report counts huge faults, collapses, splits %v, machine rollup %d %d %d", r.Design, got,
				want.THPHugeFaults, want.THPCollapses, want.THPSplits)
		}
		if r.Faults == 0 || r.Tenants < 3 || r.Fault.P99Ns == 0 {
			t.Errorf("%v: soak did not churn: %+v", r.Design, r)
		}
	}
}

// TestOpsDependOnKeyAlone: two runs of one seed under the full fault
// schedule — different interleavings, different injected failures,
// different outcomes — record, for every worker key both ran, the same
// operation kinds over the prefix both drew. Outside the race detector
// some worker must draw its full logOps in both.
func TestOpsDependOnKeyAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("needs two runs of a second each")
	}
	cfg := Config{Seed: 5, Duration: time.Second, Designs: []vm.Design{vm.Hybrid}, Faults: true}
	a, b := Run(cfg).opLogs, Run(cfg).opLogs
	compared, full := 0, 0
	for key, la := range a {
		lb := b[key]
		n := min(len(la), len(lb))
		for i := 0; i < n; i++ {
			if la[i] != lb[i] {
				t.Errorf("%s: op %d is %s in one run, %s in the other", key, i, kindNames[la[i]], kindNames[lb[i]])
				break
			}
		}
		compared += n
		if n == logOps {
			full++
		}
	}
	t.Logf("%d op kinds compared across %d keys, %d keys in full", compared, len(a), full)
	if compared == 0 || (full == 0 && !race.Enabled) {
		t.Fatalf("the two runs share too few operations to compare: %d, %d keys in full", compared, full)
	}
}
