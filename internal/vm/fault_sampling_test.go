package vm

import (
	"testing"
	"time"

	"bonsai/internal/stats"
	"bonsai/internal/trace"
	"bonsai/internal/vma"
)

// TestFaultTimingSampled: every fault is counted; disarmed, about one
// in sixteen is timed; while the tracer is armed every fault is timed
// (its exit event carries the duration).
func TestFaultTimingSampled(t *testing.T) {
	as, err := New(Config{Design: PureRCU, CPUs: 2, Frames: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := as.Close(); err != nil {
			t.Errorf("teardown: %v", err)
		}
	}()
	const pages, faults = 64, 16000
	base := mustMmap(t, as, 0, pages*PageSize, vma.ProtRead|vma.ProtWrite, 0)
	cpu := as.NewCPU(1)
	storm := func() {
		for i := uint64(0); i < faults; i++ {
			if err := cpu.Fault(base+i%pages*PageSize, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	storm()
	if got := as.counts().Faults; got != faults {
		t.Fatalf("fault counter = %d after %d faults", got, faults)
	}
	samples := as.Rollup().Fault.Count()
	if lo, hi := uint64(faults/16*85/100), uint64(faults/16*115/100); samples < lo || samples > hi {
		t.Fatalf("disarmed: %d of %d faults timed, want about 1 in 16 (%d…%d)", samples, faults, lo, hi)
	}
	if got := as.stats.cpu.At(as.physCPU(0)).hist.Count(); got != 0 {
		t.Fatalf("CPU 0 faulted nothing but its histogram holds %d samples", got)
	}
	if st, r := as.Stats(), as.Rollup(); st.Faults != faults || r.Faults != faults || r.Fault.Count() != samples {
		t.Fatalf("Stats().Faults = %d, Rollup faults = %d and samples = %d; want %d, %d and %d",
			st.Faults, r.Faults, r.Fault.Count(), faults, faults, samples)
	}

	trace.Arm(2, 1<<10)
	storm()
	trace.Disarm()
	if got := as.Rollup().Fault.Count() - samples; got != faults {
		t.Fatalf("armed: %d of %d faults timed, want all", got, faults)
	}
	if got := as.counts().Faults; got != 2*faults {
		t.Fatalf("fault counter = %d after %d faults", got, 2*faults)
	}
}

// TestFaultSampleReproducesTail feeds a known two-mode latency mix
// through the CPU's sampler: 300 ns faults, except that the first 8
// pages of every 512-entry leaf table take 20 µs (1.6 % of faults, so
// the true p99 sits in the slow mode). The seeded-gap sample must
// report the same p50 and p99 bucket as timing every fault. A fixed
// 1-in-16 stride cannot: it visits the same 32 slots of every leaf
// table, so depending on its phase it sees the slow pages either four
// times too often or never.
func TestFaultSampleReproducesTail(t *testing.T) {
	const faults = 400000
	fast, slow := 300*time.Nanosecond, 20*time.Microsecond
	latency := func(i int) time.Duration {
		if i%512 < 8 {
			return slow
		}
		return fast
	}
	as, err := New(Config{Design: PureRCU, CPUs: 2, Frames: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	for id := 0; id < 2; id++ {
		cpu := as.NewCPU(id)
		var all, sampled, strided stats.LatencyHist
		for i := 0; i < faults; i++ {
			d := latency(i)
			all.Record(d)
			if cpu.sampleDue() {
				sampled.Record(d)
			}
			if i%16 == 8 {
				strided.Record(d)
			}
		}
		if n := sampled.Count(); n < faults/16*9/10 || n > faults/16*11/10 {
			t.Fatalf("cpu %d: sampled %d of %d, want about 1 in 16", id, n, faults)
		}
		for _, p := range []float64{50, 99} {
			if got, want := sampled.Percentile(p), all.Percentile(p); got != want {
				t.Errorf("cpu %d: sampled p%v = %v, every-fault p%v = %v", id, p, got, p, want)
			}
		}
		if all.Percentile(99) < slow/2 || strided.Percentile(99) > 2*fast {
			t.Fatalf("the mix does not fool a fixed stride (all p99 %v, strided p99 %v): the test proves nothing",
				all.Percentile(99), strided.Percentile(99))
		}
	}
}
