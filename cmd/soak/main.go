// Command soak runs the long-running multi-tenant churn driver:
// tenant seats admitting, thrashing, and evicting tenants under
// randomized workloads (private arenas, family-shared files, fork
// storms), each tenant held to a memcg-style frame limit so the
// tenant-local reclaim ladder runs continuously. It prints the
// machine-readable soak report (per-seat fault counts and p50/p99/p999
// and the reclaim-fairness metric) as JSON on stdout and exits non-zero on
// any gate violation: a cross-tenant eviction while every tenant was
// under its limit, a leaked frame after every tenant departed, or a
// fault p999 above -p999-gate. The fault counts and percentiles are the
// VM's own: each departed tenant's vm.Rollup — every fault counted, one
// in sixteen timed (every one under -trace) — fork children included.
//
// With -trace the flight recorder runs for the whole soak; on a gate
// failure (or always, with -trace-dump-always) the last events per
// CPU ring are dumped to -trace-dump for cmd/vmtrace / chrome://tracing
// post-mortems. -vmstat prints a periodic machine-delta line to
// stderr while the run is in flight. -http serves the live
// introspection plane (/metrics, /proc/*, /debug/contention) for the
// duration of the run — point vmtop or a Prometheus scraper at it.
//
// Usage:
//
//	go run ./cmd/soak -duration 45s -tenants 8
//	go run ./cmd/soak -seed 7 -design rwlock -limit 128 -v
//	go run ./cmd/soak -trace -trace-dump /tmp/soak -p999-gate 50ms -vmstat 2s
//	go run ./cmd/soak -duration 10m -http 127.0.0.1:6060
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bonsai/internal/introspect"
	"bonsai/internal/machine"
	"bonsai/internal/trace"
	"bonsai/internal/vm"
)

func main() {
	seed := flag.Uint64("seed", 1, "workload seed (printed for replay)")
	duration := flag.Duration("duration", 45*time.Second, "total run length")
	tenants := flag.Int("tenants", 8, "concurrent tenant seats")
	limit := flag.Int64("limit", 100, "per-tenant frame limit")
	workers := flag.Int("workers", 2, "fault goroutines per tenant")
	frames := flag.Uint64("frames", 0, "machine pool size in frames (0 = 2x the sum of limits)")
	design := flag.String("design", "purercu", "design: rwlock, faultlock, hybrid, purercu")
	verbose := flag.Bool("v", false, "print per-seat progress to stderr")
	p999Gate := flag.Duration("p999-gate", 0, "fail the run if fault p999 exceeds this (0 = off)")
	vmstat := flag.Duration("vmstat", 0, "print a vmstat-style machine delta line every interval (0 = off)")
	httpAddr := flag.String("http", "", "serve the live introspection plane on this address (empty = off)")
	traceOn := flag.Bool("trace", false, "arm the flight-recorder event tracer for the run")
	traceDump := flag.String("trace-dump", "", "directory for ring dumps on gate failure (implies -trace)")
	traceAlways := flag.Bool("trace-dump-always", false, "dump the rings even on a passing run")
	traceRings := flag.Int("trace-rings", 16, "per-CPU trace rings (+1 aux)")
	traceRingSize := flag.Int("trace-ring-size", trace.DefaultRingSize, "events kept per ring (rounded up to a power of two)")
	flag.Parse()

	d, err := vm.ParseDesign(*design)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := machine.SoakConfig{
		Seed:        *seed,
		Duration:    *duration,
		Slots:       *tenants,
		LimitFrames: *limit,
		Workers:     *workers,
		Frames:      *frames,
		Design:      d,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *vmstat > 0 {
		cfg.SampleEvery = *vmstat
		cfg.Sample = newVmstat(time.Now())
	}
	if *httpAddr != "" {
		cfg.OnMachine = func(m *machine.Machine) func() {
			srv, err := introspect.Start(*httpAddr, introspect.Machine(m, "soak"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "soak: introspection server: %v\n", err)
				return nil
			}
			fmt.Fprintf(os.Stderr, "soak: introspection at http://%s/ (metrics, proc views, contention)\n", srv.Addr())
			return func() { _ = srv.Close() }
		}
	}

	if *traceDump != "" {
		*traceOn = true
	}
	if *traceOn {
		trace.Arm(*traceRings, *traceRingSize)
	}

	rep := machine.Soak(cfg)

	failed := rep.Failed()
	if *p999Gate > 0 && rep.FaultP999NS > int64(*p999Gate) {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("p999 gate: fault p999 %v exceeds %v", time.Duration(rep.FaultP999NS), *p999Gate))
		failed = true
	}

	if t := trace.Disarm(); t != nil && *traceDump != "" && (failed || *traceAlways) {
		path := filepath.Join(*traceDump, fmt.Sprintf("soak-seed%d.vmtrace", rep.Seed))
		if err := t.DumpFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "soak: trace dump: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "soak: trace dumped to %s (inspect with go run ./cmd/vmtrace)\n", path)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "soak: FAILED with %d violations (replay: -seed %d)\n", len(rep.Violations), rep.Seed)
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "soak: ok — %d tenants churned, %d faults, p99 %dns, 0 cross-tenant evictions\n",
		rep.Evicted, rep.Faults, rep.FaultP99NS)
}

// newVmstat returns a Sample hook that prints one delta line per call,
// vmstat-style, fed by the shared snapshot-delta engine (the same one
// cmd/vmtop's rate columns use).
func newVmstat(start time.Time) func(machine.Snapshot) {
	var eng introspect.DeltaEngine
	first := true
	return func(sn machine.Snapshot) {
		if first {
			fmt.Fprintln(os.Stderr,
				"vmstat:    t  frames  tenants  d-fault  d-mapop  d-scan  d-evict   d-wb  d-gp  d-oom  fault-p99")
			first = false
		}
		d := eng.Step(sn)
		fmt.Fprintf(os.Stderr, "vmstat: %4.0fs %7d %8d %8d %8d %7d %8d %6d %5d %6d %10v\n",
			time.Since(start).Seconds(),
			sn.FramesInUse,
			len(sn.Tenants),
			d.Faults,
			d.MapOps,
			d.Scans,
			d.Evictions,
			d.Writebacks,
			d.GracePeriods,
			d.OOMKills,
			time.Duration(sn.Latency.Fault.P99Ns))
	}
}
