// Command torture runs the VM system's one randomized driver
// (internal/torture): tenant seats on one machine per §5 design,
// workers drawing seeded operations, audits at every generation,
// printing a replayable seed and exiting non-zero on any violation.
// The repository's two end-to-end gates are two settings of it:
//
//	go run ./cmd/torture -seed 1 -duration 60s      # torture: one unlimited seat, faults on
//	go run ./cmd/torture -seed 1 -duration 45s -designs purercu \
//	    -faults=false -tenants 8 -limit 100 -workers 2   # soak: isolation and leaks
//
// With -faults every failpoint must fire and every design must reach
// each coverage path (OOM kills, huge faults, collapses, splits, churn
// mmaps/munmaps/mprotects, forks), or the run fails. With every seat
// limited, a design whose tenants evicted no page fails it, and so —
// on the default pool — does any cross-tenant eviction; -p999-gate
// fails it on a fault p999 above the bound.
//
// With -trace the flight recorder runs for the whole run; the auditor
// stamps an event into it at every violation, and on a failing run (or
// always, with -trace-dump-always) the rings are dumped to -trace-dump
// for cmd/vmtrace / chrome://tracing post-mortems. -vmstat prints a
// vmstat-style machine delta line to stderr every interval. -http
// serves each design's machine on the live introspection plane
// (/metrics, /proc/*, /debug/contention) while it runs — point vmtop
// or a Prometheus scraper at it.
//
// Usage:
//
//	go run ./cmd/torture -seed 1 -designs purercu -faults=false
//	go run ./cmd/torture -trace -trace-dump /tmp/torture
//	go run ./cmd/torture -designs purercu -faults=false -tenants 4 -limit 100 -duration 10m -http 127.0.0.1:6060
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bonsai/internal/introspect"
	"bonsai/internal/torture"
	"bonsai/internal/trace"
	"bonsai/internal/vm"
)

func main() {
	seed := flag.Uint64("seed", 1, "seed of the fault schedule, tenant lifetimes and operations (printed for replay)")
	duration := flag.Duration("duration", 60*time.Second, "total run length, split across designs")
	designs := flag.String("designs", "", "comma-separated subset: rwlock,faultlock,hybrid,purercu (default all)")
	faults := flag.Bool("faults", true, "arm the fault-injection schedule and gate on its coverage")
	tenants := flag.Int("tenants", 1, "concurrent tenant seats")
	limit := flag.Int64("limit", 0, "per-tenant frame limit (0 = unlimited)")
	workers := flag.Int("workers", 4, "operation goroutines per seat")
	frames := flag.Uint64("frames", 0, "machine pool in frames (0 = 1536 per unlimited seat, else 2x the sum of limits + 256)")
	verbose := flag.Bool("v", false, "print per-generation progress")
	vmstat := flag.Duration("vmstat", 0, "print a vmstat-style machine delta line every interval (0 = off)")
	p999Gate := flag.Duration("p999-gate", 0, "fail the run if a design's fault p999 exceeds this (0 = off)")
	httpAddr := flag.String("http", "", "serve the live introspection plane on this address (empty = off)")
	traceOn := flag.Bool("trace", false, "arm the flight-recorder event tracer for the run")
	traceDump := flag.String("trace-dump", "", "directory for ring dumps on a failing run (implies -trace)")
	traceAlways := flag.Bool("trace-dump-always", false, "dump the rings even on a passing run")
	traceRings := flag.Int("trace-rings", 16, "per-CPU trace rings (+1 aux)")
	traceRingSize := flag.Int("trace-ring-size", trace.DefaultRingSize, "events kept per ring (rounded up to a power of two)")
	flag.Parse()

	cfg := torture.Config{
		Seed:     *seed,
		Duration: *duration,
		Faults:   *faults,
		Seats:    *tenants,
		Limit:    *limit,
		Workers:  *workers,
		Frames:   *frames,
	}
	if *designs != "" {
		for _, name := range strings.Split(*designs, ",") {
			d, err := vm.ParseDesign(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			cfg.Designs = append(cfg.Designs, d)
		}
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *httpAddr != "" || *vmstat > 0 {
		cfg.OnMachine = func(label string, h *vm.Host) func() {
			var stops []func()
			if *httpAddr != "" {
				srv, err := introspect.Start(*httpAddr, h, "torture: "+label)
				if err != nil {
					fmt.Fprintf(os.Stderr, "torture: introspection server: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "torture: %s at http://%s/ (metrics, proc views, contention)\n", label, srv.Addr())
					stops = append(stops, func() { _ = srv.Close() })
				}
			}
			if *vmstat > 0 {
				stops = append(stops, startVmstat(h, *vmstat))
			}
			return func() {
				for _, stop := range stops {
					stop()
				}
			}
		}
	}

	if *traceDump != "" {
		*traceOn = true
	}
	if *traceOn {
		trace.Arm(*traceRings, *traceRingSize)
	}

	rep := torture.Run(cfg)

	fmt.Printf("torture: seed=%d duration=%v faults=%v tenants=%d limit=%d\n", rep.Seed, *duration, *faults, *tenants, *limit)
	for _, r := range rep.Designs {
		fmt.Printf("  %s: tenants=%d ops=%d audits=%d oom-errors=%d io-errors=%d\n",
			r.Design, r.Tenants, r.Ops, r.Audits, r.OOMErrors, r.IOErrors)
		fmt.Printf("    faults=%d p50=%v p99=%v p999=%v cross-tenant-evictions=%d\n",
			r.Faults, time.Duration(r.Fault.P50Ns), time.Duration(r.Fault.P99Ns), time.Duration(r.Fault.P999Ns), r.CrossTenantEvictions)
		if *limit > 0 {
			fmt.Printf("    limit-hits=%d evictions=%d max-charged=%d\n", r.LimitHits, r.Evictions, r.MaxCharged)
		}
		fmt.Printf("    oom-kills=%d huge-faults=%d collapses=%d splits=%d mmaps=%d munmaps=%d mprotects=%d forks=%d\n",
			r.OOMKills, r.HugeFaults, r.Collapses, r.HugeSplits, r.Mmaps, r.Munmaps, r.Mprotects, r.Forks)
		if *p999Gate > 0 && time.Duration(r.Fault.P999Ns) > *p999Gate {
			rep.Violations = append(rep.Violations, fmt.Sprintf("%s: p999 gate: fault p999 %v exceeds %v",
				r.Design, time.Duration(r.Fault.P999Ns), *p999Gate))
		}
	}
	if *faults {
		fmt.Printf("  failpoints:\n")
		for _, p := range rep.Failpoints {
			if !p.Armed {
				continue // a schedule point, armed only by tests
			}
			fmt.Printf("    %-24s hits=%-9d fires=%d\n", p.Name, p.Hits, p.Fires)
		}
	}
	for _, g := range rep.Gaps() {
		rep.Violations = append(rep.Violations, "coverage: "+g)
	}

	failed := rep.Failed()
	if failed {
		fmt.Printf("VIOLATIONS (%d):\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Printf("  %s\n", v)
		}
	}
	if t := trace.Disarm(); t != nil && *traceDump != "" && (failed || *traceAlways) {
		path := filepath.Join(*traceDump, fmt.Sprintf("torture-seed%d.vmtrace", rep.Seed))
		if err := t.DumpFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "torture: trace dump: %v\n", err)
		} else {
			fmt.Printf("trace dumped to %s (inspect with go run ./cmd/vmtrace)\n", path)
		}
	}
	if failed {
		fmt.Printf("replay: go run ./cmd/torture %s\n", strings.Join(os.Args[1:], " "))
		os.Exit(1)
	}
	fmt.Println("PASS")
}

// startVmstat prints one machine delta line every interval, vmstat-
// style, fed by the shared snapshot-delta engine (the same one
// cmd/vmtop's rate columns use), and returns the func that stops it.
func startVmstat(h *vm.Host, every time.Duration) func() {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var eng introspect.DeltaEngine
		start := time.Now()
		tick := time.NewTicker(every)
		defer tick.Stop()
		fmt.Fprintln(os.Stderr,
			"vmstat:    t  frames  tenants  d-fault  d-mapop  d-scan  d-evict   d-wb  d-gp  d-oom  fault-p99")
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			sn := introspect.Read(h)
			d := eng.Step(sn)
			fmt.Fprintf(os.Stderr, "vmstat: %4.0fs %7d %8d %8d %8d %7d %8d %6d %5d %6d %10v\n",
				time.Since(start).Seconds(), sn.FramesInUse, len(sn.Tenants),
				d.Faults, d.MapOps, d.Scans, d.Evictions, d.Writebacks, d.GracePeriods, d.OOMKills,
				time.Duration(sn.Latency.Fault.P99Ns))
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}
