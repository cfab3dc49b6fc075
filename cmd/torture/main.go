// Command torture runs the rcutorture-style VM stress harness: all
// four §5 designs churned under a seeded fault-injection schedule,
// with machine-wide invariant audits, printing a replayable seed and
// exiting non-zero on any violation.
//
// With -trace the flight recorder runs for the whole torture; the
// auditor stamps an event into it at every violation, and on a failing
// run (or always, with -trace-dump-always) the rings are dumped to
// -trace-dump for cmd/vmtrace / chrome://tracing post-mortems.
//
// Usage:
//
//	go run ./cmd/torture -seed 1 -duration 60s
//	go run ./cmd/torture -seed 1 -designs purercu -faults=false
//	go run ./cmd/torture -trace -trace-dump /tmp/torture
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
	seed := flag.Uint64("seed", 1, "fault-schedule seed (printed for replay)")
	duration := flag.Duration("duration", 60*time.Second, "total run length, split across designs")
	faults := flag.Bool("faults", true, "enable the fault-injection schedule")
	workers := flag.Int("workers", 4, "churn goroutines per machine")
	frames := flag.Uint64("frames", 0, "machine size in frames (0 = torture default)")
	designs := flag.String("designs", "", "comma-separated subset: rwlock,faultlock,hybrid,purercu (default all)")
	verbose := flag.Bool("v", false, "print per-design progress")
	traceOn := flag.Bool("trace", false, "arm the flight-recorder event tracer for the run")
	traceDump := flag.String("trace-dump", "", "directory for ring dumps on a failing run (implies -trace)")
	traceAlways := flag.Bool("trace-dump-always", false, "dump the rings even on a passing run")
	traceRings := flag.Int("trace-rings", 16, "per-CPU trace rings (+1 aux)")
	traceRingSize := flag.Int("trace-ring-size", trace.DefaultRingSize, "events kept per ring (rounded up to a power of two)")
	httpAddr := flag.String("http", "", "serve the live introspection plane on this address (empty = off)")
	flag.Parse()

	cfg := torture.Config{
		Seed:     *seed,
		Duration: *duration,
		Faults:   *faults,
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
			fmt.Printf(format+"\n", args...)
		}
	}

	if *httpAddr != "" {
		set := introspect.NewSpaceSet("torture")
		srv, err := introspect.Start(*httpAddr, set)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "torture: introspection at http://%s/\n", srv.Addr())
		cfg.OnMachine = func(label string, as *vm.AddressSpace) func() {
			return set.Add(label, as)
		}
	}

	if *traceDump != "" {
		*traceOn = true
	}
	if *traceOn {
		trace.Arm(*traceRings, *traceRingSize)
	}

	rep := torture.Run(cfg)

	fmt.Printf("torture: seed=%d duration=%v faults=%v\n", rep.Seed, *duration, *faults)
	fmt.Printf("  epochs=%d ops=%d audits=%d\n", rep.Epochs, rep.Ops, rep.Audits)
	fmt.Printf("  oom-errors=%d io-errors=%d oom-kills=%d\n", rep.OOMErrors, rep.IOErrors, rep.OOMKills)
	fmt.Printf("  thp: huge-faults=%d collapses=%d splits=%d\n", rep.HugeFaults, rep.Collapses, rep.HugeSplits)
	fmt.Printf("  failpoints:\n")
	silent := 0
	for _, p := range rep.Failpoints {
		fmt.Printf("    %-24s armed=%-5v hits=%-9d fires=%d\n", p.Name, p.Armed, p.Hits, p.Fires)
		if *faults && p.Armed && p.Fires == 0 {
			silent++
		}
	}

	ok := true
	if rep.Failed() {
		ok = false
		fmt.Printf("VIOLATIONS (%d):\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Printf("  %s\n", v)
		}
	}
	if silent > 0 {
		ok = false
		fmt.Printf("FAIL: %d armed failpoint(s) never fired — coverage regression, not a passing run\n", silent)
	}
	if t := trace.Disarm(); t != nil && *traceDump != "" && (!ok || *traceAlways) {
		path := filepath.Join(*traceDump, fmt.Sprintf("torture-seed%d.vmtrace", rep.Seed))
		if err := t.DumpFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "torture: trace dump: %v\n", err)
		} else {
			fmt.Printf("trace dumped to %s (inspect with go run ./cmd/vmtrace)\n", path)
		}
	}
	if !ok {
		fmt.Printf("replay: go run ./cmd/torture -seed %d -duration %v -faults=%v\n", rep.Seed, *duration, *faults)
		os.Exit(1)
	}
	fmt.Println("PASS")
}
