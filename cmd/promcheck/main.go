// Command promcheck validates Prometheus text exposition scrapes — the
// CI metrics smoke job's teeth. With one file it checks exposition
// validity (parseable, single HELP/TYPE per family, each family's lines
// one group that no other family's line interrupts, counter _total
// discipline, no duplicate samples, no empty families). With two files
// it additionally checks counter monotonicity from the first scrape to
// the second: no counter sample regresses, no counter family vanishes.
//
// Exit status 0 on success; 1 with a diagnostic on the first violation.
//
// Usage:
//
//	curl -s localhost:6060/metrics > scrape1.txt
//	curl -s localhost:6060/metrics > scrape2.txt
//	go run ./cmd/promcheck scrape1.txt scrape2.txt
//
// -require lists metric families (comma-separated) that must be
// present in every scrape, e.g. the acceptance set:
//
//	go run ./cmd/promcheck -require vm_tenant_faults_total,vm_fault_latency_ns scrape1.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bonsai/internal/introspect"
)

func main() {
	require := flag.String("require", "", "comma-separated families that must be present in every scrape")
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: promcheck [-require fam1,fam2] scrape1.txt [scrape2.txt]")
		os.Exit(2)
	}

	var parsed [][]introspect.Family
	for _, path := range flag.Args() {
		body, err := os.ReadFile(path)
		if err != nil {
			fatal("%v", err)
		}
		fams, err := introspect.ParseExposition(string(body))
		if err != nil {
			fatal("%s: invalid exposition: %v", path, err)
		}
		if len(fams) == 0 {
			fatal("%s: no metric families", path)
		}
		for _, want := range strings.Split(*require, ",") {
			if want = strings.TrimSpace(want); want == "" {
				continue
			}
			found := false
			for _, f := range fams {
				if f.Name == want {
					found = true
					break
				}
			}
			if !found {
				fatal("%s: required family %s missing", path, want)
			}
		}
		fmt.Fprintf(os.Stderr, "promcheck: %s: %d families valid\n", path, len(fams))
		parsed = append(parsed, fams)
	}
	if len(parsed) == 2 {
		if err := introspect.CheckMonotonic(parsed[0], parsed[1]); err != nil {
			fatal("monotonicity %s -> %s: %v", flag.Arg(0), flag.Arg(1), err)
		}
		fmt.Fprintln(os.Stderr, "promcheck: counters monotonic across scrapes")
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "promcheck: "+format+"\n", args...)
	os.Exit(1)
}
