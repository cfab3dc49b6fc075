// Command vmtop is the live terminal view of a running machine: point
// it at the introspection server cmd/torture exposes with -http and it
// refreshes a top-style screen — machine totals, per-tenant RSS against
// limit with fault and eviction rates, fault p99, and the top contended
// lock sites — from the same snapshot-delta engine torture's -vmstat
// line uses.
//
// Usage:
//
//	go run ./cmd/torture -designs purercu -faults=false -tenants 4 -limit 100 -duration 10m -http 127.0.0.1:6060 &
//	go run ./cmd/vmtop -url http://127.0.0.1:6060
//	go run ./cmd/vmtop -url http://127.0.0.1:6060 -once   # one plain sample
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"bonsai/internal/introspect"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:6060", "introspection server base URL")
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	iterations := flag.Int("n", 0, "samples to take before exiting (0 = until interrupted)")
	once := flag.Bool("once", false, "print a single sample without clearing the screen")
	flag.Parse()

	if *once {
		*iterations = 1
	}
	var eng introspect.DeltaEngine
	prev := time.Now()
	for i := 0; *iterations == 0 || i < *iterations; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		doc, err := scrape(*url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vmtop: %v\n", err)
			os.Exit(1)
		}
		now := time.Now()
		elapsed := now.Sub(prev).Seconds()
		prev = now
		d := eng.Step(doc.Snapshot)
		if !*once {
			fmt.Print("\x1b[H\x1b[2J") // home + clear
		}
		render(os.Stdout, doc, d, elapsed)
	}
}

func scrape(base string) (introspect.SnapshotJSON, error) {
	var doc introspect.SnapshotJSON
	resp, err := http.Get(strings.TrimSuffix(base, "/") + "/snapshot.json")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("scrape: status %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return doc, err
	}
	return doc, json.Unmarshal(body, &doc)
}

// rate renders a per-second rate, guarding the first (rateless) sample
// and sub-millisecond intervals.
func rate(delta int64, elapsed float64, first bool) string {
	if first || elapsed <= 0.001 {
		return "-"
	}
	return fmt.Sprintf("%.0f", float64(delta)/elapsed)
}

func render(w io.Writer, doc introspect.SnapshotJSON, d introspect.Delta, elapsed float64) {
	sn := doc.Snapshot
	fmt.Fprintf(w, "vmtop — %s — %s\n", doc.Label, time.Now().Format("15:04:05"))
	fmt.Fprintf(w, "frames %d/%d in use   tenants %d live (%d admitted, %d evicted)   oom-kills %d\n",
		sn.FramesInUse, sn.FramesTotal, len(sn.Tenants), sn.TenantsAdmitted, sn.TenantsEvicted, sn.OOMKills)
	fmt.Fprintf(w, "faults/s %-8s mapops/s %-8s evict/s %-8s gp/s %-8s fault p99 %v  p999 %v\n\n",
		rate(d.Faults, elapsed, d.First),
		rate(d.MapOps, elapsed, d.First),
		rate(d.Evictions, elapsed, d.First),
		rate(d.GracePeriods, elapsed, d.First),
		time.Duration(sn.Latency.Fault.P99Ns),
		time.Duration(sn.Latency.Fault.P999Ns))

	fmt.Fprintf(w, "%-16s %8s %8s %9s %9s %12s\n", "TENANT", "RSS", "LIMIT", "FAULTS/S", "EVICT/S", "FAULT-P99")
	tds := append([]introspect.TenantDelta(nil), d.Tenants...)
	sort.Slice(tds, func(i, j int) bool { return tds[i].Faults > tds[j].Faults })
	for _, td := range tds {
		ts := td.Cur
		limit := "-"
		if ts.Limit > 0 {
			limit = fmt.Sprintf("%d", ts.Limit)
		}
		fmt.Fprintf(w, "%-16s %8d %8s %9s %9s %12v\n",
			clip(ts.Name, 16), introspect.TenantRSS(ts), limit,
			rate(td.Faults, elapsed, d.First),
			rate(td.Evictions, elapsed, d.First),
			time.Duration(ts.Fault.P99Ns))
	}

	if len(doc.Contention) > 0 {
		fmt.Fprintf(w, "\n%-20s %-22s %8s %12s %12s\n", "CONTENDED SITE", "RANGE", "WAITS", "TOTAL-WAIT", "MAX-WAIT")
		for _, s := range doc.Contention {
			rng := "-"
			if s.Lo != 0 || s.Hi != 0 {
				rng = fmt.Sprintf("[%#x,%#x)", s.Lo, s.Hi)
			}
			fmt.Fprintf(w, "%-20s %-22s %8d %12v %12v\n",
				clip(s.Site, 20), clip(rng, 22), s.Waits,
				time.Duration(s.TotalWaitNs).Round(time.Microsecond),
				time.Duration(s.MaxWaitNs).Round(time.Microsecond))
		}
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
