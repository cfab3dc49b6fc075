// Command vmtrace decodes the binary flight-recorder dumps the trace
// package writes (cmd/torture -trace-dump, or any
// trace.Tracer.DumpFile call), merges the per-CPU rings into one
// timeline, and reports on it:
//
//   - default: a summary — event counts by type, paired-span latency
//     percentiles (fault, map op, grace period, reclaim scan), and the
//     slowest spans annotated with the range-lock guards held and the
//     RCU grace periods in flight while each ran;
//   - -print: the merged event listing, one line per event;
//   - -chrome out.json: a Chrome trace_event file for chrome://tracing
//     or https://ui.perfetto.dev.
//
// Usage:
//
//	go run ./cmd/vmtrace dump.vmtrace
//	go run ./cmd/vmtrace -type fault_exit,oom_kill -print dump.vmtrace
//	go run ./cmd/vmtrace -slowest 20 dump.vmtrace
//	go run ./cmd/vmtrace -chrome trace.json dump.vmtrace
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"bonsai/internal/trace"
)

func main() {
	printEvents := flag.Bool("print", false, "print the merged event listing")
	chromeOut := flag.String("chrome", "", "write a Chrome trace_event JSON file (single input dump)")
	typeFilter := flag.String("type", "", "comma-separated event-type filter (e.g. fault_exit,oom_kill)")
	cpuFilter := flag.Int("cpu", -2, "only events from this CPU partition (-1 = aux ring, -2 = all)")
	slowest := flag.Int("slowest", 10, "spans to show in the slowest-span report")
	limit := flag.Int("limit", 0, "cap the -print listing (0 = all)")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "vmtrace: no dump files (usage: vmtrace [flags] dump.vmtrace...)")
		os.Exit(2)
	}
	keep, err := parseTypeFilter(*typeFilter)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *chromeOut != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "vmtrace: -chrome takes exactly one input dump")
			os.Exit(2)
		}
		d, err := trace.DecodeFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "vmtrace: %s: %v\n", flag.Arg(0), err)
			os.Exit(1)
		}
		f, err := os.Create(*chromeOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vmtrace:", err)
			os.Exit(1)
		}
		if err := d.WriteChrome(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vmtrace:", err)
			os.Exit(1)
		}
		fmt.Printf("vmtrace: wrote %s (load in chrome://tracing or ui.perfetto.dev)\n", *chromeOut)
		return
	}

	var events []trace.Event
	rings := 0
	for _, path := range flag.Args() {
		d, err := trace.DecodeFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vmtrace: %s: %v\n", path, err)
			os.Exit(1)
		}
		rings += len(d.Rings)
		events = append(events, d.Merged()...)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })

	// Span pairing and the concurrency annotation run on the full
	// timeline; the -type/-cpu filters apply to the listing and the
	// counts, so filtering the view never breaks pairing.
	filtered := filterEvents(events, keep, *cpuFilter)

	if *printEvents {
		n := len(filtered)
		if *limit > 0 && *limit < n {
			n = *limit
		}
		for _, e := range filtered[:n] {
			fmt.Println(formatEvent(e))
		}
		if n < len(filtered) {
			fmt.Printf("... %d more (raise -limit)\n", len(filtered)-n)
		}
		return
	}

	summarize(filtered, events, rings, *slowest)
}

func parseTypeFilter(s string) (map[trace.Type]bool, error) {
	if s == "" {
		return nil, nil
	}
	keep := make(map[trace.Type]bool)
	for _, name := range strings.Split(s, ",") {
		t, ok := trace.ParseType(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("vmtrace: unknown event type %q", name)
		}
		keep[t] = true
	}
	return keep, nil
}

func filterEvents(events []trace.Event, keep map[trace.Type]bool, cpu int) []trace.Event {
	if keep == nil && cpu == -2 {
		return events
	}
	out := make([]trace.Event, 0, len(events))
	for _, e := range events {
		if keep != nil && !keep[e.Type] {
			continue
		}
		if cpu != -2 && e.CPU != cpu {
			continue
		}
		out = append(out, e)
	}
	return out
}

func formatEvent(e trace.Event) string {
	return fmt.Sprintf("%12s ring=%-3d cpu=%-3d %-18s a=%#x b=%#x c=%#x",
		fmtNS(e.TS), e.Ring, e.CPU, e.Type, e.A, e.B, e.C)
}

func fmtNS(ns uint64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// interval is one range-lock hold or one grace period, rebuilt from
// the aux ring for the slowest-span annotation.
type interval struct {
	id       uint64
	lo, hi   uint64 // range-lock extent (locks only)
	start    uint64
	end      uint64 // ^uint64(0) while still open at dump time
	gp       bool
	waitedNS uint64 // lock: contended wait before the grant
}

func (iv interval) overlaps(lo, hi uint64) bool {
	return iv.start < hi && lo < iv.end
}

// rebuildIntervals pairs range-lock acquire/release (by guard id) and
// GP start/end (by GP id) into hold intervals.
func rebuildIntervals(events []trace.Event) []interval {
	open := make(map[uint64]int) // guard id | gp id<<1|1 -> index
	var ivs []interval
	key := func(id uint64, gp bool) uint64 {
		k := id << 1
		if gp {
			k |= 1
		}
		return k
	}
	waits := make(map[uint64]uint64) // guard id -> contended wait ns
	for _, e := range events {
		switch e.Type {
		case trace.EvRangeWait:
			waits[e.A] = e.C
		case trace.EvRangeAcquire:
			open[key(e.A, false)] = len(ivs)
			ivs = append(ivs, interval{id: e.A, lo: e.B, hi: e.C,
				start: e.TS, end: ^uint64(0), waitedNS: waits[e.A]})
		case trace.EvRangeRelease:
			if i, ok := open[key(e.A, false)]; ok {
				ivs[i].end = e.TS
				delete(open, key(e.A, false))
			}
		case trace.EvGPStart:
			open[key(e.A, true)] = len(ivs)
			ivs = append(ivs, interval{id: e.A, gp: true, start: e.TS, end: ^uint64(0)})
		case trace.EvGPEnd:
			if i, ok := open[key(e.A, true)]; ok {
				ivs[i].end = e.TS
				delete(open, key(e.A, true))
			}
		}
	}
	return ivs
}

func summarize(filtered, all []trace.Event, rings, slowest int) {
	if len(all) == 0 {
		fmt.Println("vmtrace: empty dump")
		return
	}
	span := all[len(all)-1].TS - all[0].TS
	fmt.Printf("vmtrace: %d events across %d rings, %s of timeline\n",
		len(all), rings, fmtNS(span))

	// Event counts by type, on the filtered view.
	counts := make(map[trace.Type]int)
	for _, e := range filtered {
		counts[e.Type]++
	}
	types := make([]trace.Type, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	fmt.Println("events by type:")
	for _, t := range types {
		fmt.Printf("  %-20s %d\n", t, counts[t])
	}

	spans, orphans := trace.PairSpans(all)
	if len(spans) == 0 {
		fmt.Printf("no paired spans (%d orphans)\n", len(orphans))
		return
	}

	// Per-span-type latency percentiles.
	byType := make(map[trace.Type][]uint64)
	for _, s := range spans {
		byType[s.Type] = append(byType[s.Type], s.Duration())
	}
	fmt.Printf("span latency (%d paired, %d orphans — overwritten or still open):\n",
		len(spans), len(orphans))
	spanTypes := make([]trace.Type, 0, len(byType))
	for t := range byType {
		spanTypes = append(spanTypes, t)
	}
	sort.Slice(spanTypes, func(i, j int) bool { return spanTypes[i] < spanTypes[j] })
	for _, t := range spanTypes {
		ds := byType[t]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		fmt.Printf("  %-20s count=%-8d p50=%-10s p99=%-10s max=%s\n",
			t, len(ds),
			fmtNS(pct(ds, 50)), fmtNS(pct(ds, 99)), fmtNS(ds[len(ds)-1]))
	}

	// Slowest spans, annotated with what else the machine was doing.
	ivs := rebuildIntervals(all)
	bySlow := append([]trace.Span(nil), spans...)
	sort.Slice(bySlow, func(i, j int) bool { return bySlow[i].Duration() > bySlow[j].Duration() })
	if slowest > len(bySlow) {
		slowest = len(bySlow)
	}
	fmt.Printf("slowest %d spans:\n", slowest)
	for i, s := range bySlow[:slowest] {
		fmt.Printf("  %2d. %-18s ring=%-3d cpu=%-3d a=%#-12x %10s @ +%s\n",
			i+1, s.Type, s.Ring, s.CPU, s.Enter.A, fmtNS(s.Duration()), fmtNS(s.Start))
		annotate(s, ivs)
	}
}

// annotate prints the range-lock guards held and the grace periods in
// flight while span s ran — the "who was I waiting on" report.
func annotate(s trace.Span, ivs []interval) {
	const maxLines = 4
	locks, gps := 0, 0
	for _, iv := range ivs {
		if !iv.overlaps(s.Start, s.End) {
			continue
		}
		if iv.gp {
			if gps < maxLines {
				fmt.Printf("        gp %d in flight (started +%s)\n", iv.id, fmtNS(iv.start))
			}
			gps++
			continue
		}
		if locks < maxLines {
			held := "still held at dump"
			if iv.end != ^uint64(0) {
				held = fmtNS(iv.end-iv.start) + " held"
			}
			wait := ""
			if iv.waitedNS > 0 {
				wait = fmt.Sprintf(", waited %s", fmtNS(iv.waitedNS))
			}
			fmt.Printf("        range guard %d [%#x,%#x) %s%s\n", iv.id, iv.lo, iv.hi, held, wait)
		}
		locks++
	}
	if locks > maxLines {
		fmt.Printf("        ... %d more concurrent range guards\n", locks-maxLines)
	}
	if gps > maxLines {
		fmt.Printf("        ... %d more concurrent grace periods\n", gps-maxLines)
	}
	if locks == 0 && gps == 0 {
		fmt.Printf("        no range locks or grace periods in flight\n")
	}
}

// pct returns the p-th percentile of sorted durations.
func pct(sorted []uint64, p float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
