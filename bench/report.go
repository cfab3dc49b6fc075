package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"text/tabwriter"
)

// metricOrder lists the metrics a run reports in declaration order.
func metricOrder(r *runResult) []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// printTable is the human view of one run.
func printTable(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "%s  seed %d  %gs  %d workers  traced=%v  attempted %d  failed %d  correct %v\n",
		r.Workload, r.Seed, r.Seconds, r.Workers, r.Traced, r.Attempted, r.Failed, r.Correct)
	for _, msg := range r.ChecksFailed {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", msg)
	}
	for _, msg := range r.OpErrors {
		fmt.Fprintf(w, "  op error: %s\n", msg)
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	for _, def := range metricOrder(r) {
		m := r.Metrics[def.name]
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("n=%d", m.Samples)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\n", def.name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, def.source, samples)
	}
	tw.Flush()
}

// printResultLine prints the one-line JSON result the driver reads:
// exactly the keys correct, attempted, failed and metrics.
func printResultLine(w io.Writer, r *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, def := range metricOrder(r) {
		m := r.Metrics[def.name]
		line.Metrics[def.name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(v, n=4) does (exclusive method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spreadShare is the distance between the quartiles as a share of the
// median's size: the run-to-run spread every bound is judged against.
func spreadShare(q1, q2, q3 float64) float64 { return ratio(q3-q1, math.Abs(q2)) }

// series collects one metric's values over a document's runs of one
// workload, traced or not.
func (d *document) series(workload, name string, traced bool) []float64 {
	var v []float64
	for _, r := range d.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Traced == traced {
			v = append(v, m.Value)
		}
	}
	return v
}

// printSummary is the human table over every run of a document: per
// workload and metric the median and the quartile spread as a share of
// it.
func printSummary(w io.Writer, d *document) {
	fmt.Fprintf(w, "commit %s  %s  nproc %d  GOMAXPROCS %d  seed %d  %ds\n",
		d.Commit, d.Go, d.NProc, d.GoMaxProcs, d.Seed, d.Seconds)
	for _, r := range d.Runs {
		if !r.Correct || r.Failed != 0 {
			fmt.Fprintf(w, "%s seed %d traced=%v: failed %d of %d attempted, checks failed: %q\n",
				r.Workload, r.Seed, r.Traced, r.Failed, r.Attempted, r.ChecksFailed)
		}
	}
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
		for _, wl := range workloads {
			for _, def := range defs {
				v := d.series(wl.name, def.name, traced)
				if len(v) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(v)
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\tspread %.1f%%\tn=%d\n", wl.name, def.name,
					strconv.FormatFloat(q2, 'g', 6, 64), def.unit, 100*spreadShare(q1, q2, q3), len(v))
			}
		}
		tw.Flush()
	}
}
