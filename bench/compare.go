package main

import (
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"
)

// compareDocuments is the noise-aware comparison of two run documents
// (base A, candidate B): per workload and end-to-end metric both
// medians, the ratio B/A, and a verdict. A metric whose run-to-run
// spread (quartile distance over median, on either side) is wider than
// its bound is unresolved, never "unchanged"; one run per side has no
// spread to judge by and says so.
func compareDocuments(w io.Writer, pathA, pathB string) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base A = %s (commit %s), candidate B = %s (commit %s); ratio is B/A\n", pathA, a.Commit, pathB, b.Commit)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tunit\tB/A\tbound\tspread A\tspread B\tverdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			va, vb := a.series(wl.name, def.name, false), b.series(wl.name, def.name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			spreadA, spreadB := spreadShare(a1, am, a3), spreadShare(b1, bm, b3)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.3f\t%.2f\t%.1f%%\t%.1f%%\t%s\n", wl.name, def.name,
				strconv.FormatFloat(am, 'g', 5, 64), strconv.FormatFloat(bm, 'g', 5, 64), def.unit,
				ratio(bm, am), def.bound, 100*spreadA, 100*spreadB,
				verdict(def, am, bm, max(spreadA, spreadB), min(len(va), len(vb))))
		}
	}
	return tw.Flush()
}

// verdict judges candidate median bm against base median am.
func verdict(def metricDef, am, bm, spread float64, runs int) string {
	if spread > def.bound {
		return "unresolved"
	}
	change := ratio(bm-am, am) // > 0: B reads higher
	if def.better == "lower" {
		change = -change
	}
	v := "within bound"
	switch {
	case change > def.bound:
		v = "better"
	case change < -def.bound:
		v = "worse"
	}
	if runs < 2 {
		v += " (one run: spread unknown)"
	}
	return v
}
