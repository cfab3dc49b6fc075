package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// sameDeclarations holds BENCHMARK.json and the tables in metrics.go
// equal, in both directions.
func sameDeclarations(t *testing.T, group string, decl []declared, defs []metricDef, bounded bool) {
	t.Helper()
	want := map[string]metricDef{}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+", group, d.name)
		}
		want[d.name] = d
	}
	if len(want) != len(defs) {
		t.Errorf("%s: a metric name is declared twice in metrics.go", group)
	}
	for _, d := range decl {
		def, ok := want[d.Name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json declares %q, the benchmark does not emit it", group, d.Name)
			continue
		}
		delete(want, d.Name)
		if d.Unit != def.unit || d.Better != def.better {
			t.Errorf("%s %s: BENCHMARK.json says %s/%s, metrics.go %s/%s", group, d.Name, d.Unit, d.Better, def.unit, def.better)
		}
		switch {
		case bounded && (d.Bound == nil || *d.Bound != def.bound):
			t.Errorf("%s %s: bound differs from metrics.go's %v", group, d.Name, def.bound)
		case !bounded && d.Bound != nil:
			t.Errorf("%s %s: per-layer metrics have no bound", group, d.Name)
		}
	}
	for name := range want {
		t.Errorf("%s: the benchmark emits %q, BENCHMARK.json does not declare it", group, name)
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	sameDeclarations(t, "end_to_end", b.EndToEnd, endToEnd, true)
	sameDeclarations(t, "per_layer", b.PerLayer, perLayer, false)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if b.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json %q differs from workloads.go %q", i, b.Workloads[i].Name, wl.name)
		}
		if why := b.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", wl.name, len(why))
		}
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, but --seconds defaults to %d", b.RunSeconds, defaultSeconds)
	}
}

// smokeRun is measure at smoke sizing without leaving the test
// process: an end-to-end run is two "children" merged.
func smokeRun(wl *workloadDef, traced bool) (*runResult, error) {
	if traced {
		return measureTraced(wl, newSizing(7, defaultSeconds, true))
	}
	var kids []*runResult
	for i := 0; i < 2; i++ {
		k, err := measureChild(wl, newSizing(7, defaultSeconds, true))
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	return mergeChildren(kids), nil
}

// TestSmoke runs all six workloads, plain and traced, at millisecond
// sizing: every correctness check must pass and each mode must emit
// exactly the metric names BENCHMARK.json declares for it.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	outDir = t.TempDir()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := smokeRun(wl, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: failed %d, checks %q, op errors %q", wl.name, traced, res.Failed, res.ChecksFailed, res.OpErrors)
			}
			if res.Attempted == 0 {
				t.Errorf("%s traced=%v: nothing attempted", wl.name, traced)
			}
			decl := b.EndToEnd
			if traced {
				decl = b.PerLayer
			}
			emitted := map[string]bool{}
			for name, m := range res.Metrics {
				emitted[name] = true
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s %s is %v", wl.name, name, m.Value)
				}
			}
			for _, d := range decl {
				if !emitted[d.Name] {
					t.Errorf("%s traced=%v: %s declared but not emitted", wl.name, traced, d.Name)
				}
				if m := res.Metrics[d.Name]; m.Unit != d.Unit {
					t.Errorf("%s %s: emitted unit %q, declared %q", wl.name, d.Name, m.Unit, d.Unit)
				}
				if !traced && res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v, must never be 0", wl.name, d.Name, res.Metrics[d.Name].Value)
				}
				delete(emitted, d.Name)
			}
			for name := range emitted {
				t.Errorf("%s traced=%v: %s emitted but not declared", wl.name, traced, name)
			}
			var line bytes.Buffer
			if err := printResultLine(&line, res); err != nil {
				t.Fatal(err)
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(line.Bytes(), &got); err != nil || len(got) != 4 {
				t.Errorf("%s: result line %q must hold exactly correct, attempted, failed, metrics (%v)", wl.name, line.String(), err)
			}
		}
		if _, err := os.Stat(filepath.Join(outDir, "trace-"+wl.name+".jsonl")); err != nil {
			t.Errorf("%s: the traced run left no span file: %v", wl.name, err)
		}
	}
}

// TestSeedMovesOnlyGeneratedInputs: another seed changes addresses,
// offsets and gaps, never how much is attempted.
func TestSeedMovesOnlyGeneratedInputs(t *testing.T) {
	outDir = t.TempDir()
	wl := findWorkload("fault_vs_churn")
	var planned [2]uint64
	for i, seed := range []uint64{1, 2} {
		z := newSizing(seed, defaultSeconds, true)
		in, err := wl.build(z, z.workers)
		if err != nil {
			t.Fatal(err)
		}
		seg := in.runSegment(z.units(wl.unitsPerSecond), false)
		if seg.PlanMiss {
			t.Errorf("seed %d: attempted ops differ from the plan", seed)
		}
		for _, w := range in.workers {
			planned[i] += w.faults + w.mapops
		}
		if errs := in.close(); len(errs) != 0 {
			t.Errorf("seed %d: %v", seed, errs)
		}
	}
	if planned[0] != planned[1] {
		t.Errorf("fixed-work ops %d with seed 1, %d with seed 2", planned[0], planned[1])
	}
}

func TestFailedShareCountsAttemptedOps(t *testing.T) {
	// 10 attempted, 4 failed, so 6 completed: the share is 4/10, not 4/6.
	if got := failedShare(4, 10); got != 0.4 {
		t.Errorf("failedShare(4, 10) = %v, want 0.4", got)
	}
	if got := failedShare(0, 0); got != 0 {
		t.Errorf("failedShare(0, 0) = %v, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	tput := metricDef{better: "higher", bound: 0.10}
	lat := metricDef{better: "lower", bound: 0.10}
	for _, c := range []struct {
		def          metricDef
		a, b, spread float64
		runs         int
		want         string
	}{
		{tput, 100, 105, 0.02, 5, "within bound"},
		{tput, 100, 120, 0.02, 5, "better"},
		{tput, 100, 80, 0.02, 5, "worse"},
		{lat, 100, 80, 0.02, 5, "better"},
		{lat, 100, 120, 0.02, 5, "worse"},
		{lat, 100, 120, 0.30, 5, "unresolved"},
		{tput, 100, 120, 0, 1, "better (one run: spread unknown)"},
	} {
		if got := verdict(c.def, c.a, c.b, c.spread, c.runs); got != c.want {
			t.Errorf("verdict(%s, %v→%v, spread %v) = %q, want %q", c.def.better, c.a, c.b, c.spread, got, c.want)
		}
	}
}
