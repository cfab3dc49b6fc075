// Command bench is the repository's benchmark: six fixed-work
// workloads on the executable VM, measured end to end with tracing off
// and layer by layer in a separate traced run. See README.md.
//
//	go run -C bench . --workload fault_storm --seed 1 --seconds 8 --trace 0
//	go run -C bench . --runs 5 --trace 1        # every workload, one document
//	go run -C bench . --compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// document is the machine-readable output of one invocation.
type document struct {
	Commit     string       `json:"commit"`
	Go         string       `json:"go"`
	NProc      int          `json:"nproc"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Seed       uint64       `json:"seed"`
	Seconds    int          `json:"seconds"`
	Runs       []*runResult `json:"runs"`
}

func newDocument(seed uint64, seconds int) *document {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return &document{
		Commit: commit, Go: runtime.Version(),
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds,
	}
}

func (d *document) write(path string) error {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// smokeSegmentSeconds shrinks every segment to a couple of
// milliseconds: enough to run every code path and every check.
const smokeSegmentSeconds = 0.002

func newSizing(seed uint64, seconds int, smoke bool) sizing {
	z := sizing{
		seed:           seed,
		seconds:        seconds,
		workers:        min(runtime.NumCPU(), 4),
		segmentSeconds: float64(seconds) / runSegments,
		// 50 ms at the default run length.
		probeRep: time.Duration(seconds) * time.Second / 160,
	}
	if smoke {
		z.segmentSeconds, z.probeRep = smokeSegmentSeconds, 2*time.Millisecond
	}
	return z
}

// measureChild is one process of an end-to-end run: the instance, its
// segments, and the end-to-end metrics as this process saw them.
func measureChild(wl *workloadDef, z sizing) (*runResult, error) {
	res, err := runInstance(wl, z, childSegments, false)
	if err != nil {
		return nil, err
	}
	res.endToEndMetrics()
	return res, nil
}

// measureTraced is the traced run (--trace 1), in this process.
func measureTraced(wl *workloadDef, z sizing) (*runResult, error) {
	res, err := runInstance(wl, z, tracedPlainSegments, true)
	if err != nil {
		return nil, err
	}
	if err := res.perLayerMetrics(z); err != nil {
		return nil, err
	}
	return res, nil
}

// measure is one run of one workload. The end-to-end run (tracing off)
// happens in fresh child processes of this command, one after another,
// so that process-level luck averages out and peak_rss_mb is the
// workload's own.
func measure(wl *workloadDef, seed uint64, seconds int, traced, smoke bool) (*runResult, error) {
	if traced {
		return measureTraced(wl, newSizing(seed, seconds, smoke))
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	part := filepath.Join(outDir, fmt.Sprintf(".child-%d.json", os.Getpid()))
	defer os.Remove(part)
	var kids []*runResult
	for i := 0; i < children; i++ {
		args := []string{"--child", "--workload", wl.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--out", part}
		if smoke {
			args = append(args, "--smoke")
		}
		os.Remove(part) // never read a previous child's document
		child := exec.Command(self, args...)
		child.Stderr = os.Stderr
		runErr := child.Run()
		doc, err := readDocument(part)
		if err != nil || len(doc.Runs) != 1 {
			return nil, fmt.Errorf("%s: child %d left no result: %w", wl.name, i, errors.Join(runErr, err))
		}
		kids = append(kids, doc.Runs[0])
	}
	return mergeChildren(kids), nil
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	runs     int
	out      string
	compare  bool
	smoke    bool
	child    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all six, one after another)")
	flag.Uint64Var(&o.seed, "seed", 1, "seeds every generated address, offset and sampling gap")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "total length of a run's timed segments; planned op counts scale with it")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run: span recorder, counter deltas and layer probes")
	flag.IntVar(&o.runs, "runs", 1, "with every workload: repeat with seeds seed, seed+1, ...")
	flag.StringVar(&o.out, "out", "", "where the run document goes (default bench/out/)")
	flag.BoolVar(&o.compare, "compare", false, "compare two run documents: --compare A.json B.json")
	flag.BoolVar(&o.smoke, "smoke", false, "millisecond-sized segments: checks the plumbing, measures nothing")
	flag.BoolVar(&o.child, "child", false, "internal: one process of an end-to-end run")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			return errors.New("--compare takes two run documents")
		}
		return compareDocuments(os.Stdout, flag.Arg(0), flag.Arg(1))
	case flag.NArg() != 0:
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.runs < 1:
		return errors.New("--seconds and --runs must be at least 1, --trace 0 or 1")
	case o.workload == "":
		return runAll(o)
	}
	wl := findWorkload(o.workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	doc := newDocument(o.seed, o.seconds)
	if o.child {
		res, err := measureChild(wl, newSizing(o.seed, o.seconds, o.smoke))
		if err != nil {
			return err
		}
		doc.Runs = []*runResult{res}
		return doc.write(o.out)
	}
	res, err := measure(wl, o.seed, o.seconds, o.trace == 1, o.smoke)
	if err != nil {
		return err
	}
	out := o.out
	if out == "" {
		out = filepath.Join(outDir, fmt.Sprintf("%s-trace%d.json", wl.name, o.trace))
	}
	doc.Runs = []*runResult{res}
	if err := doc.write(out); err != nil {
		return err
	}
	printTable(os.Stdout, res)
	if err := printResultLine(os.Stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return errCheck
	}
	return nil
}

// runAll runs every workload one after another, plain and (with
// --trace 1) traced, --runs times over, and gathers everything into
// one document.
func runAll(o options) error {
	out := o.out
	if out == "" {
		out = filepath.Join(outDir, "bench.json")
	}
	doc := newDocument(o.seed, o.seconds)
	correct := true
	for i := 0; i < o.runs; i++ {
		for _, wl := range workloads {
			for t := 0; t <= o.trace; t++ {
				res, err := measure(wl, o.seed+uint64(i), o.seconds, t == 1, o.smoke)
				if err != nil {
					return err
				}
				printTable(os.Stderr, res)
				doc.Runs = append(doc.Runs, res)
				correct = correct && res.Correct
			}
		}
	}
	if err := doc.write(out); err != nil {
		return err
	}
	printSummary(os.Stdout, doc)
	fmt.Fprintf(os.Stdout, "run document: %s\n", out)
	if !correct {
		return errCheck
	}
	return nil
}
