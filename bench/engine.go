package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// The run protocol every workload follows: a closed loop of fixed
// work. An instance is built (construction + initial mappings), warmed
// with a short untimed segment, then driven through equal-work timed
// segments; throughput and latency metrics are the median segment, so
// one preempted segment cannot move them. Planned op counts are pure
// functions of the sizing, so attempted counts repeat exactly.

// epoch anchors the monotonic clock all timings read.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// newRNG is the generator every address, offset and sampling gap comes
// from: one PCG stream per purpose, all seeded from --seed.
func newRNG(seed uint64, stream int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(stream)))
}

// faultGapMean is the default mean distance between timed faults.
const faultGapMean = 32

const protRW = vma.ProtRead | vma.ProtWrite

// opKind names the public calls the benchmark makes into the VM.
type opKind uint8

const (
	opFault opKind = iota
	opMmap
	opMunmap
	opMprotect
	opMadvise
	opSynchronize
	opSweep // the benchmark's own sweep/round: parent of the calls inside it
	numOps
)

var opNames = [numOps]string{"fault", "mmap", "munmap", "mprotect", "madvise", "synchronize", "sweep"}

// worker is one load-generating goroutine: a vm.CPU (absent for a pure
// mapper), its own generator, and per-segment accumulators that only
// it touches while a segment runs.
type worker struct {
	id  int
	as  *vm.AddressSpace
	cpu *vm.CPU
	rng *rand.Rand

	traced bool
	// gapMean is the mean distance between timed faults (0 means
	// faultGapMean; 1 times every fault); gap counts down to the next.
	gapMean, gap int

	faults, mapops uint64   // attempted this segment
	failed         uint64   // unexpected errors this segment
	errs           []string // the first few of them, over the worker's life
	faultNs, mapNs []uint32
	done           int64 // when this segment's fixed work finished

	spans spanLog
}

func (w *worker) resetSegment(traced bool) {
	w.traced = traced
	w.faults, w.mapops, w.failed = 0, 0, 0
	w.faultNs, w.mapNs = w.faultNs[:0], w.mapNs[:0]
	w.spans.reset(traced)
	if w.gapMean == 0 {
		w.gapMean = faultGapMean
	}
	if w.gap <= 0 {
		w.gap = w.nextGap()
	}
}

// nextGap draws the distance to the next timed fault: uniform on
// [1, 2·mean−1], because a fixed stride would alias with the 512-entry
// leaf-table period.
func (w *worker) nextGap() int { return 1 + w.rng.IntN(2*w.gapMean-1) }

// clampNs stores a duration as 32-bit nanoseconds: anything over 4.29 s
// saturates, which no percentile the benchmark reports can tell apart.
func clampNs(d int64) uint32 {
	return uint32(min(d, int64(^uint32(0))))
}

// fault attempts one CPU.Fault and returns its error unjudged. With
// tracing off only the seeded sample is timed; a traced segment times
// every call and records a span.
func (w *worker) fault(addr uint64, write bool) error {
	w.faults++
	if w.traced {
		t0 := now()
		err := w.cpu.Fault(addr, write)
		w.spans.add(opFault, t0, now())
		return err
	}
	if w.gap--; w.gap > 0 {
		return w.cpu.Fault(addr, write)
	}
	w.gap = w.nextGap()
	t0 := now()
	err := w.cpu.Fault(addr, write)
	w.faultNs = append(w.faultNs, clampNs(now()-t0))
	return err
}

// mustFault is fault on an address the plan keeps mapped: any error is
// a failed op.
func (w *worker) mustFault(addr uint64, write bool) {
	if err := w.fault(addr, write); err != nil {
		w.fail("fault", err)
	}
}

// mapCall times one mapping call (every one is timed, traced or not).
func (w *worker) mapCall(kind opKind, fn func() error) {
	w.mapops++
	t0 := now()
	err := fn()
	t1 := now()
	if w.traced {
		w.spans.add(kind, t0, t1)
	} else {
		w.mapNs = append(w.mapNs, clampNs(t1-t0))
	}
	if err != nil {
		w.fail(opNames[kind], err)
	}
}

func (w *worker) mmapFixed(addr, length uint64) {
	w.mapCall(opMmap, func() error {
		_, err := w.as.Mmap(addr, length, protRW, vma.Fixed, nil, 0)
		return err
	})
}

func (w *worker) munmap(addr, length uint64) {
	w.mapCall(opMunmap, func() error { return w.as.Munmap(addr, length) })
}

func (w *worker) mprotect(addr, length uint64, prot vma.Prot) {
	w.mapCall(opMprotect, func() error { return w.as.Mprotect(addr, length, prot) })
}

func (w *worker) madvise(addr, length uint64) {
	w.mapCall(opMadvise, func() error { return w.as.MadviseDontNeed(addr, length) })
}

// synchronize waits out a grace period on the clock. It is not a
// mapping op, so it is neither counted nor sampled, only spanned.
func (w *worker) synchronize() {
	if !w.traced {
		w.as.Domain().Synchronize()
		return
	}
	t0 := now()
	w.as.Domain().Synchronize()
	w.spans.add(opSynchronize, t0, now())
}

// maxOpErrors bounds the unexpected errors a run document quotes.
const maxOpErrors = 8

func (w *worker) fail(op string, err error) {
	w.failed++
	if len(w.errs) < maxOpErrors {
		w.errs = append(w.errs, fmt.Sprintf("worker %d %s: %v", w.id, op, err))
	}
}

// instance is one built workload: the address spaces under test, the
// fixed-work workers, and an optional open-ended companion that runs
// until they finish.
type instance struct {
	spaces  []*vm.AddressSpace
	workers []*worker
	// body does units of fixed work (sweeps, cycles, rounds) on w.
	body func(w *worker, units int)
	// planned returns the faults and mapping ops body(w, units) attempts.
	planned func(w *worker, units int) (faults, mapops uint64)

	companion     *worker
	companionBody func(w *worker, stop *atomic.Bool)

	// verify runs the workload's output checks after the timed segments
	// and returns one message per failed check.
	verify func() []string
	// close tears everything down; every error is a failed check.
	close func() []error
	// quiet, when set, is the worker whose own p99 is reported as
	// machine.quiet_fault_p99_us and whose faults stay out of the
	// end-to-end fault percentiles: mixing a fast and a slow population
	// puts the percentile on the boundary between them.
	quiet *worker
	// moreCounters, when set, adds what snapshotSpaces cannot see (page
	// caches, tenant accounts) to a counter reading.
	moreCounters func(c *counters)
}

// counters reads the layer counters (see layers.go).
func (in *instance) counters() counters {
	c := snapshotSpaces(in.spaces)
	if in.moreCounters != nil {
		in.moreCounters(&c)
	}
	return c
}

// opErrors quotes the first few unexpected errors the workers met.
func (in *instance) opErrors() []string {
	var msgs []string
	for _, w := range in.everyone() {
		msgs = append(msgs, w.errs...)
	}
	return msgs[:min(len(msgs), maxOpErrors)]
}

// segment is what one fixed-work segment measured.
type segment struct {
	Wall float64 `json:"wall_s"`
	// WorkerWall is when each fixed-work worker finished: an imbalance
	// here means the slowest worker alone sets the segment's rate.
	WorkerWall  []float64 `json:"worker_wall_s"`
	Faults      uint64    `json:"faults"`
	MapOps      uint64    `json:"mapops"`
	PagesMapped uint64    `json:"pages_mapped"`
	Failed      uint64    `json:"failed"`
	PlanMiss    bool      `json:"plan_miss,omitempty"`

	FaultP50 float64 `json:"fault_p50_ns"`
	FaultP99 float64 `json:"fault_p99_ns"`
	MapP50   float64 `json:"mapop_p50_ns"`
	MapP99   float64 `json:"mapop_p99_ns"`
	QuietP99 float64 `json:"quiet_fault_p99_ns,omitempty"`

	FaultSamples int `json:"fault_samples"`
	MapSamples   int `json:"mapop_samples"`

	faultNs []uint32 // pooled into the run's p999
	// per-kind busy time and counts of a traced segment
	spanNs, spanN [numOps]int64
}

func (s segment) faultsPerS() float64 { return float64(s.Faults) / s.Wall }
func (s segment) mapopsPerS() float64 { return float64(s.MapOps) / s.Wall }
func (s segment) pagesPerS() float64  { return float64(s.PagesMapped) / s.Wall }

// everyone is the fixed-work workers plus the companion, if any.
func (in *instance) everyone() []*worker {
	if in.companion == nil {
		return in.workers
	}
	return append(in.workers[:len(in.workers):len(in.workers)], in.companion)
}

func (in *instance) pagesMapped() uint64 {
	var n uint64
	for _, as := range in.spaces {
		n += as.Stats().PagesMapped
	}
	return n
}

// runSegment drives every worker through units of fixed work and
// measures the wall time from the common start to the last finisher.
func (in *instance) runSegment(units int, traced bool) segment {
	all := in.everyone()
	for _, w := range all {
		w.resetSegment(traced)
	}
	var stop atomic.Bool
	start := make(chan struct{})
	var fixed, comp sync.WaitGroup
	for _, w := range in.workers {
		fixed.Add(1)
		go func() {
			defer fixed.Done()
			<-start
			in.body(w, units)
			w.done = now()
		}()
	}
	if in.companion != nil {
		comp.Add(1)
		go func() {
			defer comp.Done()
			<-start
			in.companionBody(in.companion, &stop)
		}()
	}
	mapped0 := in.pagesMapped()
	t0 := now()
	close(start)
	fixed.Wait()
	stop.Store(true)
	comp.Wait()
	wall := now() - t0

	seg := segment{Wall: float64(wall) / 1e9, PagesMapped: in.pagesMapped() - mapped0}
	var faultNs, mapNs []uint32
	for _, w := range all {
		seg.Faults += w.faults
		seg.MapOps += w.mapops
		seg.Failed += w.failed
		if w != in.quiet {
			faultNs = append(faultNs, w.faultNs...)
		}
		mapNs = append(mapNs, w.mapNs...)
		w.spans.sum(&seg.spanNs, &seg.spanN)
	}
	for _, w := range in.workers {
		seg.WorkerWall = append(seg.WorkerWall, float64(w.done-t0)/1e9)
		pf, pm := in.planned(w, units)
		if w.faults != pf || w.mapops != pm {
			seg.PlanMiss = true
		}
	}
	if traced {
		return seg
	}
	seg.FaultSamples, seg.MapSamples = len(faultNs), len(mapNs)
	seg.faultNs = faultNs
	slices.Sort(faultNs)
	slices.Sort(mapNs)
	seg.FaultP50, seg.FaultP99 = percentile(faultNs, 50), percentile(faultNs, 99)
	seg.MapP50, seg.MapP99 = percentile(mapNs, 50), percentile(mapNs, 99)
	if in.quiet != nil {
		q := slices.Clone(in.quiet.faultNs)
		slices.Sort(q)
		seg.QuietP99 = percentile(q, 99)
	}
	return seg
}

// percentile reads the p-th percentile of sorted samples, interpolating
// between the two neighbouring order statistics.
func percentile[T uint32 | float64](sorted []T, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(i)
	return float64(sorted[i])*(1-frac) + float64(sorted[i+1])*frac
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return percentile(s, 50)
}

func medianOf(segs []segment, f func(segment) float64) float64 {
	v := make([]float64, len(segs))
	for i, s := range segs {
		v[i] = f(s)
	}
	return median(v)
}

// sizing turns --seed, --seconds and the host into a workload's sizes.
type sizing struct {
	seed    uint64
	seconds int // --seconds: the total length of the run's timed segments
	workers int // W = min(nproc, 4)
	// segmentSeconds is how long one timed segment should take on the
	// 2-core host; planned units per segment grow linearly with it.
	segmentSeconds float64
	// probeRep is the length of one repetition of a layer probe.
	probeRep time.Duration
}

func (z sizing) units(perSecond float64) int {
	return max(int(perSecond*z.segmentSeconds), 1)
}

// The end-to-end run measures a workload in `children` fresh processes,
// `childSegments` timed segments each: throughput and latency differ
// from process to process by more than from segment to segment (±5 %
// on the 2-core host — memory placement and the pacing of the RCU
// detector stick for a process's life), so a run's value is the median
// over processes of each process's median segment. The segments of a
// run total --seconds.
const (
	children      = 5
	childSegments = 3
	runSegments   = children * childSegments

	// The traced run is one process: the same plain segments for the
	// counter deltas, then the traced ones, then the one-worker variant.
	tracedPlainSegments = 7
	tracedSegments      = 3
	soloSegments        = 3
)

// runResult is what one process measured on one workload, or — after
// mergeChildren — a whole end-to-end run.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Workers  int     `json:"workers"`
	Traced   bool    `json:"traced"`
	// Sizes and Plan say what was run: the workload's shape, and the
	// planned units of fixed work per segment and worker.
	Sizes string `json:"sizes"`
	Plan  string `json:"plan"`

	Correct      bool     `json:"correct"`
	Attempted    uint64   `json:"attempted"`
	Failed       uint64   `json:"failed"`
	ChecksFailed []string `json:"checks_failed,omitempty"`
	OpErrors     []string `json:"op_errors,omitempty"`

	// Setups holds one set-up time per process; Segments every plain
	// timed segment, process by process.
	Setups   []float64 `json:"setup_s"`
	Segments []segment `json:"segments"`
	Traced3  []segment `json:"traced_segments,omitempty"`
	Solo     []segment `json:"one_worker_segments,omitempty"`

	Metrics map[string]metric `json:"metrics"`

	before, after counters
	p999          float64
}

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// errCheck marks a run whose output checks failed.
var errCheck = errors.New("bench: correctness check failed")

// runInstance executes one workload in this process: set-up (build,
// initial mappings, a half-segment warm-up), nseg plain timed segments
// between two counter readings, the output checks and teardown. With
// traced it adds the traced segments and the one-worker scaling
// segments; the layer probes are left to the caller.
func runInstance(wl *workloadDef, z sizing, nseg int, traced bool) (*runResult, error) {
	res := &runResult{Workload: wl.name, Seed: z.seed, Seconds: float64(z.seconds), Workers: z.workers, Traced: traced, Metrics: map[string]metric{}}
	units := z.units(wl.unitsPerSecond)
	warm := max(units/2, 1)
	res.Sizes, res.Plan = wl.sizes, fmt.Sprintf("%d %s per segment", units, wl.unit)

	t0 := now()
	in, err := wl.build(z, z.workers)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	ws := in.runSegment(warm, false)
	res.Setups = []float64{float64(now()-t0) / 1e9}
	res.Attempted += ws.Faults + ws.MapOps
	res.Failed += ws.Failed

	res.before = in.counters()
	for i := 0; i < nseg; i++ {
		res.Segments = append(res.Segments, in.runSegment(units, false))
	}
	res.after = in.counters()
	if traced {
		for i := 0; i < tracedSegments; i++ {
			res.Traced3 = append(res.Traced3, in.runSegment(units, true))
		}
		if err := writeSpans(wl.name, in); err != nil {
			return nil, err
		}
	}
	var pooled []uint32
	for i := range res.Segments {
		s := &res.Segments[i]
		pooled = append(pooled, s.faultNs...)
		s.faultNs = nil
	}
	for _, s := range append(res.Segments[:nseg:nseg], res.Traced3...) {
		res.Attempted += s.Faults + s.MapOps
		res.Failed += s.Failed
		if s.PlanMiss {
			res.ChecksFailed = append(res.ChecksFailed, "attempted op count differs from the plan")
		}
	}
	slices.Sort(pooled)
	res.p999 = percentile(pooled, 99.9)

	res.ChecksFailed = append(res.ChecksFailed, in.verify()...)
	res.check(in.close())
	res.OpErrors = in.opErrors()

	// The same workload at one worker, for the scaling ratios.
	if traced && wl.scales && z.workers > 1 {
		solo, err := wl.build(z, 1)
		if err != nil {
			return nil, fmt.Errorf("%s: one-worker set-up: %w", wl.name, err)
		}
		solo.runSegment(warm, false)
		for i := 0; i < soloSegments; i++ {
			res.Solo = append(res.Solo, solo.runSegment(units, false))
		}
		res.check(solo.close())
		res.OpErrors = append(res.OpErrors, solo.opErrors()...)
	}

	res.Failed += uint64(len(res.ChecksFailed))
	res.Correct = len(res.ChecksFailed) == 0
	return res, nil
}

func (r *runResult) check(errs []error) {
	for _, err := range errs {
		r.ChecksFailed = append(r.ChecksFailed, err.Error())
	}
}

// mergeChildren folds the processes of one end-to-end run into the
// run's result: counts add up, segments and set-ups concatenate, and
// every metric is the median of the processes' values.
func mergeChildren(kids []*runResult) *runResult {
	res := *kids[0]
	res.Correct, res.Attempted, res.Failed = true, 0, 0
	res.ChecksFailed, res.OpErrors, res.Setups, res.Segments = nil, nil, nil, nil
	res.Metrics = map[string]metric{}
	for _, k := range kids {
		res.Correct = res.Correct && k.Correct
		res.Attempted += k.Attempted
		res.Failed += k.Failed
		res.ChecksFailed = append(res.ChecksFailed, k.ChecksFailed...)
		res.OpErrors = append(res.OpErrors, k.OpErrors...)
		res.Setups = append(res.Setups, k.Setups...)
		res.Segments = append(res.Segments, k.Segments...)
	}
	for name, m := range kids[0].Metrics {
		values := make([]float64, len(kids))
		m.Samples = 0
		for i, k := range kids {
			values[i] = k.Metrics[name].Value
			m.Samples += k.Metrics[name].Samples
		}
		m.Value = median(values)
		res.Metrics[name] = m
	}
	return &res
}

// failedShare is failed_op_share: failures over ops attempted, not
// over ops completed — an op that fails still counts in the divisor.
func failedShare(failed, attempted uint64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
