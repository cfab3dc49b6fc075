package vm

// Exhaustive schedule exploration of the fault/munmap races, and of the
// race between non-fixed mmaps for one gap, on the real code — the
// reproduction of §6's "exhaustive schedule checking of a model of the
// VM system designed to capture key races", with the VM itself as the
// model. The fault, munmap and gap-search paths carry schedule points
// (fail.Point.Yield) at their race windows; armed with the explorer's
// Park action, a point hands its goroutine to the explorer, which lets
// one goroutine run at a time and enumerates, depth first, every order
// in which the parked goroutines can be released. A schedule is the
// ordered list of point hits it released; a failing one prints that
// list, and replay runs it again.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bonsai/internal/fail"
	"bonsai/internal/vma"
)

// schedPoints are the schedule points the explorer parks goroutines on.
var schedPoints = []*fail.Point{faultLookupPoint, faultFillPoint, unmapCutPoint, unmapCommitPoint, reserveGapPoint,
	fail.Lookup("ranges.stripe-step")}

// startHit is the hit every thread is parked at before its body runs,
// so which thread starts first is a choice like any other.
const startHit = "start"

// schedThread is one goroutine under the explorer's control.
type schedThread struct {
	name    string
	body    func()
	goid    int64
	release chan struct{}
	at      string // the point it is parked at; "" while it runs or is blocked
	done    bool
}

// schedEvent is a thread reaching a point (at) or finishing (at == "").
type schedEvent struct {
	th *schedThread
	at string
}

// schedStep is one decision: the hits parked at it, in thread order,
// and the index of the one released.
type schedStep struct {
	parked []string
	chose  int
}

// schedule is a run's list of point hits, in release order.
func schedule(steps []schedStep) []string {
	hits := make([]string, len(steps))
	for i, s := range steps {
		hits[i] = s.parked[s.chose]
	}
	return hits
}

// runSchedule runs threads to completion, one at a time: at each
// decision pick chooses which parked hit runs next (an index into
// parked). A released thread runs until it parks again, finishes, or
// blocks on something another thread holds (a pin behind munmap's range
// lock); a decision is taken only once no thread is running. It returns
// the decisions taken, with an error if the threads deadlocked, did not
// settle, or pick refused the choices offered.
func runSchedule(threads []*schedThread, pick func(step int, parked []string) (int, error)) ([]schedStep, error) {
	events := make(chan schedEvent)
	byGoid := make(map[int64]*schedThread, len(threads))
	for _, th := range threads {
		th.release = make(chan struct{}, 1)
		go func() {
			th.goid = goid()
			events <- schedEvent{th, startHit}
			<-th.release
			th.body()
			events <- schedEvent{th, ""}
		}()
		ev := <-events
		ev.th.at = ev.at
		byGoid[ev.th.goid] = ev.th
	}
	park := func(p *fail.Point) {
		th := byGoid[goid()]
		if th == nil {
			return // not a thread of this run
		}
		events <- schedEvent{th, p.Name()}
		<-th.release
	}
	for _, p := range schedPoints {
		if err := fail.Enable(0, p.Name(), fail.Config{Park: park}); err != nil {
			panic(err)
		}
	}
	defer func() {
		for _, p := range schedPoints {
			fail.Disable(p.Name())
		}
	}()

	var steps []schedStep
	for {
		if err := settle(threads, events); err != nil {
			return steps, err
		}
		var parked []string
		var ready []*schedThread
		finished := 0
		for _, th := range threads {
			switch {
			case th.done:
				finished++
			case th.at != "":
				parked = append(parked, th.name+"@"+th.at)
				ready = append(ready, th)
			}
		}
		if finished == len(threads) {
			return steps, nil
		}
		if len(ready) == 0 {
			return steps, errors.New("deadlock: every unfinished thread is blocked")
		}
		i, err := pick(len(steps), parked)
		if err != nil {
			return steps, err
		}
		steps = append(steps, schedStep{parked: parked, chose: i})
		ready[i].at = ""
		ready[i].release <- struct{}{}
	}
}

// settle waits until no thread is running: each is parked at a point,
// finished, or blocked in the runtime on a lock or channel. Blocked is
// read from the goroutine dump, and only after the dump is the event
// channel drained once more — a thread the dump caught on its way into
// a park has its event in flight, so a blocked verdict is never a park
// not yet reported.
func settle(threads []*schedThread, events chan schedEvent) error {
	deadline := time.Now().Add(10 * time.Second)
	note := func(ev schedEvent) {
		ev.th.at = ev.at
		ev.th.done = ev.at == ""
	}
	for {
		select {
		case ev := <-events:
			note(ev)
			continue
		case <-time.After(100 * time.Microsecond):
		}
		waits := waitReasons()
		settled := true
		for _, th := range threads {
			if !th.done && th.at == "" && !blockedReason(waits[th.goid]) {
				settled = false
			}
		}
		if settled {
			select {
			case ev := <-events:
				note(ev)
				continue
			default:
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("a released thread neither parked, finished nor blocked within 10s")
		}
	}
}

// goid is the calling goroutine's id, read from its stack header
// ("goroutine 7 [running]:").
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	id, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		panic("goid: unexpected stack header " + string(buf[:n]))
	}
	return id
}

// waitReasons maps every goroutine's id to its scheduler state, read
// from the all-goroutine dump ("goroutine 7 [chan receive, 2 minutes]:").
func waitReasons() map[int64]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[int64]string)
	for _, line := range strings.Split(string(buf), "\n") {
		rest, ok := strings.CutPrefix(line, "goroutine ")
		if !ok {
			continue
		}
		id, state, ok := strings.Cut(rest, " [")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(id, 10, 64)
		if err != nil {
			continue
		}
		state, _, _ = strings.Cut(state, "]")
		state, _, _ = strings.Cut(state, ",")
		out[n] = state
	}
	return out
}

// blockedReason reports whether a goroutine in this state waits for
// another goroutine to release it: a channel, a mutex, a condition
// variable. Running, runnable, sleeping and GC states all move on by
// themselves, and so does "semacquire": every sync primitive reports a
// reason of its own, so a plain semaphore wait is the runtime's — an
// allocation that starts a collection queues for the world while the
// explorer's own goroutine dump has it stopped.
func blockedReason(state string) bool {
	return strings.HasPrefix(state, "chan ") || strings.HasPrefix(state, "sync.") ||
		state == "select"
}

// raceRun is one schedule's address space and threads, built afresh
// for every schedule; check runs after the threads finish and a grace
// period passes, before Close's leak check.
type raceRun struct {
	threads []*schedThread
	check   func() error
}

// raceScenario builds a run on as.
type raceScenario func(t *testing.T, as *AddressSpace) raceRun

// exploreConfig is a space with no background goroutines: grace periods
// only when the explorer runs one, and a pool the reclaimer never wakes
// for.
func exploreConfig(d Design) Config {
	return Config{Design: d, CPUs: 2, Frames: 4096, tune: tuning{rcuBatch: -1}}
}

// runRace runs one schedule of sc on a fresh space, its verdict the
// schedule's own error, the first failed check, or Close's leak check.
// It returns the space's counters as they stood before Close.
func runRace(t *testing.T, d Design, sc raceScenario, pick func(int, []string) (int, error)) (Stats, []schedStep, error) {
	t.Helper()
	as, err := New(exploreConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	r := sc(t, as)
	steps, err := runSchedule(r.threads, pick)
	if err != nil {
		return Stats{}, steps, err // threads may still be parked: leave the space
	}
	as.dom.Synchronize()
	st := as.Stats()
	if err := r.check(); err != nil {
		return st, steps, err
	}
	return st, steps, as.Close()
}

// explore runs every schedule of sc, depth first, passing each one's
// counters and hits to each, and returns how many there were. A
// failing schedule fails t with its list of hits, and so does a run
// offered other choices than the run it retraces.
func explore(t *testing.T, d Design, sc raceScenario, each func(st Stats, hits []string)) int {
	t.Helper()
	var prefix []schedStep // the previous run's decisions, the last one advanced
	for n := 1; ; n++ {
		st, steps, err := runRace(t, d, sc, func(step int, parked []string) (int, error) {
			if step >= len(prefix) {
				return 0, nil
			}
			if !slices.Equal(parked, prefix[step].parked) {
				return 0, fmt.Errorf("nondeterministic: step %d offers %q, the previous run %q", step, parked, prefix[step].parked)
			}
			return prefix[step].chose, nil
		})
		if err != nil {
			t.Fatalf("schedule %d: %v\nschedule: %q", n, err, schedule(steps))
		}
		each(st, schedule(steps))
		// Backtrack: the deepest decision with an untried choice moves
		// to its next one; the decisions below it start over.
		for len(steps) > 0 && steps[len(steps)-1].chose == len(steps[len(steps)-1].parked)-1 {
			steps = steps[:len(steps)-1]
		}
		if len(steps) == 0 {
			return n
		}
		steps[len(steps)-1].chose++
		prefix = steps
	}
}

// replay runs sc under the schedule hits, as a failing run printed it.
func replay(t *testing.T, d Design, sc raceScenario, hits []string) (Stats, error) {
	t.Helper()
	st, _, err := runRace(t, d, sc, func(step int, parked []string) (int, error) {
		for i, h := range parked {
			if step < len(hits) && h == hits[step] {
				return i, nil
			}
		}
		return 0, fmt.Errorf("schedule diverged at step %d: %v parked, the schedule says %q", step, parked, hits[min(step, len(hits)):])
	})
	return st, err
}

// exploreBase is the explored spaces' first mapping address: the start
// of a leaf table, so every scenario's regions share one.
const exploreBase = UnmappedBase

// fillRace is §5.2's fill race: a fault on a page of A — unfaulted, or
// already mapped — against munmap of all of A. A neighbouring region
// keeps A's leaf table alive, so a fill that missed the unmap would land
// in a live table and translate. The fault must return nil or ErrSegv,
// and nothing of A may translate afterwards.
func fillRace(mapped bool) raceScenario {
	return func(t *testing.T, as *AddressSpace) raceRun {
		a, neighbour := uint64(exploreBase), uint64(exploreBase+8*PageSize)
		target := a + PageSize
		mustMmap(t, as, a, 4*PageSize, vma.ProtRead|vma.ProtWrite, vma.Fixed)
		mustMmap(t, as, neighbour, 4*PageSize, vma.ProtRead|vma.ProtWrite, vma.Fixed)
		cpu := as.NewCPU(0)
		prefault := []uint64{neighbour}
		if mapped {
			prefault = append(prefault, target)
		}
		for _, p := range prefault {
			if err := cpu.Fault(p, true); err != nil {
				t.Fatal(err)
			}
		}
		var faultErr, unmapErr error
		return raceRun{
			threads: []*schedThread{
				{name: "fault", body: func() { faultErr = cpu.Fault(target, true) }},
				{name: "munmap", body: func() { unmapErr = as.Munmap(a, 4*PageSize) }},
			},
			check: func() error {
				if unmapErr != nil {
					return fmt.Errorf("munmap: %v", unmapErr)
				}
				if faultErr != nil && !errors.Is(faultErr, ErrSegv) {
					return fmt.Errorf("fault: %v, want nil or ErrSegv", faultErr)
				}
				for p := a; p < a+4*PageSize; p += PageSize {
					if _, ok := as.Translate(p); ok {
						return fmt.Errorf("page %#x translates after munmap (fault returned %v)", p, faultErr)
					}
				}
				if _, ok := as.Translate(neighbour); !ok {
					return errors.New("the neighbouring region lost its page")
				}
				return nil
			},
		}
	}
}

// splitRace is Figure 10: munmap of the middle of V against a fault on
// an unfaulted page of V's top part. The top part is mapped before and
// after, but between the bound store (time 2) and the top region's
// insertion (time 3) a lockless lookup misses it: the fault must retry,
// never fail, and the page must translate afterwards.
func splitRace(t *testing.T, as *AddressSpace) raceRun { return splitRaceAt(t, as, exploreBase) }

// crossingSplitRace is splitRace on a V that crosses a 1 GiB span
// boundary, split past it: under PureRCU, V is in its start's stripe
// tree and in crossing, and the top part goes into the next stripe's
// tree, so the operation's bound store and its insertion land in
// different trees. V, trimmed, still crosses the boundary.
func crossingSplitRace(t *testing.T, as *AddressSpace) raceRun {
	return splitRaceAt(t, as, exploreBase+1<<30-2*PageSize)
}

// splitRaceAt is the split race on a 12-page V at v.
func splitRaceAt(t *testing.T, as *AddressSpace, v uint64) raceRun {
	target := v + 10*PageSize
	mustMmap(t, as, v, 12*PageSize, vma.ProtRead|vma.ProtWrite, vma.Fixed)
	cpu := as.NewCPU(0)
	var faultErr, unmapErr error
	return raceRun{
		threads: []*schedThread{
			{name: "fault", body: func() { faultErr = cpu.Fault(target, true) }},
			{name: "munmap", body: func() { unmapErr = as.Munmap(v+4*PageSize, 4*PageSize) }},
		},
		check: func() error {
			if unmapErr != nil {
				return fmt.Errorf("munmap: %v", unmapErr)
			}
			if faultErr != nil {
				return fmt.Errorf("fault on the always-mapped top part: %v", faultErr)
			}
			if _, ok := as.Translate(target); !ok {
				return errors.New("the top part's page does not translate")
			}
			for p := v + 4*PageSize; p < v+8*PageSize; p += PageSize {
				if _, ok := as.Translate(p); ok {
					return fmt.Errorf("page %#x translates after munmap", p)
				}
			}
			return nil
		},
	}
}

// gapRace is two non-fixed mmaps with one hint racing for the first gap
// above it, which fits one of them: read-only regions at the hint and
// one mapping's length past the gap bound it, so each search finds the
// same gap and the loser must end up past the second region. Under
// range locks each mmap parks between its search and its lock, and a
// loser re-checks the gap under its held range and searches again. The
// two ranges must be disjoint, both must fault, and the space must hold
// four regions: the mmaps' protection keeps them from merging into
// the read-only neighbours.
func gapRace(t *testing.T, as *AddressSpace) raceRun {
	const length = 4 * PageSize
	hint := uint64(exploreBase)
	mustMmap(t, as, hint, length, vma.ProtRead, vma.Fixed)
	mustMmap(t, as, hint+2*length, length, vma.ProtRead, vma.Fixed)
	cpu := as.NewCPU(0)
	var bases [2]uint64
	var errs [2]error
	mmap := func(i int) func() {
		return func() { bases[i], errs[i] = as.Mmap(hint, length, vma.ProtRead|vma.ProtWrite, 0, nil, 0) }
	}
	return raceRun{
		threads: []*schedThread{{name: "a", body: mmap(0)}, {name: "b", body: mmap(1)}},
		check: func() error {
			for _, err := range errs {
				if err != nil {
					return fmt.Errorf("mmap: %v", err)
				}
			}
			a, b := min(bases[0], bases[1]), max(bases[0], bases[1])
			if a != hint+length || b != hint+3*length {
				return fmt.Errorf("mmaps at %#x and %#x, want %#x and %#x", a, b, hint+length, hint+3*length)
			}
			for _, base := range bases {
				for _, p := range []uint64{base, base + length - PageSize} {
					if err := cpu.Fault(p, true); err != nil {
						return fmt.Errorf("fault at %#x: %v", p, err)
					}
				}
			}
			if n := as.RegionCount(); n != 4 {
				return fmt.Errorf("%d regions, want 4", n)
			}
			return nil
		},
	}
}

// stripeRace is a munmap whose range crosses the range manager's
// stripe-index wrap — its first page in a 1 GiB span whose index is
// 15 mod 16, its last in one that is 0 mod 16 — against a fork of the
// same space, which takes all 16 stripes. Each request takes its
// stripes in ascending index, parking at ranges.stripe-step between
// two: the munmap takes stripe 0 before stripe 15, like the fork, so
// neither can hold a stripe the other waits for while it waits. The
// two serialize: the parent ends with the kept region only, and the
// child with the kept region and, if the fork came first, all of the
// unmapped one, its faulted pages still translating.
func stripeRace(t *testing.T, as *AddressSpace) raceRun {
	const wrap = 16 << 30 // a span whose index is 0 mod 16
	v, kept := uint64(wrap-4*PageSize), uint64(exploreBase)
	mustMmap(t, as, v, 8*PageSize, vma.ProtRead|vma.ProtWrite, vma.Fixed)
	mustMmap(t, as, kept, 4*PageSize, vma.ProtRead|vma.ProtWrite, vma.Fixed)
	cpu := as.NewCPU(0)
	faulted := []uint64{v, wrap, kept}
	for _, p := range faulted {
		if err := cpu.Fault(p, true); err != nil {
			t.Fatal(err)
		}
	}
	var child *AddressSpace
	var forkErr, unmapErr error
	return raceRun{
		threads: []*schedThread{
			{name: "munmap", body: func() { unmapErr = as.Munmap(v, 8*PageSize) }},
			{name: "fork", body: func() { child, forkErr = as.Fork() }},
		},
		check: func() error {
			if unmapErr != nil || forkErr != nil {
				return fmt.Errorf("munmap: %v, fork: %v", unmapErr, forkErr)
			}
			spans := func(as *AddressSpace) (out [][2]uint64) {
				for _, r := range as.Regions() {
					out = append(out, [2]uint64{r.Start, r.End})
				}
				return out
			}
			want := [][2]uint64{{kept, kept + 4*PageSize}}
			if got := spans(as); !slices.Equal(got, want) {
				return fmt.Errorf("parent regions %#x, want %#x", got, want)
			}
			got := spans(child)
			forkFirst := len(got) == 2
			if forkFirst {
				want = append(want, [2]uint64{v, v + 8*PageSize})
			}
			if !slices.Equal(got, want) {
				return fmt.Errorf("child regions %#x, want %#x", got, want)
			}
			for _, p := range faulted {
				if _, ok := child.Translate(p); ok != (p == kept || forkFirst) {
					return fmt.Errorf("child page %#x translates: %v (fork first: %v)", p, ok, forkFirst)
				}
				if _, ok := as.Translate(p); ok != (p == kept) {
					return fmt.Errorf("parent page %#x translates: %v", p, ok)
				}
			}
			return child.Close()
		},
	}
}

// The scenarios' schedule counts, the same on both designs: a change in
// the points' placement or in the paths between them moves them.
const (
	fillRaceSchedules   = 16
	splitRaceSchedules  = 17
	stripeRaceSchedules = 35
	// The crossing split's range locks take two stripes each, one
	// ranges.stripe-step point between them.
	crossingSplitRaceSchedules = 32
)

// The gap race's schedule counts. Under RWLock and FaultLock the search
// and the insert are one mmap_sem critical section with no point
// inside, so the start order is the only choice.
const (
	gapRaceSchedules       = 6
	gapRaceSchedulesGlobal = 2
)

// TestExploreFillRace runs every schedule of the §5.2 fill race, on an
// unfaulted page and on a mapped one. Dropping the recheck under the
// PTE lock fails it (scripts/mutants.sh).
func TestExploreFillRace(t *testing.T) {
	for _, d := range rcuDesigns {
		for _, mapped := range []bool{false, true} {
			name := d.String() + "/unfaulted"
			if mapped {
				name = d.String() + "/mapped"
			}
			t.Run(name, func(t *testing.T) {
				start := time.Now()
				var fillRaces int
				n := explore(t, d, fillRace(mapped), func(st Stats, _ []string) {
					if st.RetriesFillRace > 0 {
						fillRaces++
					}
				})
				t.Logf("%d schedules, %d caught by the recheck, in %v", n, fillRaces, time.Since(start))
				if n != fillRaceSchedules {
					t.Errorf("explored %d schedules, want %d", n, fillRaceSchedules)
				}
				if fillRaces == 0 {
					t.Error("no schedule ran the fill into the recheck")
				}
			})
		}
	}
}

// TestExploreSplitRace runs every schedule of Figure 10's split race:
// in each, the fault on the top part succeeds and the page translates.
func TestExploreSplitRace(t *testing.T) {
	for _, d := range rcuDesigns {
		t.Run(d.String(), func(t *testing.T) {
			start := time.Now()
			n := explore(t, d, splitRace, func(Stats, []string) {})
			t.Logf("%d schedules in %v", n, time.Since(start))
			if n != splitRaceSchedules {
				t.Errorf("explored %d schedules, want %d", n, splitRaceSchedules)
			}
		})
	}
}

// TestExploreSplitRaceWindow requires the split race's window to be
// observable: some schedule looks the page up between the cut and the
// commit and retries, and replaying that schedule misses again.
func TestExploreSplitRaceWindow(t *testing.T) {
	for _, d := range rcuDesigns {
		t.Run(d.String(), func(t *testing.T) {
			var window []string
			misses := 0
			explore(t, d, splitRace, func(st Stats, hits []string) {
				if st.RetriesMiss > 0 {
					misses++
					window = hits
				}
			})
			t.Logf("%d schedules in the window", misses)
			if misses == 0 {
				t.Fatal("no schedule looked the page up inside the split's window")
			}
			st, err := replay(t, d, splitRace, window)
			if err != nil {
				t.Fatalf("replay of %q: %v", window, err)
			}
			if st.RetriesMiss == 0 {
				t.Errorf("replay of %q missed the window", window)
			}
		})
	}
}

// TestExploreCrossingSplitRace runs every schedule of the split race
// across a span boundary: in each the fault on the top part succeeds
// and the page translates, and as in one tree some schedule looks the
// page up inside the window — the top part not yet in its tree, V
// already trimmed in the other — and retries. Publishing the top part
// before the trim closes the window (scripts/mutants.sh).
func TestExploreCrossingSplitRace(t *testing.T) {
	for _, d := range rcuDesigns {
		t.Run(d.String(), func(t *testing.T) {
			misses := 0
			n := explore(t, d, crossingSplitRace, func(st Stats, _ []string) {
				if st.RetriesMiss > 0 {
					misses++
				}
			})
			t.Logf("%d schedules, %d in the window", n, misses)
			if n != crossingSplitRaceSchedules {
				t.Errorf("explored %d schedules, want %d", n, crossingSplitRaceSchedules)
			}
			if misses == 0 {
				t.Error("no schedule looked the page up inside the split's window")
			}
		})
	}
}

// TestExploreGapRace runs every schedule of two non-fixed mmaps racing
// for one gap, under every design. Under range locks some schedule must
// send a loser back to search again (its second reserve-gap hit);
// dropping the re-check under the held range fails it
// (scripts/mutants.sh).
func TestExploreGapRace(t *testing.T) {
	for _, d := range Designs {
		t.Run(d.String(), func(t *testing.T) {
			start := time.Now()
			lost := 0
			n := explore(t, d, gapRace, func(_ Stats, hits []string) {
				searches := 0
				for _, h := range hits {
					if strings.HasSuffix(h, "@"+reserveGapPoint.Name()) {
						searches++
					}
				}
				if searches > 2 {
					lost++
				}
			})
			t.Logf("%d schedules, %d with a lost gap, in %v", n, lost, time.Since(start))
			want := gapRaceSchedulesGlobal
			if d.UsesRCU() {
				want = gapRaceSchedules
				if lost == 0 {
					t.Error("no schedule lost the gap to the other mmap")
				}
			}
			if n != want {
				t.Errorf("explored %d schedules, want %d", n, want)
			}
		})
	}
}

// TestExploreStripeRace runs every schedule of a munmap across the
// range manager's stripe wrap against a fork. Taking the stripes in
// address order instead of index order deadlocks some schedule
// (scripts/mutants.sh).
func TestExploreStripeRace(t *testing.T) {
	for _, d := range rcuDesigns {
		t.Run(d.String(), func(t *testing.T) {
			start := time.Now()
			n := explore(t, d, stripeRace, func(Stats, []string) {})
			t.Logf("%d schedules in %v", n, time.Since(start))
			if n != stripeRaceSchedules {
				t.Errorf("explored %d schedules, want %d", n, stripeRaceSchedules)
			}
		})
	}
}

// TestBlockedReasonReadsSyncWaits pins the wait reasons the explorer's
// settle step relies on: a goroutine parked on each sync primitive, a
// channel receive or a select reads as blocked in the goroutine dump,
// and one looping on runtime.Gosched does not. The sync.* reasons are
// those of Go 1.24; a runtime that reports a bare semacquire for any of
// them fails here rather than as a hung or flaky exploration.
func TestBlockedReasonReadsSyncWaits(t *testing.T) {
	var (
		mu, condMu   sync.Mutex
		rwRead, rwWr sync.RWMutex
		wg           sync.WaitGroup
		cond         = sync.NewCond(&condMu)
		condDone     bool
		ch, ch2      = make(chan struct{}), make(chan struct{})
		stop         atomic.Bool
		exited       sync.WaitGroup
	)
	mu.Lock()
	rwRead.Lock() // an RLock waits behind the writer
	rwWr.RLock()  // a Lock waits for the reader
	wg.Add(1)
	waits := map[string]func(){
		"sync.Mutex":         func() { mu.Lock(); mu.Unlock() },
		"sync.RWMutex read":  func() { rwRead.RLock(); rwRead.RUnlock() },
		"sync.RWMutex write": func() { rwWr.Lock(); rwWr.Unlock() },
		"sync.WaitGroup":     wg.Wait,
		"sync.Cond": func() {
			condMu.Lock()
			for !condDone {
				cond.Wait()
			}
			condMu.Unlock()
		},
		"channel receive": func() { <-ch },
		"select": func() {
			select {
			case <-ch:
			case <-ch2:
			}
		},
		"runtime.Gosched loop": func() {
			for !stop.Load() {
				runtime.Gosched()
			}
		},
	}
	ids := make(map[string]int64)
	for name, wait := range waits {
		id := make(chan int64)
		exited.Add(1)
		go func() {
			defer exited.Done()
			id <- goid()
			wait()
		}()
		ids[name] = <-id
	}
	release := func() {
		mu.Unlock()
		rwRead.Unlock()
		rwWr.RUnlock()
		wg.Done()
		condMu.Lock()
		condDone = true
		cond.Broadcast()
		condMu.Unlock()
		close(ch)
		stop.Store(true)
		exited.Wait()
	}
	defer release()

	deadline := time.Now().Add(10 * time.Second)
	for name, id := range ids {
		if name == "runtime.Gosched loop" {
			continue
		}
		state := waitReasons()[id]
		for !blockedReason(state) {
			if time.Now().After(deadline) {
				t.Fatalf("a goroutine parked on %s reads as %q, not blocked", name, state)
			}
			time.Sleep(time.Millisecond)
			state = waitReasons()[id]
		}
		t.Logf("%s: %q", name, state)
	}
	for i := 0; i < 20; i++ {
		if state := waitReasons()[ids["runtime.Gosched loop"]]; blockedReason(state) {
			t.Fatalf("a goroutine looping on runtime.Gosched reads as blocked (%q)", state)
		}
		time.Sleep(time.Millisecond)
	}
}
