// Package fail is a seed-driven deterministic failpoint framework: the
// fault-injection layer the torture harness (cmd/torture) drives and
// every subsystem's error-prone edge registers with. A failpoint is a
// named site compiled permanently into the code; when disarmed — the
// steady state — hitting it costs one atomic pointer load and a nil
// check, so production paths pay nothing measurable. When armed, each
// hit draws a deterministic verdict from a counter-indexed hash of the
// run's seed, so two runs with the same seed and the same per-site
// configuration make identical fire/no-fire decisions at identical hit
// indices, regardless of goroutine interleaving — the property that
// lets a torture failure replay from nothing but its printed seed.
//
// Trigger semantics, composable per site: fire roughly one hit in
// OneIn (pseudo-randomly by hit index, not strictly periodically — a
// strict period would phase-lock with loops), but never within the
// first After hits, and at most Times fires in total. A site can also
// carry a Delay for stall-injection points (grace-period and shootdown
// inflation), consumed via FireDelay.
//
// A schedule point is a site that calls Yield at a race window. Armed
// with a Park action, which only tests set, it hands each hit's
// goroutine to that action, which may hold it until a schedule
// explorer releases it; that is how the VM's races are driven through
// every interleaving on the real code.
//
// Registration is global and happens in package init blocks
// (fail.NewPoint in a var declaration), mirroring how freebsd/etcd
// failpoints are compiled in; arming is per run via Enable/DisableAll.
// Hit and fire counters accumulate while armed and are reported by
// Snapshot, so a harness can assert that every scheduled failpoint
// actually exercised its error path; the torture driver fails a run in
// which an armed point never fired. The fault-injection points:
//
//   - physmem.alloc: Alloc fails with ErrOutOfMemory as if the pool were
//     empty; physmem.run-alloc: AllocRun fails, forcing the huge fault's
//     base-page fallback; physmem.drain: DrainMagazines recovers nothing;
//   - rcu.gp-delay and tlb.flush-delay: a stretched grace period (the
//     epoch holds for the delay; no retiring caller sleeps on it) and
//     extra latency inside a shootdown flush;
//   - pagecache.fill: a fill fails with ErrFillIO; pagecache.wb-retryable
//     and pagecache.wb-sticky: writeback fails, the page staying dirty
//     (ErrWritebackIO) or being cleaned anyway (ErrStickyIO);
//   - reclaim.stall: a direct-reclaim run returns at once, with no scan
//     and no grace period; the operation spends one retry of its budget.
//
// Package vm's "Validation" describes the schedule points and the
// explorer that drives them.
package fail

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config arms one failpoint.
type Config struct {
	// OneIn makes roughly one hit in OneIn fire (by seeded hash of the
	// hit index). 0 or 1 fires on every eligible hit.
	OneIn uint64
	// After suppresses firing for the first After hits (let a system
	// boot before failing it).
	After uint64
	// Times bounds the total number of fires. 0 means unlimited.
	Times int64
	// Delay is the stall injected by FireDelay sites. Fire ignores it.
	Delay time.Duration
	// Park, when set, is called by every hit of a Yield site, on the
	// hitting goroutine, and may block it. Fire and FireDelay ignore it.
	Park func(*Point)
}

// armed is the immutable armed state a point publishes; swapping the
// whole struct keeps Fire a single pointer load when reading it.
type armed struct {
	cfg  Config
	salt uint64       // mix of run seed and point name
	left atomic.Int64 // remaining fires when cfg.Times > 0
}

// Point is one named failpoint. Construct with NewPoint in a package
// var block; call Fire (or FireDelay) at the injection site.
type Point struct {
	name  string
	state atomic.Pointer[armed]
	hits  atomic.Uint64 // hits while armed
	fires atomic.Uint64
}

// Name returns the point's registered name.
func (p *Point) Name() string { return p.name }

// Enabled reports whether the point is currently armed.
func (p *Point) Enabled() bool { return p.state.Load() != nil }

// Fire reports whether the failpoint triggers on this hit. Disarmed
// points return false after one atomic load. Armed points draw a
// deterministic verdict for their hit index: the nth hit of a point
// under a given seed always decides the same way.
func (p *Point) Fire() bool {
	a := p.state.Load()
	if a == nil {
		return false
	}
	n := p.hits.Add(1)
	if n <= a.cfg.After {
		return false
	}
	if a.cfg.OneIn > 1 && mix64(a.salt^n)%a.cfg.OneIn != 0 {
		return false
	}
	if a.cfg.Times > 0 && a.left.Add(-1) < 0 {
		return false
	}
	p.fires.Add(1)
	return true
}

// FireDelay is Fire for stall-injection sites: it returns the armed
// Delay when the point triggers and 0 otherwise (including when armed
// with no Delay, so a misconfigured stall site degrades to a no-op
// rather than a zero-length sleep loop).
func (p *Point) FireDelay() time.Duration {
	a := p.state.Load()
	if a == nil || a.cfg.Delay <= 0 {
		return 0
	}
	if !p.Fire() {
		return 0
	}
	return a.cfg.Delay
}

// Yield is a schedule point. Disarmed, or armed without a Park action,
// it costs one atomic load; armed with one, it counts the hit and calls
// Park.
func (p *Point) Yield() {
	if a := p.state.Load(); a != nil {
		p.park(a)
	}
}

// park is kept out of line so that Yield inlines into its sites.
//
//go:noinline
func (p *Point) park(a *armed) {
	if a.cfg.Park != nil {
		p.hits.Add(1)
		a.cfg.Park(p)
	}
}

// Hits returns how many times the site was reached while armed.
func (p *Point) Hits() uint64 { return p.hits.Load() }

// Fires returns how many times the site triggered.
func (p *Point) Fires() uint64 { return p.fires.Load() }

// arm publishes cfg, resetting the counters so per-run stats and the
// deterministic hit indexing both start from zero.
func (p *Point) arm(seed uint64, cfg Config) {
	a := &armed{cfg: cfg, salt: mix64(seed ^ hashName(p.name))}
	if cfg.Times > 0 {
		a.left.Store(cfg.Times)
	}
	p.hits.Store(0)
	p.fires.Store(0)
	p.state.Store(a)
}

func (p *Point) disarm() { p.state.Store(nil) }

// registry of all compiled-in points.
var (
	regMu  sync.Mutex
	points = map[string]*Point{}
)

// NewPoint registers a failpoint under a unique name. It is meant for
// package var blocks; duplicate names panic at init time.
func NewPoint(name string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := points[name]; dup {
		panic(fmt.Sprintf("fail: duplicate failpoint %q", name))
	}
	p := &Point{name: name}
	points[name] = p
	return p
}

// Lookup returns the registered point, or nil.
func Lookup(name string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	return points[name]
}

// Enable arms the named failpoint for a run keyed by seed. The point's
// hit/fire counters reset, so Snapshot reads as per-run stats.
func Enable(seed uint64, name string, cfg Config) error {
	p := Lookup(name)
	if p == nil {
		return fmt.Errorf("fail: unknown failpoint %q", name)
	}
	p.arm(seed, cfg)
	return nil
}

// Disable disarms the named failpoint (no-op if unknown). Counters are
// left readable for a final Snapshot.
func Disable(name string) {
	if p := Lookup(name); p != nil {
		p.disarm()
	}
}

// DisableAll disarms every registered failpoint.
func DisableAll() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, p := range points {
		p.disarm()
	}
}

// PointStats is one point's counters, as reported by Snapshot.
type PointStats struct {
	Name  string
	Armed bool
	Hits  uint64 // site reached while armed
	Fires uint64 // site triggered
}

// Snapshot returns every registered point's counters, sorted by name.
func Snapshot() []PointStats {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]PointStats, 0, len(points))
	for _, p := range points {
		out = append(out, PointStats{
			Name:  p.name,
			Armed: p.state.Load() != nil,
			Hits:  p.hits.Load(),
			Fires: p.fires.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// mix64 is the splitmix64 finalizer: a full-avalanche mix so adjacent
// hit indices decide independently.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashName is FNV-1a over the point name, salting the seed so two
// points armed with the same seed draw independent streams.
func hashName(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
